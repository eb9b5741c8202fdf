/**
 * @file
 * ExecPredictor: Algorithm 3's prediction decisions for the threaded
 * executor.
 *
 * The simulator's Predictor walks the stage-local DependencyTracker
 * to name the next tasks (schedule/predictor.*). A StageWorker has a
 * simpler but equivalent view: its forward queue is kept sorted by
 * sequence ID, and under CSP the next forward this stage runs is
 * always the lowest-ID queued one. The three prediction moments map
 * onto the worker loop as:
 *
 *  - *status passed from other stages* (§3.3): a task arriving in the
 *    inbox is this stage's advance notice — its context is prefetched
 *    at drain time, before any execution;
 *  - *before a backward* (Algorithm 3 lines 4-8): the commit the
 *    backward is about to publish unblocks the lowest-ID queued
 *    forwards — prefetch their contexts (the released-backward
 *    re-fetch path when the budget evicted them);
 *  - *before a forward* (Algorithm 3 lines 16-18): the forwards
 *    queued right after the one being launched run next — prefetch
 *    up to kPrefetchDepth of them.
 *
 * The predictor only *names* subnets; the worker's ContextManager
 * performs (and accounts) the fetches. Like the manager it never
 * gates execution, so prediction quality affects the hit rate, not
 * the trained weights.
 *
 * This stays separate from the simulator's Predictor because the two
 * make different predictions: Predictor re-runs
 * CspPolicy::schedulableForward over the DependencyTracker and keeps
 * L_blocked from backward messages, while ExecPredictor names the
 * lowest queued forwards with no readiness check. Merging them would
 * change the simulator's pinned cache-hit figures.
 */

#ifndef NASPIPE_SCHEDULE_EXEC_PREDICTOR_H
#define NASPIPE_SCHEDULE_EXEC_PREDICTOR_H

#include <cstdint>
#include <vector>

#include "supernet/subnet.h"

namespace naspipe {

/**
 * Stateless pick logic plus prediction accounting for one worker.
 */
class ExecPredictor
{
  public:
    /** Prediction-call accounting of one worker. */
    struct Stats {
        std::uint64_t beforeForward = 0;
        std::uint64_t beforeBackward = 0;
        std::uint64_t predicted = 0;  ///< subnets named for prefetch
    };

    /** Most subnets one prediction call names. */
    static constexpr int kPrefetchDepth = 2;

    /** @param enabled disabled predictors never name anything */
    explicit ExecPredictor(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /**
     * Algorithm 3 lines 16-18: forward @p current is about to run;
     * name the queued forwards that follow it. @p queuedFwd is the
     * worker's forward queue in ascending sequence-ID order.
     */
    std::vector<SubnetId>
    beforeForward(SubnetId current,
                  const std::vector<SubnetId> &queuedFwd);

    /**
     * Algorithm 3 lines 4-8: a backward is about to commit; name the
     * lowest-ID queued forwards its commit may unblock.
     */
    std::vector<SubnetId>
    beforeBackward(const std::vector<SubnetId> &queuedFwd);

    const Stats &stats() const { return _stats; }

  private:
    std::vector<SubnetId>
    lowestQueued(SubnetId exclude,
                 const std::vector<SubnetId> &queuedFwd);

    bool _enabled;
    Stats _stats;
};

} // namespace naspipe

#endif // NASPIPE_SCHEDULE_EXEC_PREDICTOR_H
