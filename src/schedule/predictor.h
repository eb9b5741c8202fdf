/**
 * @file
 * Context predictor (paper Algorithm 3, §3.3).
 *
 * The predictor forecasts the next tasks a stage will run so the
 * context manager can prefetch their layer parameters. It is invoked
 * at two points of the runtime loop:
 *
 *  - before a backward pass runs: the backward will finish its
 *    subnet's WRITE on this stage, so the predictor pre-adds it to
 *    the finished list and re-runs SCHEDULE() — the forward that
 *    produces "has a high chance to be the next scheduled". It also
 *    records the pending backward tasks carried by the received
 *    message from later stages.
 *
 *  - before a forward pass runs: if this forward releases a recorded
 *    pending backward (its precedence equals the current forward),
 *    that backward's context is fetched; SCHEDULE() is re-run to
 *    predict the following forward as well.
 */

#ifndef NASPIPE_SCHEDULE_PREDICTOR_H
#define NASPIPE_SCHEDULE_PREDICTOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "schedule/scheduler.h"
#include "schedule/task.h"

namespace naspipe {

/**
 * A backward task blocked at the tail of the pipeline because its
 * forward has not arrived yet; `precedence` names the forward whose
 * completion unblocks it. Carried inside backward messages between
 * stages (§3.3).
 */
struct PendingBackward {
    SubnetId id = -1;          ///< the blocked backward's subnet
    SubnetId precedence = -1;  ///< forward that must run first

    bool operator==(const PendingBackward &) const = default;
};

/** Why the predictor requested a fetch (for statistics). */
enum class PredictReason {
    AfterBackward,   ///< fwd predicted by pre-adding a bwd to L_f
    ReleasedBackward,///< pending bwd released by the current fwd
    AfterForward,    ///< next fwd predicted before a fwd runs
};

/** Aggregate predictor statistics. */
struct PredictorStats {
    std::uint64_t calls = 0;
    std::uint64_t fetchesRequested = 0;
    std::uint64_t pendingRecorded = 0;  ///< entries added to L_blocked
};

/**
 * Per-stage predictor.
 */
class Predictor
{
  public:
    /** Callback type: request a context fetch for a predicted task. */
    using FetchFn =
        std::function<void(const Task &, PredictReason)>;

    Predictor() = default;

    /**
     * Algorithm 3, backward branch: called when a backward for
     * @p received is about to run on @p stage.
     *
     * @param stage the stage view
     * @param received subnet whose backward just arrived
     * @param nextBwds pending backwards carried by the message
     * @param fetch fetch-request callback
     */
    void beforeBackward(const StageInfo &stage, SubnetId received,
                        const std::vector<PendingBackward> &nextBwds,
                        const FetchFn &fetch);

    /**
     * Algorithm 3, forward branch: called when the forward of
     * @p current is about to run on @p stage.
     */
    void beforeForward(const StageInfo &stage, SubnetId current,
                       const FetchFn &fetch);

    /**
     * Blocked-backward records not yet released. Only records whose
     * precedence forward has not yet run on the stage are kept, so
     * the list holds at most the stage's in-flight subnets.
     */
    const std::vector<PendingBackward> &blocked() const
    {
        return _blocked;
    }

    const PredictorStats &stats() const { return _stats; }

  private:
    std::vector<PendingBackward> _blocked;  ///< L_blocked
    /// Forwards seen by beforeForward whose backward has not finished
    /// on the stage (finished ones are in the stage's L_f).
    std::vector<SubnetId> _forwardsRun;
    PredictorStats _stats;
};

} // namespace naspipe

#endif // NASPIPE_SCHEDULE_PREDICTOR_H
