/**
 * @file
 * SharedStagePool — one StageWorker pipeline serving every job.
 *
 * The pool is the only place StageWorkers are built: D worker
 * threads (one per pipeline stage), one completion queue and, when
 * the wall deadline is on, one watchdog — shared by all tenants, or
 * owned by the one job of a solo threaded run. Tasks carry their
 * job's binding, so a worker resolves the right space / commit gate
 * / numeric executor per task; the workers hold no job state, which
 * is what makes a job's crash recovery a pure coordinator-side
 * operation.
 *
 * Worker context management follows Config::context. A multi-tenant
 * service keeps the default, AllResident with the predictor off:
 * job stores pre-materialize at admission, and the context cache is
 * pure bookkeeping (never numerics), so sharing it across tenants
 * would only entangle their metric accounting. A solo run passes its
 * system's memory mode and predictor.
 *
 * The pool watchdog supervises the *service*, not the jobs: no job
 * fault stops a worker, so its only incident is a hang past the
 * opt-in wall deadline — the service maps it to a service-level
 * failure, distinct from any per-job failure.
 */

#ifndef NASPIPE_SERVE_POOL_H
#define NASPIPE_SERVE_POOL_H

#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "exec/stage_worker.h"
#include "exec/task_queue.h"
#include "fault/fault_plan.h"
#include "fault/watchdog.h"

namespace naspipe {
namespace serve {

class SharedStagePool
{
  public:
    struct Config {
        int numStages = 4;  ///< pipeline depth shared by every job
        /** Stage-inbox and completion-queue capacity; size to at
         *  least the admitted jobs' summed in-flight windows. */
        std::size_t inboxCapacity = 16;
        /** Wall-deadline heartbeat scan cadence
         *  (--watchdog-interval-ms). */
        int watchdogPollMs = 2;
        /** Opt-in wall-clock hang deadline (timing-dependent); the
         *  pool builds its watchdog only when this is on. */
        bool wallDeadline = false;
        double deadlineSeconds = 30.0;
        bool recordTrace = false;
        /** Every worker's context cache / predictor setup. */
        StageContextConfig context;
    };

    explicit SharedStagePool(Config config);

    ~SharedStagePool();

    SharedStagePool(const SharedStagePool &) = delete;
    SharedStagePool &operator=(const SharedStagePool &) = delete;

    /** Build and start the workers (and the watchdog, if any). */
    void start();

    /** Submit a forward into stage 0 (coordinator thread). */
    void dispatch(std::shared_ptr<const SubnetRun> run);

    /** Wake every worker (job-gate commit hook). */
    void notifyAll();

    /** Latch a transient fault (stall or degrade) into its victim
     *  stage worker; other effects are ignored. */
    void perturb(const FaultSpec &fault, const FaultEffect &effect);

    /** Fully-retired subnets (stage 0 backward done) plus the
     *  watchdog's nullptr incident sentinel. */
    BoundedTaskQueue<std::shared_ptr<const SubnetRun>> &
    completions()
    {
        return *_completions;
    }

    /** Clean shutdown: drain-stop the workers and join. */
    void shutdown() { stop(false); }

    /** Emergency teardown: abandon queued work and join. */
    void abort() { stop(true); }

    /** Last watchdog incident (valid after the nullptr sentinel). */
    std::string incidentDescription() const;

    int numStages() const { return _config.numStages; }

    /** Post-shutdown per-stage accounting. */
    const StageWorker &worker(int stage) const
    {
        return *_workers[static_cast<std::size_t>(stage)];
    }

  private:
    void startWatchdog();
    void stop(bool abandonQueued);

    const Config _config;

    std::vector<std::unique_ptr<StageWorker>> _workers;
    std::unique_ptr<
        BoundedTaskQueue<std::shared_ptr<const SubnetRun>>>
        _completions;

    // Declared after the queue: the watchdog's incident callback
    // pushes the sentinel into it, so it must be destroyed first.
    // Null unless Config::wallDeadline.
    std::unique_ptr<fault::Watchdog> _watchdog;
    mutable RankedMutex _poolIncidentMu{LockRank::ServePoolIncident};
    int _incidentStage = -1;
    std::string _incidentReason;

    bool _started = false;
    bool _joined = false;
};

} // namespace serve
} // namespace naspipe

#endif // NASPIPE_SERVE_POOL_H
