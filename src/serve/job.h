/**
 * @file
 * ServeJob — one tenant of the multi-tenant search service.
 *
 * A job is one training run — a SearchSpace plus a RuntimeConfig —
 * and wraps everything that must be *private* for per-job bitwise
 * reproducibility and fault isolation: a TrainingSession (sampler,
 * score delivery, checkpoint cadence), a CommitGate (the job's own
 * causal chains — CSP's guarantee is per supernet, so chains never
 * cross jobs), a ParameterStore/NumericExecutor pair, a seeded fault
 * plan and a bounded-retry recovery policy. What it does NOT own is
 * compute: admitted subnets are dispatched into the shared
 * StageWorker pool, tagged with this job's JobBinding so the workers
 * resolve the right gate and executor per task. This is the only
 * threaded implementation of CSP training: a solo threaded run
 * (runTrainingThreaded) is the one job of a one-job service.
 *
 * Lifecycle (the serve state machine):
 *
 *   Queued ──▶ Admitted ──▶ Running ◀──▶ Recovering
 *                │             │  ▲          │
 *                ▼             ▼  │          ▼
 *              Failed       Draining ──▶ Done/Failed
 *
 * Queued jobs hold no pool resources (service-level admission
 * control defers them); Admitted jobs have an initialized session
 * and a reserved in-flight window; Running jobs have subnets in the
 * pipeline; Draining jobs injected everything and await completions;
 * Recovering jobs took a fail-stop fault and are discarding their
 * in-flight stragglers before rolling back to the last drained
 * checkpoint. Done/Failed are terminal. Fail-stop faults are
 * job-logical: no thread dies, the job only freezes. One job's crash
 * — even its retry exhaustion — only ever touches its own state: the
 * rollback restores the job's private store and rebuilds the job's
 * private gate, while the shared workers never stop serving the
 * neighbors.
 */

#ifndef NASPIPE_SERVE_JOB_H
#define NASPIPE_SERVE_JOB_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/commit_gate.h"
#include "exec/stage_worker.h"
#include "fault/fault_plan.h"
#include "session/training_session.h"
#include "tensor/kernels/precision.h"

namespace naspipe {
namespace serve {

/** Lifecycle of one search job inside the service. */
enum class JobState {
    Queued,      ///< submitted; no pool resources held yet
    Admitted,    ///< session initialized, in-flight window reserved
    Running,     ///< subnets in the pipeline
    Recovering,  ///< fail-stop taken; draining stragglers, will
                 ///< roll back to the last drained checkpoint
    Draining,    ///< all subnets injected; completions outstanding
    Done,        ///< finished; result once run() returns
    Failed,      ///< cancelled, crashed out of retries, or rejected
};

/** Printable state name ("queued", "running", ...). */
const char *jobStateName(JobState state);

/** Whether @p from -> @p to is a legal state-machine edge. */
bool jobTransitionAllowed(JobState from, JobState to);

/** Client-facing description of one search job. */
struct JobSpec {
    std::string name;              ///< display name (default job<id>)
    std::string space = "NLP.c1";  ///< search-space name (Table 1)
    std::uint64_t seed = 7;
    int steps = 32;        ///< subnets to train (totalSubnets)
    int priority = 1;      ///< WRR weight; higher = more slots
    int ckptInterval = 0;  ///< drained-checkpoint cadence (0: off)
    /** Persist drained checkpoints here; at submission, a checkpoint
     *  already present at this path resumes the job from it (the
     *  resubmit-after-interruption path — the resumed trajectory is
     *  bitwise the uninterrupted one). */
    std::string ckptPath;
    int recoveryRetries = 3;  ///< consecutive retries before Failed
    int maxInflight = 0;      ///< per-job window cap (0: system)
    /** Numeric storage precision of the job's trajectory. */
    kernels::PrecisionMode precision = kernels::PrecisionMode::Fp32;
    /** Job-scoped fault plan; fail-stop kinds only — a crash poisons
     *  this job's pipeline state, never the shared workers. */
    std::vector<FaultSpec> faults;
};

/**
 * Validate @p spec against the service's pool shape; fills @p why
 * with the first problem. Transient fault kinds are rejected: on a
 * shared pool a stall/degrade would perturb every tenant.
 */
bool validateJobSpec(const JobSpec &spec, std::string *why);

/**
 * The run a validated @p spec describes on a @p numStages-deep pool
 * (a NASPipe system with numerics on). A checkpoint already present
 * at spec.ckptPath becomes the resumePath — the resubmit-after-
 * interruption path shares the solo executor's one resume rule.
 */
RuntimeConfig jobRuntimeConfig(const JobSpec &spec, int numStages);

/**
 * Parse a CLI job spec: comma-separated `key=value` pairs with keys
 * name, space, seed, steps, priority, ckpt (interval), ckpt-path,
 * retries, window, precision (fp32|fp16), and repeatable fault
 * (value `KIND@STEP`, KIND crash|drop). Example:
 *
 *   space=NLP.c1,seed=11,steps=32,priority=2,ckpt=8,fault=crash@12
 *
 * Returns false and sets @p why on malformed input.
 */
bool parseJobSpec(const std::string &text, JobSpec &out,
                  std::string *why = nullptr);

/**
 * One tenant: private session/gate/plan/policy, shared compute.
 * All methods are coordinator-thread-only.
 */
class ServeJob : public ExecutionBackend
{
  public:
    /** Pool-side hooks a job dispatches through. */
    struct PoolHooks {
        /** Submit a run into stage 0 of the shared pool. */
        std::function<void(std::shared_ptr<const SubnetRun>)>
            dispatch;
        /** Wake every pool worker (a job-gate commit hook). */
        std::function<void()> wakeAll;
        /** The service clock in seconds (the job's time base). */
        std::function<double()> clock;
        /** Latch a transient fault into the victim pool worker. */
        std::function<void(const FaultSpec &, const FaultEffect &)>
            perturb;
    };

    /**
     * @param id service-assigned job ID (also the metric namespace)
     * @param spec the tenancy: name, WRR priority and window cap
     * @param space the job's space (must outlive the job's result)
     * @param config the run; numStages is the shared pool depth
     */
    ServeJob(int id, JobSpec spec, const SearchSpace &space,
             RuntimeConfig config);

    ServeJob(const ServeJob &) = delete;
    ServeJob &operator=(const ServeJob &) = delete;

    /** @name ExecutionBackend (the session calls back into the job)
     * @{ */
    bool canAdmit(SubnetId next) const override;
    void admit(SubnetId id) override;
    void restoreCompleted(SubnetId id) override;
    /** @} */

    /**
     * Queued -> Admitted: build this phase's commit gate, initialize
     * the session, resume from config.resumePath when set and
     * pre-materialize the store. Returns false (and fails the job)
     * when the capacity planner rejects the run or the resume file
     * does not restore; a job resumed at its final barrier is Done
     * on return. The job's clock starts after this set-up.
     */
    bool start(PoolHooks hooks);

    /**
     * Assign the global dispatch ticket of the *next* admitted
     * subnet, then inject it (session.pump(1) -> admit()). The
     * service calls this once per WRR slot.
     */
    bool pumpOne(std::uint64_t ticket);

    /** Whether the session could inject a subnet right now. */
    bool admissible();

    /**
     * Apply one completed subnet: compute the loss, record it, fire
     * due faults (a fail-stop flips the job to Recovering, a
     * transient fault is latched into the pool), take the drained
     * checkpoint at a barrier, and finish the job when this was the
     * last subnet.
     */
    void applyCompletion(const std::shared_ptr<const SubnetRun> &run);

    /**
     * One straggler of a Recovering job drained (and was dropped).
     * Returns true when the drain is complete and recover() may run.
     */
    bool noteStragglerDropped();

    /**
     * Roll back and rejoin through TrainingSession::recover() (retry
     * exhaustion fails the job — the per-job exit-5 path), then
     * re-materialize the store and rebuild the gate. Neighbors are
     * untouched by construction: everything rebuilt here is
     * job-private.
     */
    bool recover();

    /** Cancel: Queued jobs fail immediately; live jobs drain their
     *  in-flight stragglers first (dropped, like a fail-stop), then
     *  fail without recovery. */
    void requestCancel();

    /** Mark Draining once everything is injected (status cosmetics;
     *  the admission gates already stop the pump). */
    void refreshDrainState();

    /**
     * Done -> result: the post-run search, hash and causal audit.
     * The service calls it once its workers have stopped, so this
     * coordinator work is neither pool time nor a stall for the
     * other tenants.
     */
    void collectResult();

    /** The run result (once collected, or failure fields once
     *  Failed). */
    const RunResult &result() const { return _result; }
    /** Move the result out (the solo adapter's hand-off). */
    RunResult takeResult() { return std::move(_result); }

    /** Terminal-failure record. */
    void fail(const std::string &reason);

    /** @name Introspection
     * @{ */
    int id() const { return _id; }
    const JobSpec &spec() const { return _spec; }
    JobState state() const { return _state; }
    bool terminal() const
    {
        return _state == JobState::Done ||
               _state == JobState::Failed;
    }
    const std::string &error() const { return _result.error; }
    bool retriesExhausted() const
    {
        return _session.retriesExhausted();
    }
    const SearchSpace &space() const { return _space; }
    const RuntimeConfig &config() const { return _config; }
    TrainingSession &session() { return _session; }
    const TrainingSession &session() const { return _session; }
    /** Reserved in-flight window (admission-control accounting). */
    int window() const;
    int recoveries() const { return _session.recoveries(); }
    int subnetsReplayed() const { return _session.subnetsReplayed(); }
    int pendingDrain() const { return _pendingDrain; }
    std::uint64_t supernetHash() const
    {
        return _result.supernetHash;
    }
    /** @} */

  private:
    void setState(JobState next);
    void rebuildGate();
    void fireFaults();
    void beginFailStop(const std::string &reason, int stage);
    void finish();
    /** Busy seconds the workers spent on this phase's tasks. */
    double phaseBusySeconds() const;

    const int _id;
    const JobSpec _spec;

    // Declaration order matters: the session holds references to the
    // space and the config, so both must outlive (= precede) it.
    const SearchSpace &_space;
    const RuntimeConfig _config;
    TrainingSession _session;

    JobState _state = JobState::Queued;
    bool _cancelRequested = false;

    // Phase-scoped causal chains (rebuilt on every recovery).
    std::unique_ptr<CommitGate> _gate;
    JobBinding _binding;
    PoolHooks _hooks;
    std::uint64_t _nextTicket = 0;

    FaultInjector _injector;
    bool _failStopPending = false;
    std::string _failStopReason;
    int _failStopStage = 0;
    int _pendingDrain = 0;  ///< stragglers left to drop (Recovering)

    // Fault and recovery trace records outlive the session trace a
    // recovery re-inits.
    std::vector<TraceRecord> _faultRecords;

    double _startedAt = 0.0;   ///< service clock after start()'s set-up
    double _phaseStart = 0.0;  ///< service clock at this phase's start
    double _finishedAt = 0.0;  ///< service clock at the last completion
    std::uint64_t _phaseBusyNs = 0;  ///< binding busy at phase start
    RunResult _result;
};

} // namespace serve
} // namespace naspipe

#endif // NASPIPE_SERVE_JOB_H
