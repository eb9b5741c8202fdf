/**
 * @file
 * TrainingSession: the runtime-agnostic coordinator core.
 *
 * Both executors — the discrete-event simulator (PipelineRuntime) and
 * the real thread pool (serve::ServeJob) — used to reimplement the
 * same coordinator: draw subnets in sequence order, gate injection on
 * the in-flight limit / feedback lag / checkpoint drain barrier,
 * deliver quality scores to the sampler in sequence-ID order, take
 * drained checkpoints, replay a checkpoint on resume, roll back to
 * the last drained checkpoint after a fail-stop fault under the
 * bounded-retry policy, and assemble the shared half of
 * RunMetrics. That logic is *exactly* the part of
 * NASPipe that makes a run a pure function of (seed, scores-by-ID)
 * (Definition 1), so duplicating it was a reproducibility hazard:
 * any drift between the two copies silently broke the bitwise
 * sim ≡ threads equivalence the test suite asserts.
 *
 * TrainingSession owns that logic once. An executor plugs in behind
 * the small ExecutionBackend interface: it is handed each freshly
 * sampled subnet (admit), each checkpoint-restored subnet
 * (restoreCompleted), and may veto injection (canAdmit — the
 * simulator's BSP bulk barrier). Everything the executor does between
 * admit() and recordCompletion() — simulated events or real worker
 * threads — is its own business; the session only requires that
 * completions are reported once per subnet with a deterministic loss.
 *
 * Checkpoints are taken at pipeline-drain barriers (injection pauses
 * at nextCkptAt, so finished == nextCkptAt implies inflight == 0).
 * At a drained barrier the entire training state is a pure function
 * of the completed count under CSP, which is why a checkpoint written
 * by one executor resumes bitwise-identically on the other.
 */

#ifndef NASPIPE_SESSION_TRAINING_SESSION_H
#define NASPIPE_SESSION_TRAINING_SESSION_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/recovery_policy.h"
#include "runtime/pipeline_runtime.h"
#include "train/run_checkpoint.h"

namespace naspipe {

/**
 * The capacity plan a run of @p config on @p space executes under —
 * exactly what TrainingSession::initRun() plans. Its fits flag says
 * whether the run is possible at all (the OOM verdict).
 */
CapacityPlan planCapacity(const SearchSpace &space,
                          const RuntimeConfig &config);

/**
 * What an executor must provide to run under a TrainingSession. All
 * calls arrive on the coordinator thread.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /**
     * Extra injection gating before subnet @p next is drawn (the
     * simulator's BSP bulk barrier). Default: always admit.
     */
    virtual bool
    canAdmit(SubnetId next) const
    {
        (void)next;
        return true;
    }

    /**
     * Take ownership of executing subnet @p id. Called after the
     * session has recorded the subnet and partition (subnetOf /
     * partitionOf are valid) and opened its numeric context, so the
     * backend may register dependencies and dispatch immediately.
     */
    virtual void admit(SubnetId id) = 0;

    /**
     * Note that subnet @p id was completed by the checkpointed run
     * being restored: advance whatever executor-local frontiers need
     * to skip past it. The restored store already holds its weight
     * updates; the backend must NOT re-execute anything.
     */
    virtual void restoreCompleted(SubnetId id) = 0;

    /**
     * A fail-stop recovery re-initialized the session: drop the
     * crashed phase's executor state and build the next phase's, so
     * the restoreCompleted() calls that follow find it. Default:
     * nothing to rebuild.
     */
    virtual void restartPhase() {}
};

/**
 * The shared coordinator: sampling/injection order, score delivery,
 * checkpoint cadence, resume/replay, fail-stop rollback, and metrics
 * assembly.
 */
class TrainingSession
{
  public:
    /**
     * @param space the search space (must outlive the session)
     * @param config run configuration (shared with the executors)
     */
    TrainingSession(const SearchSpace &space,
                    const RuntimeConfig &config);

    TrainingSession(const TrainingSession &) = delete;
    TrainingSession &operator=(const TrainingSession &) = delete;

    /** Attach the executor; required before pump()/restore(). */
    void attach(ExecutionBackend *backend) { _backend = backend; }

    /**
     * (Re)initialize one run phase: plan capacity, build the sampler
     * / store / numeric executor / tracker / trace, and clear the
     * per-run state. Cumulative diagnostics (checkpoint and recovery
     * totals, time offsets) survive — recover() re-inits the session
     * without losing them. Returns false when the capacity planner
     * rejects the run (plan() still reports the attempt).
     */
    bool initRun();

    /**
     * Inject as many subnets as every gate allows: the in-flight
     * limit, the checkpoint drain barrier, the backend's own veto,
     * and the feedback lag. Each injected subnet is handed to the
     * backend via admit(). Returns the number injected.
     */
    int pump();

    /**
     * As pump(), but injects at most @p maxCount subnets. The serve
     * layer's cross-job scheduler admits one subnet per scheduling
     * slot (pump(1)) so a weighted round-robin over jobs decides the
     * global interleaving instead of each job greedily filling its
     * window.
     */
    int pump(int maxCount);

    /**
     * Whether pump() would inject at least one subnet right now —
     * the same gate checks (injection budget, in-flight window,
     * checkpoint drain barrier, backend veto, feedback lag) without
     * admitting anything. Not const: due scores are delivered to the
     * sampler, exactly as pump() would before drawing — delivery is
     * uniquely determined by sequence ID, so probing never perturbs
     * the deterministic draw order.
     */
    bool admissible();

    /**
     * Record subnet @p id's completion at absolute time @p atSeconds
     * with training loss @p loss. Updates counters, the convergence
     * tracker and the score buffer (delivering immediately when the
     * feedback lag is 0), and tells the retry policy the run made
     * progress. Returns true when this completion reached a drained
     * checkpoint barrier — the caller should then build and commit a
     * checkpoint before pumping again.
     */
    bool recordCompletion(SubnetId id, float loss, double atSeconds);

    /** @name Feedback-lag-exact score delivery
     * @{ */
    int effectiveFeedbackLag() const;
    void deliverScoresBelow(SubnetId maxIdExclusive);
    /** @} */

    /** @name Drained-checkpoint cadence
     * @{ */
    bool ckptEnabled() const { return _config.ckptInterval > 0; }
    int ckptStride() const;
    int boundaryAfter(int completedCount) const;

    /**
     * Snapshot the drained run state. @p nowSeconds / @p busySeconds
     * are absolute (offset-inclusive) run totals at the barrier.
     */
    RunCheckpoint buildCheckpoint(double nowSeconds,
                                  double busySeconds) const;

    /**
     * Account and persist @p ckpt: serialize it as the in-memory
     * rollback target, write the on-disk copy when configured, and
     * advance the next barrier. Aborts unless the pipeline is
     * drained. Returns the modeled write seconds (checkpoint bytes
     * over the configured bandwidth) the caller may charge.
     */
    double commitCheckpoint(const RunCheckpoint &ckpt);

    /**
     * Rebuild the run state from @p ckpt: load the store and access
     * log, refill losses/scores, re-feed the tracker, and replay the
     * sampler with feedback-lag-faithful score delivery so it draws
     * the exact subnet sequence the checkpointed run drew. The
     * backend sees restoreCompleted() for every restored subnet.
     * Returns false on an incompatible or unreadable checkpoint.
     */
    bool restore(const RunCheckpoint &ckpt);

    /**
     * Start from config.resumePath when it is set: restore that
     * checkpoint and adopt the producing run's time offsets and
     * checkpoint count. True when there is nothing to resume; false,
     * with @p error naming the file, when it cannot be read or
     * restored.
     */
    bool resume(std::string *error);
    /** @} */

    /** @name Fail-stop recovery (the one rollback path)
     * @{ */

    /**
     * Roll back after a fail-stop fault. The caller has discarded
     * every in-flight subnet; @p nowSeconds and @p busySeconds are
     * the absolute (offset-inclusive) run totals at the crash, and
     * @p reason names the fault for the log and the error.
     *
     * When the retry policy refuses another attempt, sets
     * retriesExhausted(), fills @p error and returns false without
     * touching the run. Otherwise charges the attempt: re-inits the
     * session, lets the backend restartPhase(), resumes the clock at
     * @p nowSeconds plus the modeled restart and backoff, restores
     * the last drained checkpoint (subnet 0 without one), and counts
     * the replayed subnets and the busy time lost since that
     * checkpoint. Returns false with @p error set when the restore
     * fails.
     */
    bool recover(double nowSeconds, double busySeconds,
                 const std::string &reason, std::string *error);

    bool retriesExhausted() const { return _retriesExhausted; }
    int recoveries() const { return _recoveries; }
    int subnetsReplayed() const { return _subnetsReplayed; }
    /** Consecutive recoveries since the last completed subnet. */
    int recoveryAttempt() const
    {
        return _policy.consecutiveFailures();
    }
    /** @} */

    /**
     * Assemble the executor-independent half of the result: plan,
     * losses, sampled subnets, store, trace, throughput, memory
     * plan figures, checkpoint accounting, the trailing-window final
     * loss, the convergence curve, the supernet hash, the causal
     * audit, the recovery counters, and the post-training search.
     * @p totalSeconds and @p busyTotal are absolute run totals; the
     * executor then fills in its own timing/cache/fault specifics.
     */
    RunResult collect(double totalSeconds, double busyTotal);

    /** @name Run state accessors
     * @{ */
    const CapacityPlan &plan() const { return _plan; }
    int batch() const { return _batch; }
    double scoreScale() const { return _scoreScale; }
    const ActivationModel &activationModel() const
    {
        return _activation;
    }
    const std::shared_ptr<ParameterStore> &store() const
    {
        return _store;
    }
    NumericExecutor &exec() { return *_exec; }
    ConvergenceTracker &tracker() { return *_tracker; }
    const std::shared_ptr<Trace> &trace() const { return _trace; }

    const Subnet &subnetOf(SubnetId id) const;
    const SubnetPartition &partitionOf(SubnetId id) const;
    /** Stage @p stage's block range under @p id's partition. */
    std::pair<int, int> blockRange(int stage, SubnetId id) const;

    int injected() const { return _injected; }
    int finished() const { return _finished; }
    int inflight() const { return _inflight; }
    int totalSubnets() const { return _config.totalSubnets; }
    int nextCkptAt() const { return _nextCkptAt; }
    double secOffset() const { return _secOffset; }
    double busyOffset() const { return _busyOffset; }
    /** @} */

  private:
    bool compatible(const RunCheckpoint &ckpt) const;
    void setTimeOffsets(double secOffset, double busyOffset);

    const SearchSpace &_space;
    const RuntimeConfig &_config;
    SystemModel _model;
    int _numStages;
    ActivationModel _activation;
    double _scoreScale;
    ExecutionBackend *_backend = nullptr;

    CapacityPlan _plan;
    int _batch = 1;

    std::unique_ptr<SubnetSampler> _sampler;
    std::unique_ptr<Partitioner> _partitioner;
    std::shared_ptr<ParameterStore> _store;
    std::unique_ptr<NumericExecutor> _exec;
    std::unique_ptr<ConvergenceTracker> _tracker;
    std::shared_ptr<Trace> _trace;

    // Sequence IDs are consecutive from 0, so position == ID.
    std::vector<Subnet> _subnets;
    std::vector<SubnetPartition> _partitions;
    std::map<SubnetId, float> _losses;
    std::map<SubnetId, double> _completionSec;
    SubnetId _nextScoreToReport = 0;
    std::map<SubnetId, double> _scoreBuffer;

    int _injected = 0;
    int _finished = 0;
    int _inflight = 0;

    // Checkpoint state. Offsets and the written/bytes/seconds totals
    // are cumulative across recovery phases.
    int _nextCkptAt = 0;
    double _secOffset = 0.0;
    double _busyOffset = 0.0;
    std::string _lastCkpt;
    int _checkpointsWritten = 0;
    std::uint64_t _checkpointBytes = 0;
    double _checkpointSecondsTotal = 0.0;

    // Recovery state, cumulative across phases like the totals above.
    fault::RecoveryPolicy _policy;
    bool _retriesExhausted = false;
    int _recoveries = 0;
    int _subnetsReplayed = 0;
    double _recoverySecondsTotal = 0.0;
    double _lostComputeSeconds = 0.0;
};

} // namespace naspipe

#endif // NASPIPE_SESSION_TRAINING_SESSION_H
