#include "serve/job.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "schedule/scheduler.h"
#include "supernet/search_space.h"
#include "train/run_checkpoint.h"

namespace naspipe {
namespace serve {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Admitted:
        return "admitted";
    case JobState::Running:
        return "running";
    case JobState::Recovering:
        return "recovering";
    case JobState::Draining:
        return "draining";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    }
    return "?";
}

bool
jobTransitionAllowed(JobState from, JobState to)
{
    switch (from) {
    case JobState::Queued:
        return to == JobState::Admitted || to == JobState::Failed;
    case JobState::Admitted:
        return to == JobState::Running || to == JobState::Failed;
    case JobState::Running:
        return to == JobState::Draining ||
               to == JobState::Recovering || to == JobState::Done ||
               to == JobState::Failed;
    case JobState::Draining:
        return to == JobState::Recovering ||
               to == JobState::Done || to == JobState::Failed;
    case JobState::Recovering:
        return to == JobState::Running || to == JobState::Failed;
    case JobState::Done:
    case JobState::Failed:
        return false;  // terminal
    }
    return false;
}

bool
validateJobSpec(const JobSpec &spec, std::string *why)
{
    auto reject = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    std::vector<std::string> names = defaultSpaceNames();
    if (std::find(names.begin(), names.end(), spec.space) ==
        names.end())
        return reject("unknown search space '" + spec.space + "'");
    if (spec.steps < 1)
        return reject("steps must be >= 1");
    if (spec.priority < 1)
        return reject("priority must be >= 1");
    if (spec.ckptInterval < 0)
        return reject("ckpt interval must be >= 0");
    if (spec.recoveryRetries < 0)
        return reject("retries must be >= 0");
    if (spec.maxInflight < 0)
        return reject("window must be >= 0");
    for (const FaultSpec &f : spec.faults) {
        if (!faultIsFailStop(f.kind)) {
            return reject(
                "transient fault '" + f.describe() +
                "' is not job-scoped: on a shared pool a "
                "stall/degrade would perturb every tenant");
        }
        if (f.atStep < 1)
            return reject("fault step must be >= 1");
    }
    return true;
}

bool
parseJobSpec(const std::string &text, JobSpec &out,
             std::string *why)
{
    auto reject = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    JobSpec spec;
    std::istringstream in(text);
    std::string token;
    while (std::getline(in, token, ',')) {
        if (token.empty())
            continue;
        std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            return reject("job spec token '" + token +
                          "' is not key=value");
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        if (value.empty())
            return reject("job spec key '" + key +
                          "' has an empty value");
        try {
            if (key == "name") {
                spec.name = value;
            } else if (key == "space") {
                spec.space = value;
            } else if (key == "seed") {
                spec.seed = std::stoull(value);
            } else if (key == "steps") {
                spec.steps = std::stoi(value);
            } else if (key == "priority") {
                spec.priority = std::stoi(value);
            } else if (key == "ckpt") {
                spec.ckptInterval = std::stoi(value);
            } else if (key == "ckpt-path") {
                spec.ckptPath = value;
            } else if (key == "retries") {
                spec.recoveryRetries = std::stoi(value);
            } else if (key == "window") {
                spec.maxInflight = std::stoi(value);
            } else if (key == "precision") {
                if (!kernels::parsePrecisionMode(value,
                                                 spec.precision))
                    return reject("bad precision '" + value +
                                  "' (want fp32 or fp16)");
            } else if (key == "fault") {
                FaultSpec f;
                std::string err;
                if (!parseFaultSpec(value, f, &err))
                    return reject("bad fault '" + value + "': " +
                                  err);
                spec.faults.push_back(f);
            } else {
                return reject("unknown job spec key '" + key + "'");
            }
        } catch (const std::exception &) {
            return reject("job spec key '" + key +
                          "' has a non-numeric value '" + value +
                          "'");
        }
    }
    out = std::move(spec);
    return true;
}

RuntimeConfig
jobRuntimeConfig(const JobSpec &spec, int numStages)
{
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = numStages;
    config.totalSubnets = spec.steps;
    config.seed = spec.seed;
    config.numeric = true;
    config.ckptInterval = spec.ckptInterval;
    config.ckptPath = spec.ckptPath;
    config.faults = spec.faults;
    config.recoveryMaxRetries = spec.recoveryRetries;
    config.precision = spec.precision;
    // A missing file is a fresh start; an unreadable or mismatched
    // one fails the job at start() rather than silently retraining
    // from subnet 0.
    if (!spec.ckptPath.empty() && std::ifstream(spec.ckptPath).good())
        config.resumePath = spec.ckptPath;
    return config;
}

ServeJob::ServeJob(int id, JobSpec spec, const SearchSpace &space,
                   RuntimeConfig config)
    : _id(id), _spec(std::move(spec)), _space(space),
      _config(std::move(config)), _session(_space, _config),
      _injector(_config.faults),
      _policy(fault::RecoveryPolicy::Config{
          _config.recoveryMaxRetries, _config.recoveryBackoffSeconds,
          60.0})
{
    NASPIPE_ASSERT(_config.numStages >= 1,
                   "job needs >= 1 pool stage");
    _session.attach(this);
}

bool
ServeJob::canAdmit(SubnetId next) const
{
    (void)next;
    // The session already enforces the system in-flight window; the
    // spec's own cap narrows it per job (a small window is how a
    // low-priority tenant bounds its pool share).
    if (_spec.maxInflight > 0 &&
        _session.inflight() >= _spec.maxInflight)
        return false;
    return true;
}

void
ServeJob::admit(SubnetId id)
{
    const Subnet &sn = _session.subnetOf(id);
    auto run = std::make_shared<SubnetRun>();
    run->subnet = sn;
    run->partition = _session.partitionOf(id);
    run->job = &_binding;
    // The scheduler-assigned global ticket: pool workers order their
    // forward queues by it, so the cross-job interleaving is decided
    // here (deterministically), not by arrival timing.
    run->ticket = _nextTicket;
    // Registration precedes dispatch: the job's causal chains are
    // complete for this subnet before any worker resolves a claim.
    for (int b = 0; b < sn.size(); b++) {
        if (_space.parameterized(b, sn.choice(b)))
            _gate->registerActivation(sn.layer(b).key(), sn.id());
    }
    _hooks.dispatch(std::move(run));
}

void
ServeJob::restoreCompleted(SubnetId id)
{
    // Restored subnets are deliberately NOT registered in the gate,
    // so the live run's causal chains start fresh at rank 0 and the
    // CspOracle's commit-monotonicity check stays valid.
    (void)id;
}

bool
ServeJob::start(PoolHooks hooks)
{
    NASPIPE_ASSERT(_state == JobState::Queued,
                   "start() on a non-queued job (", _id, ")");
    NASPIPE_ASSERT(hooks.dispatch && hooks.clock,
                   "job needs pool dispatch and clock hooks");
    _hooks = std::move(hooks);
    if (!_session.initRun()) {
        fail("capacity planner rejected the job (space " +
             _space.name() + " does not fit " +
             std::to_string(_config.numStages) + " stages)");
        return false;
    }
    // Resume: restart the trajectory from the checkpoint's drained
    // barrier; the resumed run lands on the uninterrupted run's bits.
    if (!_config.resumePath.empty()) {
        RunCheckpoint ckpt;
        if (!ckpt.loadFile(_config.resumePath) ||
            !_session.restore(ckpt)) {
            fail("cannot resume from checkpoint '" +
                 _config.resumePath + "'");
            return false;
        }
        _session.setTimeOffsets(ckpt.simSeconds, ckpt.busySeconds);
        _session.setCheckpointsWritten(
            static_cast<int>(ckpt.checkpointsWritten));
        inform("job ", _id, ": resumed from '", _config.resumePath,
               "' at ", ckpt.completed, " completed subnets");
    }
    // Pre-materialize: after this, worker threads only ever look up
    // existing entries, so the store's maps need no structural
    // locking on the hot path.
    _session.store()->materializeAll();
    rebuildGate();
    _startedAt = _hooks.clock();
    _phaseStart = _startedAt;
    setState(JobState::Admitted);
    if (_session.finished() == _session.totalSubnets()) {
        // Resumed at the final barrier: nothing is left to train.
        setState(JobState::Running);
        finish();
    }
    return true;
}

bool
ServeJob::pumpOne(std::uint64_t ticket)
{
    NASPIPE_ASSERT(_state == JobState::Admitted ||
                       _state == JobState::Running,
                   "pumpOne() on job ", _id, " in state ",
                   jobStateName(_state));
    _nextTicket = ticket;
    int injected = _session.pump(1);
    if (injected > 0 && _state == JobState::Admitted)
        setState(JobState::Running);
    refreshDrainState();
    return injected > 0;
}

bool
ServeJob::admissible()
{
    if (_state != JobState::Admitted && _state != JobState::Running)
        return false;
    return _session.admissible();
}

void
ServeJob::applyCompletion(const std::shared_ptr<const SubnetRun> &run)
{
    NASPIPE_ASSERT(_state == JobState::Running ||
                       _state == JobState::Draining,
                   "completion for job ", _id, " in state ",
                   jobStateName(_state));
    float loss = 0.0f;
    if (_config.numeric)
        loss = _session.exec().finishSubnet(run->subnet);
    bool atBarrier = _session.recordCompletion(
        run->subnet.id(), loss,
        _session.secOffset() + (_hooks.clock() - _phaseStart));
    fireFaults();
    if (_failStopPending)
        return;  // no checkpoint at a crash-coincident barrier

    _policy.noteProgress();
    if (atBarrier) {
        // Drained by construction: injection paused at nextCkptAt.
        // Threaded checkpoints carry wall-clock seconds and no live
        // busy accounting.
        RunCheckpoint ckpt = _session.buildCheckpoint(
            _session.secOffset() + (_hooks.clock() - _phaseStart),
            _session.busyOffset());
        _session.commitCheckpoint(ckpt);
    }
    if (_session.finished() == _session.totalSubnets())
        finish();
    else
        refreshDrainState();
}

void
ServeJob::fireFaults()
{
    // The job's fault plan runs on the job's own logical clock (its
    // completion count) — neighbors never advance it.
    for (const FaultSpec &f : _injector.due(_session.finished())) {
        inform("job ", _id, ": fault injected: ", f.describe());
        _faultRecords.push_back(faultRecord(
            f, _config.numStages,
            ticksFromSec(_hooks.clock() - _startedAt)));
        FaultEffect effect = resolveFault(f, _config.numStages);
        if (effect.kind != FaultEffect::Kind::FailStop) {
            if (_hooks.perturb)
                _hooks.perturb(f, effect);  // transient, or a no-op
        } else if (!_failStopPending) {
            beginFailStop("injected fault: " + f.describe(),
                          effect.stage);
        }
    }
}

bool
ServeJob::noteStragglerDropped()
{
    NASPIPE_ASSERT(_state == JobState::Recovering,
                   "straggler drop for job ", _id, " in state ",
                   jobStateName(_state));
    NASPIPE_ASSERT(_pendingDrain > 0,
                   "job ", _id, " drained more stragglers than it "
                   "had in flight");
    _pendingDrain--;
    return _pendingDrain == 0;
}

bool
ServeJob::recover()
{
    NASPIPE_ASSERT(_state == JobState::Recovering &&
                       _pendingDrain == 0,
                   "recover() before job ", _id, " drained");
    if (_cancelRequested) {
        fail("cancelled");
        return false;
    }
    if (!_policy.allowRetry()) {
        _retriesExhausted = true;
        fail("recovery retries exhausted after " +
             std::to_string(_policy.consecutiveFailures() + 1) +
             " consecutive failures (" + _failStopReason + ")");
        return false;
    }

    double now = _hooks.clock();
    double wallAtCrash = _session.secOffset() + (now - _phaseStart);
    RunCheckpoint ckpt;
    bool haveCkpt = false;
    if (!_session.lastCheckpoint().empty()) {
        std::istringstream in(_session.lastCheckpoint());
        bool ok = ckpt.load(in);
        NASPIPE_ASSERT(ok, "in-memory checkpoint unreadable");
        haveCkpt = true;
    }
    _recoveries++;
    _subnetsReplayed +=
        _session.finished() - static_cast<int>(ckpt.completed);
    // Everything the workers ran for the crashed phase is lost: the
    // rollback discards it and the replay runs it again.
    _lostComputeSeconds += phaseBusySeconds();
    // Modeled, not slept: detection + restart plus the policy's
    // exponential backoff are charged into the run's time offsets.
    double backoff = _policy.nextBackoffSeconds();
    _recoverySecondsTotal += _config.recoverySeconds + backoff;
    inform("job ", _id, " recovering (", _failStopReason,
           "): rollback from ", _session.finished(), " to ",
           ckpt.completed, " completed subnets (",
           _session.finished() - static_cast<int>(ckpt.completed),
           " to replay, attempt ", _policy.consecutiveFailures(),
           ")");

    if (!_session.initRun()) {
        fail("recovery re-plan failed");  // cannot happen: fit before
        return false;
    }
    _session.setTimeOffsets(
        wallAtCrash + _config.recoverySeconds + backoff,
        ckpt.busySeconds);
    if (haveCkpt && !_session.restore(ckpt)) {
        fail("recovery from the last checkpoint failed");
        return false;
    }
    // restore() drops version-map entries of layers restored at
    // version 0; re-materialize so the hot path stays structurally
    // read-only for the workers.
    _session.store()->materializeAll();
    // Fresh job gate: this job's causal chains restart at rank 0.
    // The shared workers and every other tenant's gate are untouched.
    rebuildGate();
    _faultRecords.push_back(TraceRecord{
        ticksFromSec(now - _startedAt), ticksFromSec(now - _startedAt),
        _failStopStage, TraceKind::Recovery, -1,
        "rollback to " + std::to_string(ckpt.completed) +
            ", attempt " +
            std::to_string(_policy.consecutiveFailures())});
    if (_config.recoveryObserver)
        _config.recoveryObserver(_recoveries);
    _failStopPending = false;
    _phaseStart = now;
    _phaseBusyNs = _binding.busyNs.load();
    setState(JobState::Running);
    return true;
}

void
ServeJob::requestCancel()
{
    switch (_state) {
    case JobState::Queued:
    case JobState::Admitted:
        fail("cancelled");
        return;
    case JobState::Running:
    case JobState::Draining:
        _cancelRequested = true;
        // Drain like a fail-stop: in-flight stragglers are dropped,
        // then recover() observes the cancel and fails the job.
        beginFailStop("cancelled", 0);
        return;
    case JobState::Recovering:
        _cancelRequested = true;
        return;
    case JobState::Done:
    case JobState::Failed:
        return;  // already terminal
    }
}

void
ServeJob::refreshDrainState()
{
    if (_state == JobState::Running &&
        _session.injected() == _session.totalSubnets() &&
        _session.inflight() > 0)
        setState(JobState::Draining);
}

void
ServeJob::fail(const std::string &reason)
{
    _result.failed = true;
    _result.retriesExhausted = _retriesExhausted;
    _result.error = reason;
    _result.plan = _session.plan();
    setState(JobState::Failed);
}

int
ServeJob::window() const
{
    int limit =
        _config.system.effectiveInflight(_config.numStages);
    if (_spec.maxInflight > 0)
        limit = std::min(limit, _spec.maxInflight);
    return limit;
}

void
ServeJob::setState(JobState next)
{
    NASPIPE_ASSERT(jobTransitionAllowed(_state, next),
                   "illegal job state transition ",
                   jobStateName(_state), " -> ",
                   jobStateName(next), " (job ", _id, ")");
    _state = next;
}

void
ServeJob::rebuildGate()
{
    _gate = std::make_unique<CommitGate>();
    if (_hooks.wakeAll)
        _gate->onCommit(_hooks.wakeAll);
    if (_config.commitObserver)
        _gate->onCommitEvent(_config.commitObserver);
    _binding.jobId = _id;
    _binding.space = &_space;
    _binding.gate = _gate.get();
    _binding.exec = _config.numeric ? &_session.exec() : nullptr;
}

void
ServeJob::beginFailStop(const std::string &reason, int stage)
{
    _failStopPending = true;
    _failStopReason = reason;
    _failStopStage = stage;
    _pendingDrain = _session.inflight();
    setState(JobState::Recovering);
}

double
ServeJob::phaseBusySeconds() const
{
    // Every task of this job has completed (or drained) by the time
    // the coordinator asks, so every worker's add is in the count.
    return static_cast<double>(_binding.busyNs.load() - _phaseBusyNs) *
           1e-9;
}

void
ServeJob::finish()
{
    _finishedAt = _hooks.clock();
    setState(JobState::Done);
}

void
ServeJob::collectResult()
{
    NASPIPE_ASSERT(_state == JobState::Done,
                   "collectResult() on job ", _id, " in state ",
                   jobStateName(_state));
    _result = _session.collect(
        _session.secOffset() + (_finishedAt - _phaseStart),
        _session.busyOffset() + phaseBusySeconds());
    RunMetrics &m = _result.metrics;
    // wallSeconds is this process's real run time after set-up;
    // simSeconds (set by the session) additionally carries the
    // producing run's seconds across a resume.
    m.wallSeconds = _finishedAt - _startedAt;
    m.execWorkers = _config.numStages;
    m.gateCommits = _gate->commits();
    m.faultsInjected = _injector.firedCount();
    m.recoveries = _recoveries;
    m.subnetsReplayed = _subnetsReplayed;
    m.recoverySeconds = _recoverySecondsTotal;
    m.lostComputeSeconds = _lostComputeSeconds;
    for (const TraceRecord &rec : _faultRecords)
        _result.trace->add(rec);
}

} // namespace serve
} // namespace naspipe
