#include "serve/pool.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/wall_clock.h"

namespace naspipe {
namespace serve {

SharedStagePool::SharedStagePool(Config config) : _config(config)
{
    NASPIPE_ASSERT(_config.numStages >= 1,
                   "pool needs >= 1 stage, got ", _config.numStages);
    NASPIPE_ASSERT(_config.inboxCapacity >= 1,
                   "pool inbox capacity must be >= 1");
}

SharedStagePool::~SharedStagePool()
{
    if (_started && !_joined)
        abort();
}

void
SharedStagePool::start()
{
    NASPIPE_ASSERT(!_started, "pool already started");
    _completions = std::make_unique<
        BoundedTaskQueue<std::shared_ptr<const SubnetRun>>>(
        _config.inboxCapacity);

    for (int k = 0; k < _config.numStages; k++) {
        _workers.push_back(std::make_unique<StageWorker>(
            k, _config.numStages, _config.inboxCapacity,
            _config.context));
    }
    for (int k = 0; k < _config.numStages; k++) {
        _workers[static_cast<std::size_t>(k)]->connect(
            k + 1 < _config.numStages
                ? _workers[static_cast<std::size_t>(k) + 1].get()
                : nullptr,
            k > 0 ? _workers[static_cast<std::size_t>(k) - 1].get()
                  : nullptr,
            k == 0
                ? [this](std::shared_ptr<const SubnetRun> run) {
                      _completions->push(std::move(run));
                  }
                : std::function<
                      void(std::shared_ptr<const SubnetRun>)>());
    }

    obs::TimePoint epoch = obs::now();
    for (auto &worker : _workers)
        worker->start(epoch, _config.recordTrace);

    // Without the wall deadline there is nothing to detect, so no
    // watchdog thread runs.
    if (_config.wallDeadline)
        startWatchdog();
    _started = true;
}

void
SharedStagePool::startWatchdog()
{
    // Service-level supervision: an incident here means the whole
    // pool hung — never a job fail-stop (those are
    // coordinator-logical). The sentinel lands in the completion
    // queue, where the coordinator already blocks.
    fault::Watchdog::Config wc;
    wc.deadlineSeconds = _config.deadlineSeconds;
    wc.pollMs = _config.watchdogPollMs;
    std::vector<const fault::WorkerHeartbeat *> hearts;
    hearts.reserve(_workers.size());
    for (const auto &worker : _workers)
        hearts.push_back(&worker->heartbeat());
    _watchdog = std::make_unique<fault::Watchdog>(
        wc, std::move(hearts),
        [this](int worker, const std::string &reason) {
            {
                std::lock_guard<RankedMutex> lock(_poolIncidentMu);
                _incidentStage = worker;
                _incidentReason = reason;
            }
            _completions->push(nullptr);
        });
}

void
SharedStagePool::dispatch(std::shared_ptr<const SubnetRun> run)
{
    NASPIPE_ASSERT(_started, "dispatch into a stopped pool");
    NASPIPE_ASSERT(run && run->job,
                   "serve pool tasks must carry a job binding");
    _workers[0]->submit(
        ExecTask{ExecTask::Kind::Forward, std::move(run)});
}

void
SharedStagePool::notifyAll()
{
    for (auto &worker : _workers)
        worker->notify();
}

void
SharedStagePool::perturb(const FaultSpec &fault,
                         const FaultEffect &effect)
{
    NASPIPE_ASSERT(_started, "fault latched into a stopped pool");
    StageWorker &victim =
        *_workers[static_cast<std::size_t>(effect.stage)];
    // Threads have no simulated clock: a stall sleeps through one
    // bounded 1 ms wait per planned millisecond, a degrade slows one
    // executed task per planned millisecond.
    int units = std::max(1, static_cast<int>(fault.durationMs));
    if (effect.kind == FaultEffect::Kind::Stall)
        victim.injectStall(units);
    else if (effect.kind == FaultEffect::Kind::Degrade)
        victim.injectDegrade(units);
}

void
SharedStagePool::stop(bool abandonQueued)
{
    if (!_started || _joined)
        return;
    // Watchdog first: a clean drain flips every heartbeat to Exited,
    // which must not read as an incident.
    _watchdog.reset();
    for (auto &worker : _workers) {
        if (abandonQueued)
            worker->requestAbort();
        else
            worker->requestStop();
    }
    for (auto &worker : _workers)
        worker->join();
    _joined = true;
}

std::string
SharedStagePool::incidentDescription() const
{
    std::lock_guard<RankedMutex> lock(_poolIncidentMu);
    if (_incidentStage < 0)
        return "no incident";
    return "pool stage " + std::to_string(_incidentStage) + ": " +
           _incidentReason;
}

} // namespace serve
} // namespace naspipe
