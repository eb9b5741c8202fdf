#include "fault/watchdog.h"

#include <chrono>

#include "common/logging.h"

namespace naspipe {
namespace fault {

const char *
workerStateName(WorkerState state)
{
    switch (state) {
    case WorkerState::Running:
        return "running";
    case WorkerState::Stalled:
        return "stalled";
    case WorkerState::Exited:
        return "exited";
    }
    return "?";
}

Watchdog::Watchdog(Config config,
                   std::vector<const WorkerHeartbeat *> hearts,
                   IncidentFn onIncident)
    : _config(config), _hearts(std::move(hearts)),
      _onIncident(std::move(onIncident))
{
    NASPIPE_ASSERT(!_hearts.empty(), "watchdog needs >= 1 heartbeat");
    NASPIPE_ASSERT(_onIncident, "watchdog needs an incident sink");
    NASPIPE_ASSERT(_config.pollMs >= 1,
                   "watchdog poll cadence must be >= 1 ms, got ",
                   _config.pollMs);
    _lastProgress = totalProgress();
    _lastProgressAt = obs::now();
    _thread = std::thread([this] { loop(); });
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<RankedMutex> lock(_watchdogMu);
        _stop = true;
    }
    _cv.notify_one();
    if (_thread.joinable())
        _thread.join();
}

int
Watchdog::incidents() const
{
    std::lock_guard<RankedMutex> lock(_watchdogMu);
    return _incidents;
}

std::uint64_t
Watchdog::totalProgress() const
{
    std::uint64_t total = 0;
    for (const WorkerHeartbeat *h : _hearts)
        total += h->progress();
    return total;
}

bool
Watchdog::detect(int *worker, std::string *reason)
{
    std::uint64_t progress = totalProgress();
    if (progress != _lastProgress) {
        _lastProgress = progress;
        _lastProgressAt = obs::now();
        return false;
    }
    if (obs::secondsSince(_lastProgressAt) <= _config.deadlineSeconds)
        return false;
    // Declare the first worker that is still nominally alive hung;
    // with every stage quiet there is no better localization than
    // "somebody stopped making logical progress".
    *worker = 0;
    for (std::size_t i = 0; i < _hearts.size(); i++) {
        if (_hearts[i]->state() != WorkerState::Exited) {
            *worker = static_cast<int>(i);
            break;
        }
    }
    *reason = "no logical progress within the wall deadline";
    return true;
}

void
Watchdog::loop()
{
    std::unique_lock<RankedMutex> lock(_watchdogMu);
    while (!_stop) {
        _cv.wait_for(lock,
                     std::chrono::milliseconds(_config.pollMs));
        if (_stop || _fired)
            continue;
        lock.unlock();
        int worker = -1;
        std::string reason;
        bool incident = detect(&worker, &reason);
        lock.lock();
        if (incident && !_fired && !_stop) {
            _fired = true;
            _incidents++;
            lock.unlock();
            _onIncident(worker, reason);
            lock.lock();
        }
    }
}

} // namespace fault
} // namespace naspipe
