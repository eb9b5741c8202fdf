/**
 * @file
 * Watchdog — the supervision layer's failure detector.
 *
 * A Watchdog owns one polling thread that scans a set of worker
 * heartbeats for a hang: when the sum of all logical-progress
 * counters stops advancing for longer than the wall deadline, it
 * reports the first worker that has not exited to a callback.
 * Injected fail-stop faults are job-logical and never stop a worker,
 * so a hang is the only incident there is. Wall deadlines are
 * inherently timing-dependent, so owners build a watchdog only when
 * the caller explicitly opted into wall-clock observability
 * (RuntimeConfig::wallWatchdog).
 *
 * The callback fires at most once per Watchdog lifetime: an incident
 * fails the service that owns the workers, so nothing re-arms it.
 */

#ifndef NASPIPE_FAULT_WATCHDOG_H
#define NASPIPE_FAULT_WATCHDOG_H

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "fault/heartbeat.h"
#include "obs/wall_clock.h"

namespace naspipe {
namespace fault {

class Watchdog
{
  public:
    struct Config {
        /** Seconds without any logical progress before the run is
         *  declared hung. */
        double deadlineSeconds = 30.0;
        /** Heartbeat scan period in milliseconds (>= 1; configured
         *  via RuntimeConfig::watchdogPollMs / the CLIs'
         *  --watchdog-interval-ms). */
        int pollMs = 2;
    };

    /** Incident report: victim worker index and a reason string. */
    using IncidentFn =
        std::function<void(int worker, const std::string &reason)>;

    /**
     * Start supervising @p hearts (borrowed; they must outlive the
     * watchdog). @p onIncident is invoked from the watchdog thread,
     * at most once.
     */
    Watchdog(Config config,
             std::vector<const WorkerHeartbeat *> hearts,
             IncidentFn onIncident);

    /** Stops the polling thread and joins it. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Incidents reported so far (0 or 1). */
    int incidents() const;

  private:
    void loop();
    std::uint64_t totalProgress() const;
    /** Scan for an incident; fills @p worker / @p reason. */
    bool detect(int *worker, std::string *reason);

    const Config _config;
    const std::vector<const WorkerHeartbeat *> _hearts;
    const IncidentFn _onIncident;

    mutable RankedMutex _watchdogMu{LockRank::FaultWatchdog};
    std::condition_variable_any _cv;
    bool _stop = false;
    bool _fired = false;
    int _incidents = 0;

    // Hang-deadline tracking (watchdog thread only).
    std::uint64_t _lastProgress = 0;
    obs::TimePoint _lastProgressAt;

    std::thread _thread;
};

} // namespace fault
} // namespace naspipe

#endif // NASPIPE_FAULT_WATCHDOG_H
