/**
 * @file
 * Per-worker heartbeats — the supervision layer's view of a stage
 * worker.
 *
 * A heartbeat carries two facts the watchdog may read from any
 * thread: a *logical-progress counter* (tasks executed — the
 * deterministic signal) and a coarse lifecycle *state*. Injected
 * fail-stop faults are job-logical and never stop a worker, so the
 * only thing a watchdog looks for is a hang: no logical progress
 * within a wall deadline. That deadline is opt-in
 * (RuntimeConfig::wallWatchdog, the CLI's --obs-wall), because a
 * timing-based detection can fire at different logical points on
 * different machines.
 */

#ifndef NASPIPE_FAULT_HEARTBEAT_H
#define NASPIPE_FAULT_HEARTBEAT_H

#include <atomic>
#include <cstdint>

namespace naspipe {
namespace fault {

/** Lifecycle of a supervised worker, as its heartbeat reports it. */
enum class WorkerState : int {
    Running = 0,  ///< executing or waiting for work
    Stalled,      ///< sleeping through an injected transient stall
    Exited,       ///< clean exit (drain or abort)
};

/** Printable state name ("running", "stalled", ...). */
const char *workerStateName(WorkerState state);

/**
 * One worker's supervision record. The owning worker writes, the
 * watchdog (and tests) read; both sides use sequentially-consistent
 * atomics — this is cold-path bookkeeping, not the training hot path.
 */
class WorkerHeartbeat
{
  public:
    /** One task boundary passed (forward or backward executed). */
    void beat() { _progress.fetch_add(1); }

    /** Logical-progress counter: tasks executed so far. */
    std::uint64_t progress() const { return _progress.load(); }

    void setState(WorkerState state)
    {
        _state.store(static_cast<int>(state));
    }

    WorkerState state() const
    {
        return static_cast<WorkerState>(_state.load());
    }

  private:
    std::atomic<std::uint64_t> _progress{0};
    std::atomic<int> _state{
        static_cast<int>(WorkerState::Running)};
};

} // namespace fault
} // namespace naspipe

#endif // NASPIPE_FAULT_HEARTBEAT_H
