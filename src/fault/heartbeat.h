/**
 * @file
 * Per-worker heartbeats — the supervision layer's view of a stage
 * worker.
 *
 * A heartbeat carries two facts the watchdog may read from any
 * thread: a *logical-progress counter* (tasks executed — the
 * deterministic signal) and a coarse lifecycle *state*. Crash
 * detection is purely state-based: a worker that dies marks itself
 * Crashed, and the watchdog reacts to the flag, never to elapsed
 * time (injected fail-stop faults are job-logical and never stop a
 * worker). Wall-clock hang deadlines exist too but are opt-in
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
    Crashed,      ///< the worker died (a defect); inbox abandoned
    Exited,       ///< clean exit (drain or abort)
};

/** Printable state name ("running", "crashed", ...). */
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
