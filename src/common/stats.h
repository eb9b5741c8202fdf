/**
 * @file
 * Statistics primitives used across the simulator and the runtime.
 *
 * The evaluation section of the paper reports utilizations, bubble
 * ratios and hit rates; these small classes accumulate them in a
 * deterministic, order-independent-where-possible way.
 */

#ifndef NASPIPE_COMMON_STATS_H
#define NASPIPE_COMMON_STATS_H

#include <cstdint>
#include <limits>

namespace naspipe {

/**
 * Busy/idle interval tracker for a resource (GPU ALU, copy engine).
 *
 * Intervals are accumulated as (start, end) pairs in simulated time;
 * utilization() is busy time over a window, and bubbleRatio() is the
 * paper's bubble metric: idle fraction of the active window between
 * the first task start and the last task end.
 */
class UtilizationTracker
{
  public:
    /** Record one busy interval [start, end). */
    void addBusy(double start, double end);

    /** Total busy time accumulated. */
    double busyTime() const { return _busy; }

    /** First recorded busy start (0 if none). */
    double firstStart() const;

    /** Last recorded busy end (0 if none). */
    double lastEnd() const;

    /** Busy fraction of [0, @p windowEnd]. */
    double utilization(double windowEnd) const;

    /** Idle fraction of [firstStart, lastEnd]. */
    double bubbleRatio() const;

    /** Number of recorded intervals. */
    std::uint64_t intervals() const { return _intervals; }

    void reset();

  private:
    double _busy = 0.0;
    double _first = std::numeric_limits<double>::infinity();
    double _last = 0.0;
    std::uint64_t _intervals = 0;
};

/** Hit/miss ratio accumulator (cache-hit rate of Table 2). */
class RatioStat
{
  public:
    void hit(std::uint64_t n = 1) { _hits += n; }
    void miss(std::uint64_t n = 1) { _misses += n; }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t total() const { return _hits + _misses; }

    /** Hits over total; 0 when empty. */
    double rate() const;

    void reset();

  private:
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace naspipe

#endif // NASPIPE_COMMON_STATS_H
