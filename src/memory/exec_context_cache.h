/**
 * @file
 * ExecContextCache: the context manager ported to the threaded
 * executor.
 *
 * The simulator's ContextManager (§3.1, §4.2) is tied to the
 * discrete-event clock and the simulated DMA engines; a StageWorker
 * thread has neither. This class keeps the same resident-set policy —
 * predictor-driven prefetch, hit/miss classification at execution
 * time ("whether an ML layer's parameter was in GPU memory before its
 * execution", Table 2), eviction of a subnet's stage context after
 * its backward pass, and the §4.2 memory-limit check that evicts LRU
 * idle layers before admitting a copy over budget — but replaces
 * simulated time with a monotonic per-worker access counter. The
 * counter gives LRU decisions the same shape the simulator's clock
 * does: layers touched by the task being executed carry the current
 * count and are never victims of that task's own admissions.
 *
 * The cache is pure bookkeeping: parameters actually live in the
 * shared ParameterStore, and nothing here gates execution or
 * synchronizes threads — so residency decisions cannot perturb the
 * bitwise-reproducible training trajectory. Each StageWorker owns one
 * instance and is its only caller; stats are read after join(). The
 * space is passed per call because a pool worker serves the tasks of
 * whichever job they belong to.
 */

#ifndef NASPIPE_MEMORY_EXEC_CONTEXT_CACHE_H
#define NASPIPE_MEMORY_EXEC_CONTEXT_CACHE_H

#include <cstdint>
#include <vector>

#include "memory/context_manager.h"
#include "memory/gpu_memory.h"
#include "schedule/scheduler.h"
#include "supernet/search_space.h"
#include "supernet/subnet.h"

namespace naspipe {

/**
 * Per-worker parameter-residency bookkeeping.
 */
class ExecContextCache
{
  public:
    /**
     * @param mode memory management strategy (AllResident = no-op)
     * @param budgetBytes parameter-cache budget; 0 means unlimited
     */
    ExecContextCache(MemoryMode mode, std::uint64_t budgetBytes);

    MemoryMode mode() const { return _mode; }
    std::uint64_t budgetBytes() const { return _budgetBytes; }

    /**
     * Predictor-driven asynchronous fetch of @p subnet's context for
     * blocks [lo, hi]. No-op outside PredictivePrefetch mode.
     */
    void prefetch(const SearchSpace &space, const Subnet &subnet,
                  int lo, int hi);

    /**
     * Make @p subnet's blocks [lo, hi] resident for execution,
     * classifying each layer as hit (prefetched in time) or miss
     * (synchronous fetch).
     */
    void ensureResident(const SearchSpace &space,
                        const Subnet &subnet, int lo, int hi);

    /**
     * Evict @p subnet's stage context after its backward pass
     * (PredictivePrefetch).
     */
    void evictSubnet(const SearchSpace &space, const Subnet &subnet,
                     int lo, int hi);

    /** Resident-set accounting. */
    const GpuMemoryManager &memory() const { return _memory; }

    const ContextStats &stats() const { return _stats; }

  private:
    void fetchLayer(const LayerId &layer, std::uint64_t bytes);
    void evictLayer(const LayerId &layer);
    void enforceBudget(std::uint64_t incomingBytes);

    MemoryMode _mode;
    std::uint64_t _budgetBytes;
    /// Logical access counter standing in for the simulator clock.
    Tick _clock = 0;
    GpuMemoryManager _memory;
    ContextStats _stats;
    /// SwapOnDemand: layer keys of the previously executed task.
    std::vector<std::uint64_t> _lastTaskKeys;
};

} // namespace naspipe

#endif // NASPIPE_MEMORY_EXEC_CONTEXT_CACHE_H
