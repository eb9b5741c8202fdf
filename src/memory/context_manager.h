/**
 * @file
 * Context manager: the per-stage process that keeps the right layer
 * parameters on the GPU (§3.1, §4.2).
 *
 * The manager owns the stage's resident-set bookkeeping and the DMA
 * traffic. Under PredictivePrefetch (NASPipe) it asynchronously
 * fetches the contexts the predictor requests and evicts a subnet's
 * stage context right after its backward pass. Under SwapOnDemand
 * (VPipe) there is no lookahead: the missing context is swapped in
 * synchronously when execution reaches it, after evicting the
 * previous task's context. Under AllResident (GPipe/PipeDream and
 * the w/o-predictor ablation) everything lives on the GPU and the
 * manager is a no-op.
 *
 * Both executors run this one policy. Every call names the search
 * space and the current tick. The simulator passes sim.now() and its
 * stage GPU, so copies occupy the H2D/D2H engines and ensureResident
 * returns when they land. A threaded StageWorker passes a per-worker
 * access counter and no GPU: copies land at `now`, and the counter
 * gives LRU decisions the same shape the simulator's clock does —
 * layers touched by the task being executed carry the current tick
 * and are never victims of that task's own admissions. Without a GPU
 * the manager is pure bookkeeping: parameters live in the shared
 * ParameterStore and nothing here gates execution, so residency
 * cannot perturb the bitwise-reproducible trajectory. The space is
 * passed per call because a pool worker serves several jobs.
 */

#ifndef NASPIPE_MEMORY_CONTEXT_MANAGER_H
#define NASPIPE_MEMORY_CONTEXT_MANAGER_H

#include <cstdint>
#include <vector>

#include "hw/gpu.h"
#include "memory/gpu_memory.h"
#include "runtime/metrics.h"
#include "schedule/scheduler.h"
#include "supernet/search_space.h"
#include "supernet/subnet.h"

namespace naspipe {

/** DMA and hit-rate statistics of one stage's context manager. */
struct ContextStats {
    std::uint64_t prefetchedBytes = 0;
    std::uint64_t syncFetchedBytes = 0;
    std::uint64_t evictedBytes = 0;
    std::uint64_t prefetchRequests = 0;
    std::uint64_t syncFetches = 0;
    /// LRU evictions forced by the memory-limit check (§4.2).
    std::uint64_t forcedEvictions = 0;
    /// Copies admitted above budget because nothing was evictable.
    std::uint64_t overBudgetFetches = 0;
};

/**
 * Per-stage context manager.
 */
class ContextManager
{
  public:
    /**
     * @param mode memory management strategy
     * @param budgetBytes parameter-cache budget; "NASPipe invokes a
     *        GPU memory limit checking before it copies an operator
     *        to GPU" (§4.2) — a copy that would exceed the budget
     *        first evicts least-recently-used idle layers. 0 means
     *        unlimited.
     * @param gpu the stage's GPU, whose DMA engines carry the copies;
     *        nullptr makes every copy land at the tick it is issued
     */
    ContextManager(MemoryMode mode, std::uint64_t budgetBytes = 0,
                   Gpu *gpu = nullptr);

    MemoryMode mode() const { return _mode; }
    std::uint64_t budgetBytes() const { return _budgetBytes; }

    /**
     * Predictor-driven asynchronous fetch of @p subnet's context for
     * blocks [lo, hi] at tick @p now. No-op outside
     * PredictivePrefetch mode.
     */
    void prefetch(const SearchSpace &space, const Subnet &subnet,
                  int lo, int hi, Tick now);

    /**
     * Make @p subnet's blocks [lo, hi] resident for execution at tick
     * @p now. Classifies each layer as hit/miss, issues synchronous
     * fetches for misses, and returns the tick at which every layer
     * is usable.
     */
    Tick ensureResident(const SearchSpace &space, const Subnet &subnet,
                        int lo, int hi, Tick now);

    /**
     * Evict @p subnet's stage context after its backward pass
     * (PredictivePrefetch); parameters are dirty, so the copy-back
     * occupies the D2H engine.
     */
    void evictSubnet(const SearchSpace &space, const Subnet &subnet,
                     int lo, int hi, Tick now);

    /** Resident-set accounting. */
    const GpuMemoryManager &memory() const { return _memory; }

    const ContextStats &stats() const { return _stats; }

  private:
    Tick fetchLayer(const LayerId &layer, std::uint64_t bytes,
                    Tick now);
    void evictLayer(const LayerId &layer, Tick now);
    void enforceBudget(std::uint64_t incomingBytes, Tick now);

    MemoryMode _mode;
    std::uint64_t _budgetBytes;
    Gpu *_gpu;
    GpuMemoryManager _memory;
    ContextStats _stats;
    /// SwapOnDemand: layer keys of the previously executed task.
    std::vector<std::uint64_t> _lastTaskKeys;
};

/**
 * Fold every stage's context-manager accounting into @p m: summed
 * DMA bytes, the largest resident set, the budget and the pooled
 * hit rate. AllResident runs have no cache and leave @p m untouched.
 */
void addContextStats(const std::vector<const ContextManager *> &stages,
                     RunMetrics &m);

} // namespace naspipe

#endif // NASPIPE_MEMORY_CONTEXT_MANAGER_H
