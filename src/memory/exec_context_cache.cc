#include "memory/exec_context_cache.h"

#include <algorithm>

namespace naspipe {

ExecContextCache::ExecContextCache(MemoryMode mode,
                                   std::uint64_t budgetBytes)
    : _mode(mode), _budgetBytes(budgetBytes)
{
}

void
ExecContextCache::enforceBudget(std::uint64_t incomingBytes)
{
    if (_budgetBytes == 0)
        return;
    // The §4.2 memory-limit check: before copying an operator in,
    // make room by pushing out least-recently-used layers that are
    // not in use at this instant.
    while (_memory.residentBytes() + incomingBytes > _budgetBytes) {
        LayerId victim;
        if (!_memory.lruVictim(victim, _clock)) {
            // Everything resident is in use right now; admit over
            // budget rather than deadlock.
            _stats.overBudgetFetches++;
            return;
        }
        evictLayer(victim);
        _stats.forcedEvictions++;
    }
}

void
ExecContextCache::fetchLayer(const LayerId &layer,
                             std::uint64_t bytes)
{
    enforceBudget(bytes);
    _memory.admit(layer, bytes, _clock);
}

void
ExecContextCache::evictLayer(const LayerId &layer)
{
    _stats.evictedBytes += _memory.evict(layer);
}

void
ExecContextCache::prefetch(const SearchSpace &space,
                           const Subnet &subnet, int lo, int hi)
{
    if (_mode != MemoryMode::PredictivePrefetch)
        return;
    _clock++;
    _stats.prefetchRequests++;
    for (int b = lo; b <= hi; b++) {
        std::uint64_t bytes =
            space.spec(b, subnet.choice(b)).paramBytes;
        if (bytes == 0)
            continue;  // skip candidates have no context
        LayerId layer = subnet.layer(b);
        if (_memory.tracked(layer))
            continue;
        fetchLayer(layer, bytes);
        _stats.prefetchedBytes += bytes;
    }
}

void
ExecContextCache::ensureResident(const SearchSpace &space,
                                 const Subnet &subnet, int lo, int hi)
{
    if (_mode == MemoryMode::AllResident)
        return;

    // VPipe behaviour: before switching to the new task's context,
    // push out the previous task's layers that it does not reuse.
    if (_mode == MemoryMode::SwapOnDemand && !_lastTaskKeys.empty()) {
        std::vector<std::uint64_t> needed;
        needed.reserve(static_cast<std::size_t>(hi - lo + 1));
        for (int b = lo; b <= hi; b++)
            needed.push_back(subnet.layer(b).key());
        std::sort(needed.begin(), needed.end());
        for (std::uint64_t key : _lastTaskKeys) {
            if (!std::binary_search(needed.begin(), needed.end(),
                                    key)) {
                LayerId layer{
                    static_cast<std::uint32_t>(key >> 32),
                    static_cast<std::uint32_t>(key & 0xffffffffULL)};
                evictLayer(layer);
            }
        }
        _lastTaskKeys.clear();
    }

    // One logical instant for the whole task, exactly like the
    // simulator's ensureResident at sim.now(): every layer this task
    // touches carries the same count, so none of them can be evicted
    // to make room for a sibling layer of the same task.
    _clock++;
    Tick now = _clock;
    for (int b = lo; b <= hi; b++) {
        std::uint64_t bytes =
            space.spec(b, subnet.choice(b)).paramBytes;
        if (bytes == 0)
            continue;  // skip candidates have no context
        LayerId layer = subnet.layer(b);
        if (_memory.tracked(layer)) {
            // Tracked means the predictor anticipated this layer —
            // no synchronous swap-in stalls the stage, the event the
            // cache-hit metric counts (§3.3).
            _memory.hitStats().hit();
        } else {
            _memory.hitStats().miss();
            fetchLayer(layer, bytes);
            _stats.syncFetches++;
            _stats.syncFetchedBytes += bytes;
        }
        _memory.touch(layer, now);
    }

    if (_mode == MemoryMode::SwapOnDemand) {
        _lastTaskKeys.clear();
        for (int b = lo; b <= hi; b++)
            _lastTaskKeys.push_back(subnet.layer(b).key());
        std::sort(_lastTaskKeys.begin(), _lastTaskKeys.end());
    }
}

void
ExecContextCache::evictSubnet(const SearchSpace &space,
                              const Subnet &subnet, int lo, int hi)
{
    if (_mode != MemoryMode::PredictivePrefetch)
        return;
    for (int b = lo; b <= hi; b++) {
        if (space.spec(b, subnet.choice(b)).paramBytes > 0)
            evictLayer(subnet.layer(b));
    }
}

} // namespace naspipe
