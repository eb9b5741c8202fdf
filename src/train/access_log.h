/**
 * @file
 * Per-layer parameter access log.
 *
 * Records every READ (forward pass) and WRITE (backward pass /
 * optimizer step) of each candidate layer's parameters in global
 * order. Table 4 of the paper is a rendering of exactly this log for
 * one layer ("2F-2B-5F-5B-7F-7B"), and the CSP correctness tests
 * verify sequential equivalence on it: for every layer, the log must
 * equal the one produced by training the subnets one at a time in
 * sequence order.
 */

#ifndef NASPIPE_TRAIN_ACCESS_LOG_H
#define NASPIPE_TRAIN_ACCESS_LOG_H

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "supernet/layer.h"
#include "supernet/layer_table.h"
#include "supernet/subnet.h"

namespace naspipe {

class SearchSpace;

/** Kind of parameter access. */
enum class AccessKind {
    Read,   ///< forward pass
    Write,  ///< backward pass with optimizer step
};

/** One access record. */
struct AccessRecord {
    std::uint64_t order = 0;  ///< global monotonic sequence
    SubnetId subnet = -1;
    AccessKind kind = AccessKind::Read;
    /**
     * Pipeline stage that issued the access, or -1 when the caller
     * has no stage notion (sequential reference runs, deferred bulk
     * flushes). Diagnostic only — the CspOracle uses it to localize
     * violation reports — and deliberately *not* serialized, so the
     * run-checkpoint payload format is unchanged.
     */
    int stage = -1;
};

/**
 * Access log over all layers.
 */
class AccessLog
{
  public:
    /** A log that accepts any layer. */
    AccessLog() = default;

    /** A log of a numBlocks x choicesPerBlock space's layers. */
    AccessLog(int numBlocks, int choicesPerBlock)
        : _history(numBlocks, choicesPerBlock)
    {
    }

    /** Enable/disable recording (on by default). */
    void enabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /** Record an access to @p layer by @p subnet on @p stage. */
    void record(const LayerId &layer, SubnetId subnet, AccessKind kind,
                int stage = -1);

    /** Accesses of one layer in global order. */
    const std::vector<AccessRecord> &layerHistory(
        const LayerId &layer) const;

    /**
     * Table 4 rendering for one layer: "2F-2B-5F-5B-7F-7B" (nF =
     * read by subnet n's forward, nB = written by its backward).
     */
    std::string renderOrder(const LayerId &layer) const;

    /**
     * Whether @p layer's history is *sequentially equivalent*: its
     * accesses appear as R,W pairs in strictly ascending subnet
     * order (what training one subnet at a time would produce).
     */
    bool sequentiallyEquivalent(const LayerId &layer) const;

    /** All layers with at least one access. */
    std::vector<LayerId> touchedLayers() const;

    /** True if every touched layer is sequentially equivalent. */
    bool allSequentiallyEquivalent() const;

    /** Total records over all layers. */
    std::uint64_t totalRecords() const { return _nextOrder; }

    /**
     * Serialize the full log (sequence counter plus every per-layer
     * history) into @p out. Part of the run-checkpoint payload so a
     * recovered run reproduces the uninterrupted run's Table 4
     * renderings exactly.
     */
    void saveTo(std::ostream &out) const;

    /**
     * Replace this log's contents with a stream written by saveTo()
     * for a store over @p space. Returns false (leaving the log
     * cleared) on truncated or malformed input, including a layer
     * outside @p space, a layer listed twice or a layer without
     * records; never aborts the process.
     */
    bool loadFrom(std::istream &in, const SearchSpace &space);

    void clear();

  private:
    bool _enabled = true;
    /// record() may be called from concurrent stage workers (the
    /// threaded executor); everything else is single-threaded —
    /// queries and (de)serialization happen before the run or after
    /// the workers are joined.
    RankedMutex _recordMu{LockRank::TrainAccessLog};
    std::uint64_t _nextOrder = 0;
    /// Per-layer histories; an empty history is an untouched layer.
    LayerTable<std::vector<AccessRecord>> _history;
};

} // namespace naspipe

#endif // NASPIPE_TRAIN_ACCESS_LOG_H
