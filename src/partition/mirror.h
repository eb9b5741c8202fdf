/**
 * @file
 * Layer mirroring planner.
 *
 * Because every subnet runs under its own balanced partition, a layer
 * often executes on a stage other than its home stage. Instead of
 * migrating the operator on demand (which §2.3 rejects as too costly
 * at second-level subnet switching frequency), NASPipe *mirrors* the
 * layer to the executing stage and, after a parameter update, pushes
 * the new parameters to all mirrors (§4.2). This module decides which
 * layers of a subnet are mirrored, tracks the live mirror set, and
 * accounts for the push-synchronization traffic.
 */

#ifndef NASPIPE_PARTITION_MIRROR_H
#define NASPIPE_PARTITION_MIRROR_H

#include <cstdint>
#include <span>
#include <vector>

#include "partition/placement.h"
#include "partition/partitioner.h"
#include "supernet/layer_table.h"
#include "supernet/subnet.h"

namespace naspipe {

/** One mirrored layer of a subnet execution. */
struct MirrorEntry {
    LayerId layer;
    int homeStage = 0;   ///< stage whose pinned CPU storage owns it
    int execStage = 0;   ///< stage the current partition executes on
    std::uint64_t paramBytes = 0;
};

/** Aggregate mirroring statistics for a run. */
struct MirrorStats {
    std::uint64_t mirrorsCreated = 0;   ///< add_module() calls
    std::uint64_t mirrorsReused = 0;    ///< layer already mirrored
    std::uint64_t syncPushes = 0;       ///< post-update pushes
    std::uint64_t syncBytes = 0;        ///< bytes pushed
};

/**
 * Plans and tracks layer mirrors across the pipeline.
 */
class MirrorPlanner
{
  public:
    /**
     * @param space the search space
     * @param placement home placement of the supernet
     */
    MirrorPlanner(const SearchSpace &space,
                  const HomePlacement &placement);

    /**
     * Layers of @p subnet that must be mirrored when executing under
     * @p partition (balanced stage differs from home stage), in
     * ascending block and therefore ascending execStage.
     */
    std::vector<MirrorEntry> plan(const Subnet &subnet,
                                  const SubnetPartition &partition) const;

    /**
     * Register the mirrors of a subnet execution; returns the bytes
     * of *new* mirror state that must be materialized (reused mirrors
     * are free — the elimination §2.3 credits mirroring for).
     */
    std::uint64_t activate(const std::vector<MirrorEntry> &entries);

    /**
     * Record the post-update push for a subnet's mirrored layers;
     * returns the bytes that must travel between stages.
     */
    std::uint64_t recordSyncPush(std::span<const MirrorEntry> entries);

    /** Whether @p layer currently has a mirror on @p stage. */
    bool isMirrored(const LayerId &layer, int stage) const;

    /** Number of live (layer, stage) mirror pairs. */
    std::size_t liveMirrors() const { return _live; }

    const MirrorStats &stats() const { return _stats; }

    /** Drop all live mirrors and reset statistics. */
    void reset();

  private:
    const SearchSpace &_space;
    const HomePlacement &_placement;
    /// Per layer, whether stage s holds a mirror of it.
    LayerTable<std::vector<bool>> _mirrors;
    std::size_t _live = 0;
    MirrorStats _stats;
};

} // namespace naspipe

#endif // NASPIPE_PARTITION_MIRROR_H
