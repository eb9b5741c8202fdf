#include "partition/mirror.h"

#include "common/logging.h"

namespace naspipe {

MirrorPlanner::MirrorPlanner(const SearchSpace &space,
                             const HomePlacement &placement)
    : _space(space), _placement(placement),
      _mirrors(space.numBlocks(), space.choicesPerBlock())
{
}

std::vector<MirrorEntry>
MirrorPlanner::plan(const Subnet &subnet,
                    const SubnetPartition &partition) const
{
    NASPIPE_ASSERT(partition.numBlocks() == subnet.size(),
                   "partition does not match subnet");
    std::vector<MirrorEntry> entries;
    for (int b = 0; b < subnet.size(); b++) {
        int exec = partition.stageOf(b);
        int home = _placement.homeStage(b);
        if (exec == home)
            continue;
        std::uint64_t bytes =
            _space.spec(b, subnet.choice(b)).paramBytes;
        if (bytes == 0)
            continue;  // skip candidates have no state to mirror
        MirrorEntry entry;
        entry.layer = subnet.layer(b);
        entry.homeStage = home;
        entry.execStage = exec;
        entry.paramBytes = bytes;
        entries.push_back(entry);
    }
    return entries;
}

std::uint64_t
MirrorPlanner::activate(const std::vector<MirrorEntry> &entries)
{
    std::uint64_t newBytes = 0;
    for (const auto &entry : entries) {
        std::vector<bool> &stages = _mirrors[entry.layer];
        auto stage = static_cast<std::size_t>(entry.execStage);
        if (stage >= stages.size())
            stages.resize(stage + 1);
        if (!stages[stage]) {
            stages[stage] = true;
            _live++;
            _stats.mirrorsCreated++;
            newBytes += entry.paramBytes;
        } else {
            _stats.mirrorsReused++;
        }
    }
    return newBytes;
}

std::uint64_t
MirrorPlanner::recordSyncPush(std::span<const MirrorEntry> entries)
{
    std::uint64_t bytes = 0;
    for (const auto &entry : entries) {
        _stats.syncPushes++;
        _stats.syncBytes += entry.paramBytes;
        bytes += entry.paramBytes;
    }
    return bytes;
}

bool
MirrorPlanner::isMirrored(const LayerId &layer, int stage) const
{
    const std::vector<bool> *stages = _mirrors.find(layer);
    return stages && stage >= 0 &&
           static_cast<std::size_t>(stage) < stages->size() &&
           (*stages)[static_cast<std::size_t>(stage)];
}

void
MirrorPlanner::reset()
{
    _mirrors.clear();
    _live = 0;
    _stats = MirrorStats();
}

} // namespace naspipe
