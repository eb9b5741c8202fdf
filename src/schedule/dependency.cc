#include "schedule/dependency.h"

#include "common/logging.h"

namespace naspipe {

void
DependencyTracker::registerSubnet(const Subnet &subnet)
{
    NASPIPE_ASSERT(subnet.id() == _window.next(),
                   "subnets must register in sequence order: got ",
                   subnet.id(), " expected ", _window.next());
    _window.push(Entry{subnet, false});
}

bool
DependencyTracker::knows(SubnetId id) const
{
    return _window.contains(id);
}

const Subnet &
DependencyTracker::subnet(SubnetId id) const
{
    NASPIPE_ASSERT(knows(id), "unknown subnet SN", id);
    return _window[id].subnet;
}

void
DependencyTracker::markFinished(SubnetId id)
{
    NASPIPE_ASSERT(id >= frontier(), "subnet SN", id,
                   " already eliminated");
    NASPIPE_ASSERT(knows(id), "finishing unknown subnet SN", id);
    Entry &entry = _window[id];
    NASPIPE_ASSERT(!entry.finished, "subnet SN", id, " finished twice");
    entry.finished = true;
    _finishedCount++;
    // Elimination scheme: advance the frontier over the finished
    // prefix and drop those subnets from both lists.
    while (!_window.empty() && _window.front().finished) {
        _window.pop();
        _finishedCount--;
    }
}

bool
DependencyTracker::finished(SubnetId id) const
{
    return id < frontier() || (knows(id) && _window[id].finished);
}

bool
DependencyTracker::blockedBy(const Subnet &candidate, int firstBlock,
                             int lastBlock, const Subnet &earlier) const
{
    // A stage that owns no blocks of the candidate (firstBlock >
    // lastBlock under a skewed partition) touches no layers and can
    // never be blocked.
    if (firstBlock > lastBlock)
        return false;
    if (!_space)
        return candidate.sharesLayerInRange(earlier, firstBlock,
                                            lastBlock);
    NASPIPE_ASSERT(earlier.size() == candidate.size() &&
                       firstBlock >= 0 && lastBlock < candidate.size(),
                   "bad block range [", firstBlock, ",", lastBlock, "]");
    // Skip-aware check: equal choices only conflict when the shared
    // candidate actually holds parameters.
    const auto &mine = candidate.choices();
    const auto &theirs = earlier.choices();
    for (int b = firstBlock; b <= lastBlock; b++) {
        auto i = static_cast<std::size_t>(b);
        if (mine[i] == theirs[i] && _space->parameterized(b, mine[i]))
            return true;
    }
    return false;
}

SubnetId
DependencyTracker::scan(const Subnet &candidate, int firstBlock,
                        int lastBlock, SubnetId limit,
                        SubnetId hypothetical) const
{
    NASPIPE_ASSERT(limit <= _window.next(),
                   "dependency check against unknown SN",
                   _window.next(), "; register subnets in order");
    SubnetId w = frontier();
    for (auto it = _window.begin(); w < limit; ++it, ++w) {
        if (it->finished || w == hypothetical)
            continue;
        if (blockedBy(candidate, firstBlock, lastBlock, it->subnet))
            return w;
    }
    return -1;
}

bool
DependencyTracker::satisfied(const Subnet &candidate, int firstBlock,
                             int lastBlock) const
{
    return firstBlocker(candidate, firstBlock, lastBlock) < 0;
}

SubnetId
DependencyTracker::firstBlocker(const Subnet &candidate, int firstBlock,
                                int lastBlock) const
{
    return scan(candidate, firstBlock, lastBlock, candidate.id(), -1);
}

bool
DependencyTracker::satisfiedWithStaleness(const Subnet &candidate,
                                          int firstBlock,
                                          int lastBlock,
                                          SubnetId staleness) const
{
    NASPIPE_ASSERT(staleness >= 0, "staleness must be >= 0");
    return scan(candidate, firstBlock, lastBlock,
                candidate.id() - staleness, -1) < 0;
}

bool
DependencyTracker::satisfiedAssuming(const Subnet &candidate,
                                     int firstBlock, int lastBlock,
                                     SubnetId hypothetical) const
{
    return scan(candidate, firstBlock, lastBlock, candidate.id(),
                hypothetical) < 0;
}

void
DependencyTracker::reset()
{
    _window.reset();
    _finishedCount = 0;
}

} // namespace naspipe
