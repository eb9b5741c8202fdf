#include "partition/partitioner.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace naspipe {

SubnetPartition::SubnetPartition(std::vector<int> firstBlock,
                                 int numBlocks)
    : _firstBlock(std::move(firstBlock)), _numBlocks(numBlocks)
{
    NASPIPE_ASSERT(!_firstBlock.empty(), "partition needs >= 1 stage");
    NASPIPE_ASSERT(_firstBlock.front() == 0,
                   "stage 0 must start at block 0");
    for (std::size_t s = 1; s < _firstBlock.size(); s++) {
        NASPIPE_ASSERT(_firstBlock[s] >= _firstBlock[s - 1],
                       "stage starts must be non-decreasing");
        NASPIPE_ASSERT(_firstBlock[s] <= numBlocks,
                       "stage start beyond block count");
    }
}

int
SubnetPartition::firstBlock(int stage) const
{
    NASPIPE_ASSERT(stage >= 0 && stage < numStages(),
                   "stage ", stage, " out of range");
    return _firstBlock[static_cast<std::size_t>(stage)];
}

int
SubnetPartition::lastBlock(int stage) const
{
    NASPIPE_ASSERT(stage >= 0 && stage < numStages(),
                   "stage ", stage, " out of range");
    int next = (stage + 1 < numStages())
                   ? _firstBlock[static_cast<std::size_t>(stage) + 1]
                   : _numBlocks;
    return next - 1;
}

int
SubnetPartition::blockCount(int stage) const
{
    return lastBlock(stage) - firstBlock(stage) + 1;
}

int
SubnetPartition::stageOf(int block) const
{
    NASPIPE_ASSERT(block >= 0 && block < _numBlocks,
                   "block ", block, " out of range");
    // Find the last stage whose first block is <= block.
    auto it = std::upper_bound(_firstBlock.begin(), _firstBlock.end(),
                               block);
    return static_cast<int>(it - _firstBlock.begin()) - 1;
}

double
PartitionCost::imbalance() const
{
    if (totalMs <= 0.0 || stageMs.empty())
        return 1.0;
    double mean = totalMs / static_cast<double>(stageMs.size());
    return mean > 0.0 ? maxMs / mean : 1.0;
}

Partitioner::Partitioner(const SearchSpace &space, int batch)
    : _space(space), _batch(batch)
{
    NASPIPE_ASSERT(batch > 0, "batch must be positive");
}

std::vector<double>
Partitioner::blockCosts(const Subnet &subnet) const
{
    std::vector<double> costs(
        static_cast<std::size_t>(subnet.size()));
    for (int b = 0; b < subnet.size(); b++) {
        const LayerSpec &spec = _space.spec(b, subnet.choice(b));
        costs[static_cast<std::size_t>(b)] =
            spec.fwdMsAt(_batch, _space.referenceBatch()) +
            spec.bwdMsAt(_batch, _space.referenceBatch());
    }
    return costs;
}

namespace {

/** Buffers of the balanced search, reused across calls on a thread. */
struct BalancedScratch {
    std::vector<double> prefix;  ///< prefix[b]: cost of blocks [0, b)
    std::vector<double> prev;    ///< best bottleneck, s stages
    std::vector<double> cur;     ///< best bottleneck, s + 1 stages
    std::vector<int> cut;        ///< [s * (m + 1) + b]: last stage start
};

thread_local BalancedScratch scratch;

} // namespace

SubnetPartition
Partitioner::balanced(const Subnet &subnet, int numStages) const
{
    return minMaxPartition(blockCosts(subnet), numStages);
}

SubnetPartition
Partitioner::minMaxPartition(std::span<const double> costs,
                             int numStages)
{
    NASPIPE_ASSERT(numStages >= 1, "need >= 1 stage");
    const int m = static_cast<int>(costs.size());
    const int d = numStages;
    const auto width = static_cast<std::size_t>(m) + 1;
    std::vector<double> &prefix = scratch.prefix;
    std::vector<double> &prev = scratch.prev;
    std::vector<double> &cur = scratch.cur;
    std::vector<int> &cut = scratch.cut;
    prefix.resize(width);
    prev.resize(width);
    cur.resize(width);
    cut.resize(static_cast<std::size_t>(d) * width);

    // Prefix sums for O(1) range cost. Costs are non-negative, so
    // prefix is non-decreasing and every rounded range cost falls as
    // its first block moves right.
    prefix[0] = 0.0;
    for (std::size_t b = 0; b < costs.size(); b++) {
        NASPIPE_ASSERT(costs[b] >= 0.0, "block cost must be >= 0");
        prefix[b + 1] = prefix[b] + costs[b];
    }
    auto rangeCost = [&](int lo, int hi) {  // blocks [lo, hi)
        return prefix[static_cast<std::size_t>(hi)] -
               prefix[static_cast<std::size_t>(lo)];
    };

    // prev[b]: minimal bottleneck splitting blocks [0, b) into the
    // stages so far; cut[s][b]: first block of stage s in the best
    // split of [0, b) into s + 1 stages.
    for (int b = 0; b <= m; b++)
        prev[static_cast<std::size_t>(b)] = rangeCost(0, b);
    for (int s = 1; s < d; s++) {
        // The last stage only ever splits all m blocks.
        const int bFirst = s + 1 < d ? 0 : m;
        int cross = 0;
        for (int b = bFirst; b <= m; b++) {
            // best(k) = max(prev[k], rangeCost(k, b)) over k in
            // [0, b]: prev is non-decreasing in k and rangeCost is
            // non-increasing, so best falls (as rangeCost) up to the
            // first k where prev catches up and rises (as prev)
            // after it. A larger b only raises rangeCost, so that
            // crossing never moves left: one sweep per stage finds
            // it for every b. It exists because rangeCost(b, b) = 0.
            while (prev[static_cast<std::size_t>(cross)] <
                   rangeCost(cross, b))
                cross++;
            double value = prev[static_cast<std::size_t>(cross)];
            int at = cross;
            if (cross > 0 && rangeCost(cross - 1, b) <= value) {
                // The minimum lies on the falling side. Keep the
                // earliest cut reaching it, as a strict-improvement
                // scan in ascending k would, so the result stays
                // unique and deterministic under ties.
                value = rangeCost(cross - 1, b);
                int l = 0, h = cross - 1;
                if (h == 0 || rangeCost(h - 1, b) > value)
                    l = h;  // no tie: the common case
                while (l < h) {
                    int mid = l + (h - l) / 2;
                    if (rangeCost(mid, b) <= value)
                        h = mid;
                    else
                        l = mid + 1;
                }
                at = l;
            }
            cur[static_cast<std::size_t>(b)] = value;
            cut[static_cast<std::size_t>(s) * width +
                static_cast<std::size_t>(b)] = at;
        }
        std::swap(prev, cur);
    }

    // Reconstruct stage starts from the cut table.
    std::vector<int> firstBlock(static_cast<std::size_t>(d), 0);
    int b = m;
    for (int s = d - 1; s >= 1; s--) {
        int k = cut[static_cast<std::size_t>(s) * width +
                    static_cast<std::size_t>(b)];
        firstBlock[static_cast<std::size_t>(s)] = k;
        b = k;
    }
    return SubnetPartition(std::move(firstBlock), m);
}

SubnetPartition
Partitioner::even(int numBlocks, int numStages)
{
    NASPIPE_ASSERT(numBlocks >= 1 && numStages >= 1,
                   "even partition needs positive sizes");
    std::vector<int> firstBlock(static_cast<std::size_t>(numStages));
    for (int s = 0; s < numStages; s++) {
        firstBlock[static_cast<std::size_t>(s)] = static_cast<int>(
            (static_cast<long long>(numBlocks) * s) / numStages);
    }
    return SubnetPartition(std::move(firstBlock), numBlocks);
}

PartitionCost
Partitioner::cost(const Subnet &subnet,
                  const SubnetPartition &partition) const
{
    std::vector<double> costs = blockCosts(subnet);
    PartitionCost out;
    out.stageMs.resize(
        static_cast<std::size_t>(partition.numStages()), 0.0);
    for (int b = 0; b < subnet.size(); b++) {
        out.stageMs[static_cast<std::size_t>(partition.stageOf(b))] +=
            costs[static_cast<std::size_t>(b)];
    }
    for (double ms : out.stageMs) {
        out.maxMs = std::max(out.maxMs, ms);
        out.totalMs += ms;
    }
    return out;
}

} // namespace naspipe
