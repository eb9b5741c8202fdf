/**
 * @file
 * Balanced partitioner tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "partition/partitioner.h"
#include "supernet/sampler.h"

namespace naspipe {
namespace {

/**
 * The O(D * m^2) reference: for every stage count and end block, scan
 * every cut in ascending order and keep the first strict improvement,
 * so ties resolve to the earliest cut.
 */
std::vector<int>
referenceFirstBlocks(const std::vector<double> &costs, int d)
{
    const auto m = static_cast<int>(costs.size());
    const auto w = static_cast<std::size_t>(m) + 1;
    std::vector<double> prefix(w, 0.0);
    for (std::size_t b = 0; b < costs.size(); b++)
        prefix[b + 1] = prefix[b] + costs[b];
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> best(
        static_cast<std::size_t>(d), std::vector<double>(w, inf));
    std::vector<std::vector<int>> cut(static_cast<std::size_t>(d),
                                      std::vector<int>(w, 0));
    for (std::size_t b = 0; b < w; b++)
        best[0][b] = prefix[b];
    for (std::size_t s = 1; s < static_cast<std::size_t>(d); s++) {
        for (std::size_t b = 0; b < w; b++) {
            for (std::size_t k = 0; k <= b; k++) {
                double candidate =
                    std::max(best[s - 1][k], prefix[b] - prefix[k]);
                if (candidate < best[s][b]) {
                    best[s][b] = candidate;
                    cut[s][b] = static_cast<int>(k);
                }
            }
        }
    }
    std::vector<int> first(static_cast<std::size_t>(d), 0);
    int b = m;
    for (int s = d - 1; s >= 1; s--) {
        b = cut[static_cast<std::size_t>(s)][static_cast<std::size_t>(b)];
        first[static_cast<std::size_t>(s)] = b;
    }
    return first;
}

std::vector<int>
firstBlocks(const SubnetPartition &p)
{
    std::vector<int> first;
    for (int s = 0; s < p.numStages(); s++)
        first.push_back(p.firstBlock(s));
    return first;
}

TEST(SubnetPartition, BasicQueries)
{
    SubnetPartition p({0, 3, 5}, 8);
    EXPECT_EQ(p.numStages(), 3);
    EXPECT_EQ(p.numBlocks(), 8);
    EXPECT_EQ(p.firstBlock(0), 0);
    EXPECT_EQ(p.lastBlock(0), 2);
    EXPECT_EQ(p.firstBlock(2), 5);
    EXPECT_EQ(p.lastBlock(2), 7);
    EXPECT_EQ(p.blockCount(1), 2);
}

TEST(SubnetPartition, StageOf)
{
    SubnetPartition p({0, 3, 5}, 8);
    EXPECT_EQ(p.stageOf(0), 0);
    EXPECT_EQ(p.stageOf(2), 0);
    EXPECT_EQ(p.stageOf(3), 1);
    EXPECT_EQ(p.stageOf(4), 1);
    EXPECT_EQ(p.stageOf(7), 2);
}

TEST(SubnetPartition, EmptyStagesAllowed)
{
    SubnetPartition p({0, 2, 2}, 4);
    EXPECT_EQ(p.blockCount(1), 0);
    EXPECT_FALSE(p.stageNonEmpty(1));
    EXPECT_GT(p.firstBlock(1), p.lastBlock(1));
}

TEST(SubnetPartition, InvalidConstructionPanics)
{
    EXPECT_THROW(SubnetPartition({1, 2}, 4), std::logic_error);
    EXPECT_THROW(SubnetPartition({0, 3, 2}, 4), std::logic_error);
    EXPECT_THROW(SubnetPartition({0, 9}, 4), std::logic_error);
}

TEST(Partitioner, EvenPartitionSplitsEqually)
{
    SubnetPartition p = Partitioner::even(48, 8);
    for (int s = 0; s < 8; s++)
        EXPECT_EQ(p.blockCount(s), 6);
}

TEST(Partitioner, EvenPartitionHandlesRemainders)
{
    SubnetPartition p = Partitioner::even(10, 4);
    int total = 0;
    for (int s = 0; s < 4; s++) {
        total += p.blockCount(s);
        EXPECT_GE(p.blockCount(s), 2);
        EXPECT_LE(p.blockCount(s), 3);
    }
    EXPECT_EQ(total, 10);
}

TEST(Partitioner, BalancedNeverWorseThanEven)
{
    SearchSpace space("x", SpaceFamily::Nlp, 16, 6, 13);
    Partitioner part(space, space.referenceBatch());
    UniformSampler sampler(space, 23);
    for (int i = 0; i < 20; i++) {
        Subnet sn = sampler.next();
        auto balanced = part.balanced(sn, 4);
        auto even = Partitioner::even(sn.size(), 4);
        double balancedMax = part.cost(sn, balanced).maxMs;
        double evenMax = part.cost(sn, even).maxMs;
        EXPECT_LE(balancedMax, evenMax + 1e-9) << sn.toString();
    }
}

TEST(Partitioner, BalancedIsOptimalOnSmallInstance)
{
    // Brute-force the min-max partition of a small subnet and check
    // the DP finds the same bottleneck.
    SearchSpace space("x", SpaceFamily::Nlp, 6, 4, 3);
    Partitioner part(space, space.referenceBatch());
    Subnet sn(0, {0, 1, 2, 3, 0, 1});
    auto costs = part.blockCosts(sn);

    double best = 1e18;
    // Two cut points over 6 blocks into 3 stages.
    for (int c1 = 0; c1 <= 6; c1++) {
        for (int c2 = c1; c2 <= 6; c2++) {
            double s0 = 0, s1 = 0, s2 = 0;
            for (int b = 0; b < c1; b++)
                s0 += costs[static_cast<std::size_t>(b)];
            for (int b = c1; b < c2; b++)
                s1 += costs[static_cast<std::size_t>(b)];
            for (int b = c2; b < 6; b++)
                s2 += costs[static_cast<std::size_t>(b)];
            best = std::min(best, std::max({s0, s1, s2}));
        }
    }
    auto partition = part.balanced(sn, 3);
    EXPECT_NEAR(part.cost(sn, partition).maxMs, best, 1e-9);
}

TEST(Partitioner, MinMaxPartitionEqualsReferenceDp)
{
    // Seeded random instances: m in [1, 60], D in [1, 10] (often
    // more stages than blocks), small integer costs full of ties and
    // zeros, and real costs.
    Philox4x32 rng(20240611);
    std::uint64_t counter = 0;
    for (int trial = 0; trial < 4000; trial++) {
        Philox4x32::Block shape = rng.block(counter++);
        const int m = 1 + static_cast<int>(shape[0] % 60);
        const int d = 1 + static_cast<int>(shape[1] % 10);
        const bool integral = shape[2] % 2 == 0;
        std::vector<double> costs(static_cast<std::size_t>(m));
        for (double &c : costs) {
            Philox4x32::Block draw = rng.block(counter++);
            c = integral ? static_cast<double>(draw[0] % 4)
                         : rng.uniformFloat(counter - 1, 1) * 10.0;
        }
        EXPECT_EQ(firstBlocks(Partitioner::minMaxPartition(costs, d)),
                  referenceFirstBlocks(costs, d))
            << "trial " << trial << " m=" << m << " d=" << d;
    }
}

TEST(Partitioner, BalancedEqualsReferenceDpOnSpaces)
{
    for (const SearchSpace &space :
         {makeSpaceByName("NLP.c2"), makeSpaceByName("CV.c3")}) {
        Partitioner part(space, space.referenceBatch());
        UniformSampler sampler(space, 5);
        for (int i = 0; i < 50; i++) {
            Subnet sn = sampler.next();
            for (int d : {1, 2, 4, 8, 64}) {
                EXPECT_EQ(firstBlocks(part.balanced(sn, d)),
                          referenceFirstBlocks(part.blockCosts(sn), d))
                    << space.name() << " " << sn.toString() << " d=" << d;
            }
        }
    }
}

TEST(Partitioner, CostTotalsMatchBlockSum)
{
    SearchSpace space("x", SpaceFamily::Cv, 8, 4, 3);
    Partitioner part(space, 32);
    Subnet sn(0, {0, 1, 2, 3, 0, 1, 2, 3});
    auto costs = part.blockCosts(sn);
    double sum = 0;
    for (double c : costs)
        sum += c;
    auto partition = part.balanced(sn, 3);
    EXPECT_NEAR(part.cost(sn, partition).totalMs, sum, 1e-9);
}

TEST(Partitioner, ImbalanceMetric)
{
    PartitionCost cost;
    cost.stageMs = {1.0, 1.0, 2.0};
    cost.maxMs = 2.0;
    cost.totalMs = 4.0;
    EXPECT_NEAR(cost.imbalance(), 1.5, 1e-9);
}

TEST(Partitioner, DeterministicResult)
{
    SearchSpace space("x", SpaceFamily::Nlp, 24, 8, 5);
    Partitioner part(space, space.referenceBatch());
    UniformSampler sampler(space, 3);
    Subnet sn = sampler.next();
    EXPECT_EQ(part.balanced(sn, 8), part.balanced(sn, 8));
}

TEST(Partitioner, MoreStagesThanBlocks)
{
    SearchSpace tiny = makeTinySpace();
    Partitioner part(tiny, tiny.referenceBatch());
    Subnet sn(0, {0, 1, 2, 0});
    auto p = part.balanced(sn, 6);
    // All 4 blocks assigned; at least two stages must be empty (the
    // DP may also merge cheap blocks, leaving more empties).
    int total = 0, empty = 0;
    for (int s = 0; s < 6; s++) {
        total += p.blockCount(s);
        empty += p.blockCount(s) == 0;
    }
    EXPECT_EQ(total, 4);
    EXPECT_GE(empty, 2);
}

} // namespace
} // namespace naspipe
