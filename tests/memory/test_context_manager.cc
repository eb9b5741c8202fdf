/**
 * @file
 * Context manager tests: prefetch, sync fetch, eviction, hit rates.
 *
 * Every case runs twice: with a GPU, as the simulator's stages build
 * the manager (copies occupy the DMA engines and take time), and
 * without one, as a threaded StageWorker does (copies land at the
 * tick they are issued).
 */

#include <gtest/gtest.h>

#include "memory/context_manager.h"

namespace naspipe {
namespace {

struct ContextFixture : ::testing::TestWithParam<bool> {
    ContextFixture()
        : space("x", SpaceFamily::Nlp, 8, 4, 3),
          gpu(sim, 0, GpuConfig{})
    {
    }

    bool withGpu() const { return GetParam(); }

    ContextManager
    manager(MemoryMode mode, std::uint64_t budgetBytes = 0)
    {
        return ContextManager(mode, budgetBytes,
                              withGpu() ? &gpu : nullptr);
    }

    Subnet
    subnet(SubnetId id = 0)
    {
        return Subnet(id, {0, 1, 2, 3, 0, 1, 2, 3});
    }

    Simulator sim;
    SearchSpace space;
    Gpu gpu;
};

TEST_P(ContextFixture, AllResidentIsAlwaysReady)
{
    ContextManager ctx = manager(MemoryMode::AllResident);
    Tick ready = ctx.ensureResident(space, subnet(), 0, 7, 5);
    EXPECT_EQ(ready, 5u);
    EXPECT_EQ(ctx.memory().hitStats().total(), 0u);
    EXPECT_EQ(ctx.stats().syncFetches, 0u);
}

TEST_P(ContextFixture, PrefetchMakesLaterAccessAHit)
{
    ContextManager ctx = manager(MemoryMode::PredictivePrefetch);
    ctx.prefetch(space, subnet(), 0, 3, 1);
    EXPECT_GT(ctx.stats().prefetchedBytes, 0u);
    Tick ready = ctx.ensureResident(space, subnet(), 0, 3, 2);
    // All four layers anticipated: all hits.
    EXPECT_EQ(ctx.memory().hitStats().hits(), 4u);
    EXPECT_EQ(ctx.memory().hitStats().misses(), 0u);
    EXPECT_EQ(ctx.stats().syncFetches, 0u);
    // With a GPU the copies still take PCIe time; without one they
    // landed at the prefetch tick.
    if (withGpu())
        EXPECT_GT(ready, 2u);
    else
        EXPECT_EQ(ready, 2u);
}

TEST_P(ContextFixture, ColdAccessIsAMissWithSyncFetch)
{
    ContextManager ctx = manager(MemoryMode::PredictivePrefetch);
    Tick ready = ctx.ensureResident(space, subnet(), 0, 3, 0);
    EXPECT_EQ(ctx.memory().hitStats().misses(), 4u);
    EXPECT_EQ(ctx.stats().syncFetches, 4u);
    EXPECT_DOUBLE_EQ(ctx.memory().hitStats().rate(), 0.0);
    // Only a GPU-backed manager queues copies on the H2D engine.
    if (withGpu()) {
        EXPECT_GT(ready, 0u);
        EXPECT_GT(gpu.h2d().engine().freeAt(), 0u);
    } else {
        EXPECT_EQ(ready, 0u);
        EXPECT_EQ(gpu.h2d().engine().freeAt(), 0u);
    }
}

TEST_P(ContextFixture, SecondAccessHits)
{
    ContextManager ctx = manager(MemoryMode::PredictivePrefetch);
    ctx.ensureResident(space, subnet(), 0, 3, 0);
    // e.g. the backward pass
    ctx.ensureResident(space, subnet(), 0, 3, 0);
    EXPECT_EQ(ctx.memory().hitStats().hits(), 4u);
    EXPECT_DOUBLE_EQ(ctx.memory().hitStats().rate(), 0.5);
}

TEST_P(ContextFixture, EvictionFreesAndCopiesBack)
{
    ContextManager ctx = manager(MemoryMode::PredictivePrefetch);
    ctx.ensureResident(space, subnet(), 0, 3, 0);
    std::uint64_t resident = ctx.memory().residentBytes();
    ASSERT_GT(resident, 0u);
    ctx.evictSubnet(space, subnet(), 0, 3, 0);
    EXPECT_EQ(ctx.memory().residentBytes(), 0u);
    EXPECT_EQ(ctx.stats().evictedBytes, resident);
}

TEST_P(ContextFixture, PrefetchIsNoOpOutsidePredictiveMode)
{
    ContextManager ctx = manager(MemoryMode::SwapOnDemand);
    ctx.prefetch(space, subnet(), 0, 3, 0);
    EXPECT_EQ(ctx.stats().prefetchedBytes, 0u);
    EXPECT_EQ(ctx.memory().residentLayers(), 0u);
}

TEST_P(ContextFixture, SwapOnDemandEvictsPreviousContext)
{
    ContextManager ctx = manager(MemoryMode::SwapOnDemand);
    Subnet a(0, {0, 0, 0, 0, 0, 0, 0, 0});
    Subnet b(1, {1, 1, 1, 1, 1, 1, 1, 1});
    ctx.ensureResident(space, a, 0, 3, 0);
    std::uint64_t afterA = ctx.memory().residentBytes();
    ctx.ensureResident(space, b, 0, 3, 0);
    // a's layers were evicted; only b's context remains.
    EXPECT_GT(ctx.stats().evictedBytes, 0u);
    EXPECT_EQ(ctx.memory().residentLayers(), 4u);
    EXPECT_GT(afterA, 0u);
}

TEST_P(ContextFixture, SwapOnDemandKeepsSharedLayers)
{
    ContextManager ctx = manager(MemoryMode::SwapOnDemand);
    Subnet a(0, {0, 0, 2, 3, 0, 1, 2, 3});
    Subnet b(1, {0, 0, 1, 1, 0, 1, 2, 3});  // shares blocks 0,1
    ctx.ensureResident(space, a, 0, 3, 0);
    ctx.ensureResident(space, b, 0, 3, 0);
    // Blocks 0 and 1 stayed resident => 2 hits.
    EXPECT_EQ(ctx.memory().hitStats().hits(), 2u);
}

TEST_P(ContextFixture, SkipLayersNeverTouchTheCache)
{
    SearchSpace skippy("s", SpaceFamily::Nlp, 8, 4, 3, 0.4);
    ContextManager ctx = manager(MemoryMode::PredictivePrefetch);
    Subnet sn(0, {0, 0, 1, 2, 0, 0, 1, 2});  // 4 skip blocks
    ctx.ensureResident(skippy, sn, 0, 7, 0);
    EXPECT_EQ(ctx.memory().hitStats().total(), 4u);
    EXPECT_EQ(ctx.memory().residentLayers(), 4u);
}

TEST_P(ContextFixture, BudgetForcesLruEviction)
{
    // Budget fits roughly half the subnet's context: the memory
    // limit check (§4.2) must push out idle layers as new ones come.
    std::uint64_t full = subnet().paramBytes(space);
    ContextManager ctx =
        manager(MemoryMode::PredictivePrefetch, full / 2);
    // Touch layers at increasing ticks so LRU order is well-defined.
    ctx.ensureResident(space, subnet(), 0, 1, 0);
    ctx.ensureResident(space, subnet(), 2, 3, kTicksPerMs);
    ctx.ensureResident(space, subnet(), 4, 7, 2 * kTicksPerMs);
    EXPECT_GT(ctx.stats().forcedEvictions, 0u);
    EXPECT_LE(ctx.memory().residentBytes(),
              full / 2 + (64ULL << 20));  // at most one layer over
}

TEST_P(ContextFixture, BudgetNeverEvictsLayersInUse)
{
    // Budget smaller than one task's context: the check must admit
    // over budget instead of evicting what the task is touching.
    ContextManager ctx = manager(MemoryMode::PredictivePrefetch, 1);
    ctx.ensureResident(space, subnet(), 0, 7, 0);
    EXPECT_EQ(ctx.memory().residentLayers(), 8u);
    EXPECT_GT(ctx.stats().overBudgetFetches, 0u);
    EXPECT_EQ(ctx.stats().forcedEvictions, 0u);
}

TEST_P(ContextFixture, UnlimitedBudgetNeverForcesEviction)
{
    ContextManager ctx = manager(MemoryMode::PredictivePrefetch);
    ctx.ensureResident(space, subnet(), 0, 7, 0);
    EXPECT_EQ(ctx.stats().forcedEvictions, 0u);
    EXPECT_EQ(ctx.stats().overBudgetFetches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Setups, ContextFixture, ::testing::Values(true, false),
    [](const ::testing::TestParamInfo<bool> &info) {
        return info.param ? "WithGpu" : "NoGpu";
    });

TEST(ContextStatsFold, SumsStagesAndPoolsTheHitRate)
{
    SearchSpace space("x", SpaceFamily::Nlp, 8, 4, 3);
    Subnet sn(0, {0, 1, 2, 3, 0, 1, 2, 3});
    ContextManager a(MemoryMode::PredictivePrefetch, 100);
    ContextManager b(MemoryMode::PredictivePrefetch, 100);
    a.ensureResident(space, sn, 0, 3, 1);  // 4 misses
    a.ensureResident(space, sn, 0, 3, 2);  // 4 hits
    b.prefetch(space, sn, 4, 7, 1);
    b.ensureResident(space, sn, 4, 7, 2);  // 4 hits
    RunMetrics m;
    addContextStats({&a, &b}, m);
    ASSERT_TRUE(m.cacheHitRate.has_value());
    EXPECT_DOUBLE_EQ(*m.cacheHitRate, 8.0 / 12.0);
    EXPECT_EQ(m.prefetchedBytes, b.stats().prefetchedBytes);
    EXPECT_EQ(m.syncFetchedBytes, a.stats().syncFetchedBytes);
    EXPECT_EQ(m.cacheBudgetBytes, 100u);

    RunMetrics none;
    ContextManager resident(MemoryMode::AllResident);
    addContextStats({&resident}, none);
    EXPECT_FALSE(none.cacheHitRate.has_value());
}

} // namespace
} // namespace naspipe
