/**
 * @file
 * Deterministic RNG tests: fixed outputs, stream independence,
 * distribution sanity.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "common/rng.h"

namespace naspipe {
namespace {

TEST(SplitMix64, KnownSequence)
{
    // Reference values from the SplitMix64 reference implementation
    // with seed 1234567.
    SplitMix64 sm(1234567);
    EXPECT_EQ(sm.next(), 6457827717110365317ULL);
    EXPECT_EQ(sm.next(), 3203168211198807973ULL);
    EXPECT_EQ(sm.next(), 9817491932198370423ULL);
}

TEST(SplitMix64, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, DeterministicAcrossInstances)
{
    Xoshiro256StarStar a(42), b(42);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
}

TEST(Xoshiro, SeedSensitivity)
{
    Xoshiro256StarStar a(42), b(43);
    EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, NextBelowRespectsBound)
{
    Xoshiro256StarStar rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; i++)
            ASSERT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Xoshiro, NextBelowCoversRange)
{
    Xoshiro256StarStar rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; i++)
        seen.insert(rng.nextBelow(6));
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Xoshiro, NextBelowRoughlyUniform)
{
    Xoshiro256StarStar rng(99);
    std::map<std::uint64_t, int> counts;
    const int draws = 60000;
    for (int i = 0; i < draws; i++)
        counts[rng.nextBelow(6)]++;
    for (const auto &[value, count] : counts) {
        EXPECT_NEAR(count, draws / 6, draws / 60)
            << "value " << value;
    }
}

TEST(Xoshiro, NextInRangeInclusive)
{
    Xoshiro256StarStar rng(5);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; i++) {
        std::int64_t v = rng.nextInRange(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        sawLo |= v == -2;
        sawHi |= v == 2;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Xoshiro, DoublesInUnitInterval)
{
    Xoshiro256StarStar rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; i++) {
        double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro, GaussianMoments)
{
    Xoshiro256StarStar rng(13);
    double sum = 0.0, sumSq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        double v = rng.nextGaussian();
        sum += v;
        sumSq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sumSq / n, 1.0, 0.05);
}

TEST(Xoshiro, JumpProducesDisjointStream)
{
    Xoshiro256StarStar a(21);
    Xoshiro256StarStar b(21);
    b.jump();
    // The jumped stream must differ immediately and not collide over
    // a modest window.
    std::set<std::uint64_t> fromA;
    for (int i = 0; i < 100; i++)
        fromA.insert(a.next());
    for (int i = 0; i < 100; i++)
        EXPECT_FALSE(fromA.count(b.next()));
}

TEST(Philox, CounterDeterminism)
{
    Philox4x32 p(777);
    auto block1 = p.block(42);
    auto block2 = p.block(42);
    EXPECT_EQ(block1, block2);
}

TEST(Philox, RandomAccessIndependentOfOrder)
{
    Philox4x32 p(777);
    auto late = p.block(1000);
    auto early = p.block(1);
    Philox4x32 q(777);
    EXPECT_EQ(q.block(1), early);
    EXPECT_EQ(q.block(1000), late);
}

TEST(Philox, KeySensitivity)
{
    Philox4x32 a(1), b(2);
    EXPECT_NE(a.block(0), b.block(0));
}

TEST(Philox, CounterSensitivity)
{
    Philox4x32 p(9);
    EXPECT_NE(p.block(0), p.block(1));
}

TEST(Philox, Random123KnownAnswer)
{
    // Philox4x32-10 known-answer vector from the Random123 suite:
    // key 0, counter 0.
    Philox4x32 p(0);
    Philox4x32::Block expected = {0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu,
                                  0x9b00dbd8u};
    EXPECT_EQ(p.block(0), expected);
}

TEST(Philox, UniformFloatRange)
{
    Philox4x32 p(31337);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < 10000; i++) {
        float v = p.uniformFloat(i);
        ASSERT_GE(v, 0.0f);
        ASSERT_LT(v, 1.0f);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Philox, UniformFloatsMatchesEveryLane)
{
    Philox4x32 p(0x5eed);
    for (std::uint64_t c = 0; c < 4096; c++) {
        std::uint64_t counter = c * 0x9e3779b97f4a7c15ULL;
        std::array<float, 4> lanes = p.uniformFloats(counter);
        for (unsigned lane = 0; lane < 4; lane++) {
            ASSERT_EQ(lanes[lane], p.uniformFloat(counter, lane))
                << "counter " << counter << " lane " << lane;
        }
    }
}

TEST(DeriveSeed, TagSeparation)
{
    std::uint64_t base = 7;
    EXPECT_NE(deriveSeed(base, "sampler"), deriveSeed(base, "data"));
    EXPECT_NE(deriveSeed(base, std::uint64_t{0}),
              deriveSeed(base, std::uint64_t{1}));
    // Same inputs, same output.
    EXPECT_EQ(deriveSeed(base, "sampler"), deriveSeed(base, "sampler"));
}

TEST(DeriveSeed, ParentSeparation)
{
    EXPECT_NE(deriveSeed(1, "x"), deriveSeed(2, "x"));
}

} // namespace
} // namespace naspipe
