/**
 * @file
 * CommitGate unit tests: the causal-chain protocol in isolation.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "exec/commit_gate.h"

namespace naspipe {
namespace {

TEST(CommitGate, FirstActivatorIsImmediatelyReadable)
{
    CommitGate gate;
    gate.registerActivation(100, 3);
    gate.registerActivation(100, 5);
    EXPECT_TRUE(gate.readable(100, 3));
    EXPECT_FALSE(gate.readable(100, 5));
}

TEST(CommitGate, CommitUnlocksTheNextActivator)
{
    CommitGate gate;
    gate.registerActivation(100, 0);
    gate.registerActivation(100, 1);
    gate.registerActivation(100, 2);
    EXPECT_FALSE(gate.readable(100, 1));
    gate.commit(100, 0);
    EXPECT_TRUE(gate.readable(100, 1));
    EXPECT_FALSE(gate.readable(100, 2));
    gate.commit(100, 1);
    EXPECT_TRUE(gate.readable(100, 2));
}

TEST(CommitGate, LayersAreIndependent)
{
    CommitGate gate;
    gate.registerActivation(1, 0);
    gate.registerActivation(1, 1);
    gate.registerActivation(2, 1);
    EXPECT_EQ(gate.layers(), 2u);
    // SN1 leads layer 2's chain even though it trails layer 1's.
    EXPECT_TRUE(gate.readable(2, 1));
    EXPECT_FALSE(gate.readable(1, 1));
}

TEST(CommitGate, ResolvedClaimsPollWithoutTheTable)
{
    CommitGate gate;
    gate.registerActivation(7, 10);
    gate.registerActivation(7, 20);
    CommitGate::Claim early = gate.resolve(7, 10);
    CommitGate::Claim late = gate.resolve(7, 20);
    EXPECT_EQ(early.rank, 0u);
    EXPECT_EQ(late.rank, 1u);
    EXPECT_TRUE(gate.readable(early));
    EXPECT_FALSE(gate.readable(late));
    gate.commit(early);
    EXPECT_TRUE(gate.readable(late));
}

TEST(CommitGate, CountsCommitsAndPerLayerProgress)
{
    CommitGate gate;
    gate.registerActivation(1, 0);
    gate.registerActivation(1, 1);
    gate.registerActivation(2, 0);
    EXPECT_EQ(gate.commits(), 0u);
    EXPECT_EQ(gate.committedOf(1), 0u);
    gate.commit(1, 0);
    gate.commit(2, 0);
    gate.commit(1, 1);
    EXPECT_EQ(gate.commits(), 3u);
    EXPECT_EQ(gate.committedOf(1), 2u);
    EXPECT_EQ(gate.committedOf(2), 1u);
    EXPECT_EQ(gate.committedOf(999), 0u);  // unregistered layer
}

TEST(CommitGate, CommitHookFires)
{
    CommitGate gate;
    gate.registerActivation(1, 0);
    int fired = 0;
    gate.onCommit([&fired] { fired++; });
    gate.commit(1, 0);
    EXPECT_EQ(fired, 1);
}

TEST(CommitGate, EventHookRunsBeforeThePublish)
{
    // The live oracle relies on this: while the hook runs, the chain
    // still shows the claim's rank as its commit count, so the next
    // activator cannot have been released (and cannot commit ahead
    // of this event) yet.
    CommitGate gate;
    gate.registerActivation(7, 0);
    gate.registerActivation(7, 4);
    std::vector<std::size_t> seen;
    gate.onCommitEvent([&gate, &seen](std::uint64_t layerKey,
                                      SubnetId, std::size_t rank,
                                      int) {
        EXPECT_EQ(gate.committedOf(layerKey), rank);
        seen.push_back(gate.committedOf(layerKey));
    });
    gate.commit(7, 0);
    gate.commit(7, 4);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(gate.committedOf(7), 2u);
}

TEST(CommitGate, WaitReadableBlocksUntilCommit)
{
    CommitGate gate;
    gate.registerActivation(1, 0);
    gate.registerActivation(1, 1);
    CommitGate::Claim late = gate.resolve(1, 1);
    std::thread committer([&gate] {
        gate.commit(1, 0);
    });
    gate.waitReadable(late);  // must return once SN0 commits
    EXPECT_TRUE(gate.readable(late));
    committer.join();
}

} // namespace
} // namespace naspipe
