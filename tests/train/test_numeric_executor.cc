/**
 * @file
 * Numeric executor tests: staged execution equals sequential
 * execution, and the three update semantics behave distinctly.
 */

#include <gtest/gtest.h>

#include "train/numeric_executor.h"

namespace naspipe {
namespace {

struct ExecFixture : ::testing::Test {
    ExecFixture() : space(makeTinySpace()), store(space, 7)
    {
        NumericExecutor::Config config;
        config.dataSeed = 99;
        config.batch = 192;  // the family reference: LR scale 1
        exec = std::make_unique<NumericExecutor>(store, config);
    }

    Subnet
    subnet(SubnetId id, std::vector<std::uint16_t> choices = {0, 1, 2,
                                                              0})
    {
        return Subnet(id, std::move(choices));
    }

    SearchSpace space;
    ParameterStore store;
    std::unique_ptr<NumericExecutor> exec;
};

TEST_F(ExecFixture, SequentialTrainingReducesLoss)
{
    // Train the same architecture repeatedly on its (fixed) batch:
    // loss must drop.
    float first = 0.0f, last = 0.0f;
    for (int i = 0; i < 30; i++) {
        float loss = exec->trainSequential(
            subnet(i, {0, 1, 2, 0}));
        if (i == 0)
            first = loss;
        last = loss;
    }
    // Different subnets get different batches; use the same batch by
    // reusing data seed effects: losses trend down on average.
    (void)first;
    (void)last;
    const auto &history = exec->lossHistory();
    double early = 0, late = 0;
    for (int i = 0; i < 10; i++) {
        early += history[static_cast<std::size_t>(i)];
        late += history[history.size() - 1 - i];
    }
    EXPECT_LT(late, early);
}

TEST_F(ExecFixture, StagedExecutionBitwiseEqualsSequential)
{
    Subnet sn = subnet(0);
    // Staged: two-block stages, immediate semantics.
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 1, UpdateSemantics::Immediate);
    exec->forwardStage(sn, 2, 3, UpdateSemantics::Immediate);
    float stagedLoss = exec->computeLoss(sn);
    exec->backwardStage(sn, 2, 3, UpdateSemantics::Immediate);
    exec->backwardStage(sn, 0, 1, UpdateSemantics::Immediate);
    exec->finishSubnet(sn);

    // Sequential on a fresh store.
    ParameterStore other(space, 7);
    NumericExecutor::Config config;
    config.dataSeed = 99;
    config.batch = 192;
    NumericExecutor seq(other, config);
    float seqLoss = seq.trainSequential(subnet(0));

    EXPECT_EQ(stagedLoss, seqLoss);
    EXPECT_EQ(store.supernetHash(), other.supernetHash());
}

TEST_F(ExecFixture, NonContiguousForwardPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 1, UpdateSemantics::Immediate);
    EXPECT_THROW(
        exec->forwardStage(sn, 3, 3, UpdateSemantics::Immediate),
        std::logic_error);
}

TEST_F(ExecFixture, BackwardBeforeLossPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    EXPECT_THROW(
        exec->backwardStage(sn, 0, 3, UpdateSemantics::Immediate),
        std::logic_error);
}

TEST_F(ExecFixture, FinishBeforeBackwardCompletesPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    exec->computeLoss(sn);
    exec->backwardStage(sn, 2, 3, UpdateSemantics::Immediate);
    EXPECT_THROW(exec->finishSubnet(sn), std::logic_error);
}

TEST_F(ExecFixture, DeferredWritesOnlyAtFlush)
{
    Subnet sn = subnet(0);
    std::uint64_t before = store.touchedHash();
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    exec->computeLoss(sn);
    exec->backwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    // No writes yet: reads materialized layers but no WRITE records.
    for (const auto &rec :
         store.accessLog().layerHistory(sn.layer(0))) {
        EXPECT_EQ(rec.kind, AccessKind::Read);
    }
    (void)before;
    exec->applyDeferredUpdates({0});
    float loss = exec->finishSubnet(sn);
    EXPECT_GT(loss, 0.0f);
    EXPECT_EQ(store.version(sn.layer(0)), 1u);
}

TEST_F(ExecFixture, FinishWithUnappliedDeferredPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    exec->computeLoss(sn);
    exec->backwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    EXPECT_THROW(exec->finishSubnet(sn), std::logic_error);
}

TEST_F(ExecFixture, WeightStashGradsUseForwardVersion)
{
    // Two subnets share every layer. Under WeightStash, SN1's
    // backward uses the weights SN1's forward saw, even though SN0's
    // update landed in between => result differs from recompute
    // (Immediate) semantics under the same interleaving.
    auto interleave = [&](UpdateSemantics semantics) {
        ParameterStore s(space, 7);
        NumericExecutor::Config config;
        config.dataSeed = 99;
        config.batch = 192;
        NumericExecutor e(s, config);
        Subnet a(0, {0, 1, 2, 0}), b(1, {0, 1, 2, 0});
        e.beginSubnet(a);
        e.beginSubnet(b);
        e.forwardStage(a, 0, 3, semantics);
        e.computeLoss(a);
        e.forwardStage(b, 0, 3, semantics);  // reads pre-update
        e.computeLoss(b);
        e.backwardStage(a, 0, 3, semantics);  // a's update lands
        e.backwardStage(b, 0, 3, semantics);
        e.finishSubnet(a);
        e.finishSubnet(b);
        return s.supernetHash();
    };
    EXPECT_NE(interleave(UpdateSemantics::WeightStash),
              interleave(UpdateSemantics::Immediate));
}

TEST_F(ExecFixture, SkipLayersPassThrough)
{
    SearchSpace skippy("s", SpaceFamily::Nlp, 4, 3, 3, 0.4);
    ParameterStore s(skippy, 7);
    NumericExecutor::Config config;
    NumericExecutor e(s, config);
    Subnet sn(0, {0, 0, 0, 0});  // all skip: pure identity chain
    e.beginSubnet(sn);
    e.forwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    float loss = e.computeLoss(sn);
    e.backwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    e.finishSubnet(sn);
    // Identity chain: prediction == input digest; loss is just the
    // input/target MSE, and no parameters were touched.
    EXPECT_GT(loss, 0.0f);
    EXPECT_EQ(s.accessLog().totalRecords(), 0u);
}

TEST_F(ExecFixture, EvaluateIsSideEffectFree)
{
    Subnet sn = subnet(0);
    const EvalSet eval = exec->makeEvalSet(42);
    float a = exec->evaluate(sn, eval);
    float b = exec->evaluate(sn, exec->makeEvalSet(42));
    EXPECT_EQ(a, b);
    EXPECT_EQ(store.accessLog().totalRecords(), 0u);
    // The eval seed matters.
    EXPECT_NE(exec->evaluate(sn, exec->makeEvalSet(43)), a);
}

TEST_F(ExecFixture, RecentMeanLoss)
{
    for (int i = 0; i < 5; i++)
        exec->trainSequential(subnet(i));
    double mean5 = exec->recentMeanLoss(5);
    double mean2 = exec->recentMeanLoss(2);
    EXPECT_GT(mean5, 0.0);
    EXPECT_GT(mean2, 0.0);
    EXPECT_EQ(exec->recentMeanLoss(100), exec->recentMeanLoss(5));
}

TEST_F(ExecFixture, DoubleBeginPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    EXPECT_THROW(exec->beginSubnet(sn), std::logic_error);
}

TEST_F(ExecFixture, InflightTracking)
{
    EXPECT_EQ(exec->inflight(), 0u);
    exec->beginSubnet(subnet(0));
    exec->beginSubnet(subnet(1, {1, 1, 1, 1}));
    EXPECT_EQ(exec->inflight(), 2u);
}

TEST(UpdateSemanticsName, Named)
{
    EXPECT_STREQ(updateSemanticsName(UpdateSemantics::Immediate),
                 "immediate");
    EXPECT_STREQ(updateSemanticsName(UpdateSemantics::WeightStash),
                 "weight-stash");
    EXPECT_STREQ(updateSemanticsName(UpdateSemantics::Deferred),
                 "deferred");
}

} // namespace
} // namespace naspipe
