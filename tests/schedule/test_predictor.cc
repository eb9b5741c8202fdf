/**
 * @file
 * Context predictor tests (Algorithm 3): the simulator's Predictor
 * and the threaded executor's ExecPredictor.
 */

#include <gtest/gtest.h>

#include "mock_stage.h"
#include "schedule/exec_predictor.h"
#include "schedule/predictor.h"

namespace naspipe {
namespace {

Subnet
sn(SubnetId id, std::vector<std::uint16_t> choices)
{
    return Subnet(id, std::move(choices));
}

struct FetchRecorder {
    std::vector<std::pair<Task, PredictReason>> calls;

    Predictor::FetchFn
    fn()
    {
        return [this](const Task &t, PredictReason r) {
            calls.emplace_back(t, r);
        };
    }
};

TEST(Predictor, BackwardBranchPredictsReleasedForward)
{
    // SN1 is blocked by SN0; receiving SN0's backward should predict
    // SN1's forward (Algorithm 3 lines 4-8).
    MockStage stage(0, 2, 0, 1);
    stage.addSubnet(sn(0, {2, 2}));
    stage.addSubnet(sn(1, {2, 3}));
    stage.queueFwd(1);

    Predictor predictor;
    FetchRecorder rec;
    predictor.beforeBackward(stage, 0, {}, rec.fn());
    ASSERT_EQ(rec.calls.size(), 1u);
    EXPECT_EQ(rec.calls[0].first,
              (Task{TaskType::Forward, 1, 0}));
    EXPECT_EQ(rec.calls[0].second, PredictReason::AfterBackward);
}

TEST(Predictor, BackwardBranchRecordsPendingBackwards)
{
    MockStage stage(0, 2, 0, 1);
    stage.addSubnet(sn(0, {0, 0}));
    Predictor predictor;
    FetchRecorder rec;
    std::vector<PendingBackward> carried = {{5, 5}, {6, 6}};
    predictor.beforeBackward(stage, 0, carried, rec.fn());
    EXPECT_EQ(predictor.blocked().size(), 2u);
    EXPECT_EQ(predictor.stats().pendingRecorded, 2u);
    // Duplicate deliveries are de-duplicated.
    predictor.beforeBackward(stage, 0, carried, rec.fn());
    EXPECT_EQ(predictor.blocked().size(), 2u);
}

TEST(Predictor, ForwardBranchReleasesPendingBackward)
{
    MockStage stage(1, 2, 1, 1);
    stage.addSubnet(sn(0, {0, 0}));
    Predictor predictor;
    FetchRecorder rec;
    predictor.beforeBackward(stage, 0, {{7, 7}}, rec.fn());
    rec.calls.clear();
    // Forward of SN7 runs: the pending backward's context is fetched.
    predictor.beforeForward(stage, 7, rec.fn());
    ASSERT_FALSE(rec.calls.empty());
    EXPECT_EQ(rec.calls[0].first,
              (Task{TaskType::Backward, 7, 1}));
    EXPECT_EQ(rec.calls[0].second,
              PredictReason::ReleasedBackward);
    EXPECT_TRUE(predictor.blocked().empty());
}

TEST(Predictor, DropsPendingBackwardsThatCanNeverBeReleased)
{
    // A record whose precedence forward already ran on the stage, or
    // whose subnet already finished here, is never released, so it is
    // not kept (nor counted); the rest are recorded as before.
    MockStage stage(1, 2, 1, 1);
    stage.addSubnet(sn(0, {0, 0}));
    stage.addSubnet(sn(1, {1, 1}));
    stage.finish(0);
    Predictor predictor;
    FetchRecorder rec;
    predictor.beforeForward(stage, 1, rec.fn());
    predictor.beforeBackward(stage, 0, {{0, 0}, {1, 1}, {2, 2}},
                             rec.fn());
    EXPECT_EQ(predictor.blocked(),
              (std::vector<PendingBackward>{{2, 2}}));
    EXPECT_EQ(predictor.stats().pendingRecorded, 1u);
    // Once SN2's forward runs its record is released, and a late
    // carrier of it records nothing.
    predictor.beforeForward(stage, 2, rec.fn());
    predictor.beforeBackward(stage, 0, {{2, 2}}, rec.fn());
    EXPECT_TRUE(predictor.blocked().empty());
    EXPECT_EQ(predictor.stats().pendingRecorded, 1u);
}

TEST(Predictor, ForwardBranchPredictsNextForward)
{
    MockStage stage(0, 2, 0, 1);
    stage.addSubnet(sn(0, {0, 0}));
    stage.addSubnet(sn(1, {1, 1}));
    stage.addSubnet(sn(2, {2, 2}));
    // SN1 already popped (it is the current forward); SN2 queued.
    stage.queueFwd(2);
    Predictor predictor;
    FetchRecorder rec;
    predictor.beforeForward(stage, 1, rec.fn());
    ASSERT_EQ(rec.calls.size(), 1u);
    EXPECT_EQ(rec.calls[0].first, (Task{TaskType::Forward, 2, 0}));
    EXPECT_EQ(rec.calls[0].second, PredictReason::AfterForward);
}

TEST(Predictor, NoPredictionWhenQueueBlocked)
{
    MockStage stage(0, 2, 0, 1);
    stage.addSubnet(sn(0, {4, 4}));
    stage.addSubnet(sn(1, {4, 4}));
    stage.addSubnet(sn(2, {4, 4}));
    stage.queueFwd(2);  // blocked by unfinished SN1 (and SN0)
    Predictor predictor;
    FetchRecorder rec;
    // Receiving SN0's backward does not release SN2 (SN1 remains).
    predictor.beforeBackward(stage, 0, {}, rec.fn());
    EXPECT_TRUE(rec.calls.empty());
}

TEST(Predictor, PredictionLooksPastPendingWrites)
{
    // The whole point of prediction: the blocker's write has not
    // landed yet, but the fetch must start now.
    MockStage stage(0, 2, 0, 1);
    stage.addSubnet(sn(0, {2, 2}));
    stage.addSubnet(sn(1, {2, 3}));
    stage.queueFwd(1);
    stage.setWritesPending(1, true);
    Predictor predictor;
    FetchRecorder rec;
    predictor.beforeBackward(stage, 0, {}, rec.fn());
    EXPECT_EQ(rec.calls.size(), 1u);
}

TEST(Predictor, StatsAccumulate)
{
    MockStage stage(0, 2, 0, 1);
    stage.addSubnet(sn(0, {0, 0}));
    stage.addSubnet(sn(1, {1, 1}));
    stage.queueFwd(1);
    Predictor predictor;
    FetchRecorder rec;
    predictor.beforeBackward(stage, 0, {}, rec.fn());
    predictor.beforeForward(stage, 1, rec.fn());
    EXPECT_EQ(predictor.stats().calls, 2u);
    EXPECT_GE(predictor.stats().fetchesRequested, 1u);
}

TEST(Predictor, NullFetchPanics)
{
    MockStage stage(0, 2, 0, 1);
    stage.addSubnet(sn(0, {0, 0}));
    Predictor predictor;
    EXPECT_THROW(predictor.beforeForward(stage, 0, nullptr),
                 std::logic_error);
}

TEST(ExecPredictor, DisabledNamesAndCountsNothing)
{
    ExecPredictor predictor(false);
    EXPECT_TRUE(predictor.beforeForward(1, {2, 3, 4}).empty());
    EXPECT_TRUE(predictor.beforeBackward({2, 3, 4}).empty());
    EXPECT_EQ(predictor.stats().beforeForward, 0u);
    EXPECT_EQ(predictor.stats().beforeBackward, 0u);
    EXPECT_EQ(predictor.stats().predicted, 0u);
}

TEST(ExecPredictor, BeforeForwardSkipsCurrentUpToTheDepth)
{
    static_assert(ExecPredictor::kPrefetchDepth == 2);
    ExecPredictor predictor(true);
    EXPECT_EQ(predictor.beforeForward(4, {3, 4, 5, 6}),
              (std::vector<SubnetId>{3, 5}));
    EXPECT_EQ(predictor.beforeForward(7, {8}),
              (std::vector<SubnetId>{8}));
    EXPECT_TRUE(predictor.beforeForward(7, {7}).empty());
    EXPECT_EQ(predictor.stats().beforeForward, 3u);
}

TEST(ExecPredictor, BeforeBackwardNamesTheLowestQueuedForwards)
{
    ExecPredictor predictor(true);
    EXPECT_EQ(predictor.beforeBackward({5, 7, 9}),
              (std::vector<SubnetId>{5, 7}));
    EXPECT_TRUE(predictor.beforeBackward({}).empty());
    EXPECT_EQ(predictor.stats().beforeBackward, 2u);
}

TEST(ExecPredictor, PredictedCountsEverySubnetNamed)
{
    ExecPredictor predictor(true);
    std::size_t named = predictor.beforeForward(0, {1, 2, 3}).size() +
                        predictor.beforeBackward({4}).size() +
                        predictor.beforeBackward({}).size();
    EXPECT_EQ(named, 3u);
    EXPECT_EQ(predictor.stats().predicted, named);
}

} // namespace
} // namespace naspipe
