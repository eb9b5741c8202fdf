/**
 * @file
 * Supervision-layer unit tests: the recovery policy's bounded
 * retries and exponential backoff, the heartbeat watchdog's hang
 * detection, and the seeded fault plan's determinism (the
 * executor-agnostic contract — one seed, one event sequence,
 * everywhere).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/heartbeat.h"
#include "fault/recovery_policy.h"
#include "fault/watchdog.h"

namespace naspipe {
namespace {

using fault::RecoveryPolicy;
using fault::Watchdog;
using fault::WorkerHeartbeat;
using fault::WorkerState;

TEST(RecoveryPolicy, BacksOffExponentiallyWithCap)
{
    RecoveryPolicy policy(
        RecoveryPolicy::Config{10, /*base=*/1.0, /*max=*/5.0});
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 1.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 2.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 4.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 5.0);  // capped
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 5.0);
    EXPECT_EQ(policy.totalRecoveries(), 5);
}

TEST(RecoveryPolicy, BoundsConsecutiveRetries)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{2, 1.0, 60.0});
    EXPECT_TRUE(policy.allowRetry());
    policy.nextBackoffSeconds();
    EXPECT_TRUE(policy.allowRetry());
    policy.nextBackoffSeconds();
    EXPECT_FALSE(policy.allowRetry());
    EXPECT_EQ(policy.consecutiveFailures(), 2);
}

TEST(RecoveryPolicy, ZeroRetriesRefusesTheFirstAttempt)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{0, 1.0, 60.0});
    EXPECT_FALSE(policy.allowRetry());
}

TEST(RecoveryPolicy, ProgressResetsTheConsecutiveCountNotTheTotal)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{2, 1.0, 60.0});
    policy.nextBackoffSeconds();
    policy.nextBackoffSeconds();
    EXPECT_FALSE(policy.allowRetry());
    policy.noteProgress();
    EXPECT_TRUE(policy.allowRetry());
    EXPECT_EQ(policy.consecutiveFailures(), 0);
    EXPECT_EQ(policy.totalRecoveries(), 2);
    // Backoff restarts at the base after progress.
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 1.0);
}

TEST(WorkerHeartbeat, TracksProgressAndState)
{
    WorkerHeartbeat hb;
    EXPECT_EQ(hb.progress(), 0u);
    EXPECT_EQ(hb.state(), WorkerState::Running);
    hb.beat();
    hb.beat();
    EXPECT_EQ(hb.progress(), 2u);
    hb.setState(WorkerState::Stalled);
    EXPECT_EQ(hb.state(), WorkerState::Stalled);
    EXPECT_STREQ(fault::workerStateName(WorkerState::Stalled),
                 "stalled");
}

TEST(Watchdog, FiresAtMostOncePerLifetime)
{
    std::vector<WorkerHeartbeat> hearts(2);
    std::atomic<int> fires{0};
    std::promise<void> first;
    auto firstFired = first.get_future();
    Watchdog::Config config;
    config.deadlineSeconds = 0.005;
    config.pollMs = 1;
    Watchdog dog(config, {&hearts[0], &hearts[1]},
                 [&](int, const std::string &) {
                     if (fires.fetch_add(1) == 0)
                         first.set_value();
                 });
    ASSERT_EQ(firstFired.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    // No beats keep arriving, so the hang persists for many more
    // polls; it must not re-fire the same watchdog — an incident
    // fails the owning service and nothing re-arms it.
    std::promise<void> settle;
    settle.get_future().wait_for(std::chrono::milliseconds(30));
    EXPECT_EQ(fires.load(), 1);
    EXPECT_EQ(dog.incidents(), 1);
}

TEST(Watchdog, QuietWhileWorkersAreHealthy)
{
    std::vector<WorkerHeartbeat> hearts(2);
    std::atomic<int> fires{0};
    {
        Watchdog dog(Watchdog::Config{}, {&hearts[0], &hearts[1]},
                     [&](int, const std::string &) { fires++; });
        // Exited is a clean drain, not an incident.
        hearts[0].setState(WorkerState::Exited);
        hearts[1].beat();
        std::promise<void> settle;
        settle.get_future().wait_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(fires.load(), 0);
}

TEST(Watchdog, WallDeadlineIsOptInAndDetectsHangs)
{
    std::vector<WorkerHeartbeat> hearts(2);
    std::promise<std::pair<int, std::string>> incident;
    auto fired = incident.get_future();
    Watchdog::Config config;
    config.deadlineSeconds = 0.01;
    config.pollMs = 1;
    hearts[0].setState(WorkerState::Exited);  // hung victim is [1]
    Watchdog dog(config, {&hearts[0], &hearts[1]},
                 [&incident](int worker, const std::string &reason) {
                     incident.set_value({worker, reason});
                 });
    ASSERT_EQ(fired.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    auto [worker, reason] = fired.get();
    EXPECT_EQ(worker, 1);
    EXPECT_NE(reason.find("no logical progress"), std::string::npos);
}

TEST(FaultPlan, SeededPlanIsAPureFunctionOfItsArguments)
{
    auto a = FaultInjector::randomPlan(42, 6, 100, 8);
    auto b = FaultInjector::randomPlan(42, 6, 100, 8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a[i].describe(), b[i].describe());

    auto c = FaultInjector::randomPlan(43, 6, 100, 8);
    std::string seqA, seqC;
    for (const FaultSpec &f : a)
        seqA += f.describe() + ";";
    for (const FaultSpec &f : c)
        seqC += f.describe() + ";";
    EXPECT_NE(seqA, seqC);
}

TEST(FaultPlan, InjectorFiresEachSpecExactlyOnce)
{
    FaultSpec crash;
    crash.kind = FaultKind::GpuCrash;
    crash.atStep = 5;
    FaultInjector injector({crash});
    EXPECT_TRUE(injector.due(4).empty());
    EXPECT_EQ(injector.due(5).size(), 1u);
    // A recovery rewinds the completion clock below the trigger and
    // replays through it; the fired flag prevents a refire.
    EXPECT_TRUE(injector.due(5).empty());
    EXPECT_EQ(injector.firedCount(), 1);
    EXPECT_FALSE(injector.anyPending());
}

} // namespace
} // namespace naspipe
