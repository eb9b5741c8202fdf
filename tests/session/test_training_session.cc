/**
 * @file
 * TrainingSession under a mock ExecutionBackend — the coordinator
 * core in isolation. The tests pin the injection-gate *ordering*
 * (budget, in-flight window, checkpoint drain barrier, backend veto,
 * feedback lag), the feedback-lag-exact score delivery, the drained
 * checkpoint cadence and restore/replay, the fail-stop rollback and
 * its retry policy, and the admissible()/pump() agreement contract
 * the serve layer's one-subnet-per-slot admission depends on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "session/training_session.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace {

/** Records every backend callback; canAdmit is a togglable veto
 *  whose consultations are counted (the gate-ordering probe). */
class MockBackend : public ExecutionBackend
{
  public:
    bool canAdmit(SubnetId next) const override
    {
        (void)next;
        canAdmitCalls++;
        return !veto;
    }
    void admit(SubnetId id) override { admitted.push_back(id); }
    void restoreCompleted(SubnetId id) override
    {
        restored.push_back(id);
    }
    void restartPhase() override { restarts++; }

    bool veto = false;
    mutable int canAdmitCalls = 0;
    int restarts = 0;
    std::vector<SubnetId> admitted;
    std::vector<SubnetId> restored;
};

RuntimeConfig
config(int steps, int window)
{
    RuntimeConfig c;
    c.system = naspipeSystem();
    c.system.maxInflight = window;  // pin the in-flight gate
    c.numStages = 2;
    c.totalSubnets = steps;
    c.seed = 7;
    return c;
}

struct Fixture {
    Fixture(const SearchSpace &space, const RuntimeConfig &c)
        : session(space, c)
    {
        session.attach(&backend);
        EXPECT_TRUE(session.initRun());
    }
    /** Complete subnet @p id with a synthetic loss. */
    bool complete(SubnetId id)
    {
        return session.recordCompletion(
            id, 0.5f + 0.01f * static_cast<float>(id),
            0.1 * (id + 1));
    }
    MockBackend backend;
    TrainingSession session;
};

TEST(TrainingSessionCore, PumpFillsTheInflightWindow)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 3);
    Fixture f(space, c);

    EXPECT_TRUE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 3);
    EXPECT_EQ(f.backend.admitted,
              (std::vector<SubnetId>{0, 1, 2}));
    EXPECT_EQ(f.session.inflight(), 3);
    EXPECT_FALSE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 0);

    f.complete(0);
    EXPECT_TRUE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 1);
    EXPECT_EQ(f.backend.admitted.back(), 3);
}

TEST(TrainingSessionCore, PumpMaxCountInjectsOneSlotAtATime)
{
    // The serve layer's WRR admits one subnet per slot: pump(1) must
    // inject exactly one and preserve the sequence order.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(6, 8);
    Fixture f(space, c);

    for (int i = 0; i < 6; i++)
        EXPECT_EQ(f.session.pump(1), 1) << "slot " << i;
    EXPECT_EQ(f.session.pump(1), 0);  // budget exhausted
    EXPECT_EQ(f.backend.admitted,
              (std::vector<SubnetId>{0, 1, 2, 3, 4, 5}));
}

TEST(TrainingSessionCore, VetoGateOrdering)
{
    // canAdmit sits AFTER the budget / in-flight / barrier gates and
    // BEFORE the feedback-lag gate: when an earlier gate blocks, the
    // backend is never consulted.
    SearchSpace space = makeSpaceByName("NLP.c1");

    {  // in-flight window full -> no consultation
        RuntimeConfig c = config(8, 2);
        Fixture f(space, c);
        EXPECT_EQ(f.session.pump(), 2);
        f.backend.canAdmitCalls = 0;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_EQ(f.session.pump(), 0);
        EXPECT_EQ(f.backend.canAdmitCalls, 0);
    }
    {  // injection budget exhausted -> no consultation
        RuntimeConfig c = config(2, 8);
        Fixture f(space, c);
        EXPECT_EQ(f.session.pump(), 2);
        f.complete(0);
        f.complete(1);
        f.backend.canAdmitCalls = 0;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_EQ(f.backend.canAdmitCalls, 0);
    }
    {  // checkpoint drain barrier -> no consultation
        RuntimeConfig c = config(8, 8);
        c.ckptInterval = 2;
        Fixture f(space, c);
        EXPECT_EQ(f.session.pump(), 2);  // stops at the barrier
        f.backend.canAdmitCalls = 0;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_EQ(f.backend.canAdmitCalls, 0);
    }
    {  // otherwise the veto IS consulted, and blocks the draw
        RuntimeConfig c = config(8, 8);
        Fixture f(space, c);
        f.backend.veto = true;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_GT(f.backend.canAdmitCalls, 0);
        EXPECT_EQ(f.session.pump(), 0);
        EXPECT_TRUE(f.backend.admitted.empty());
        // Releasing the veto resumes the exact sequence from 0.
        f.backend.veto = false;
        EXPECT_EQ(f.session.pump(), 8);
        EXPECT_EQ(f.backend.admitted.front(), 0);
    }
}

TEST(TrainingSessionCore, FeedbackLagGatesInjectionOnDeliveredScores)
{
    // lag = 3: subnet i may only be drawn once scores for every
    // subnet <= i-3 are *delivered* — delivery is in sequence-ID
    // order, so an out-of-order completion unlocks nothing until the
    // gap fills.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.feedbackLag = 3;
    Fixture f(space, c);
    EXPECT_EQ(f.session.effectiveFeedbackLag(), 3);

    EXPECT_EQ(f.session.pump(), 3);  // 0,1,2; 3 needs score(0)
    EXPECT_FALSE(f.session.admissible());

    f.complete(0);
    EXPECT_EQ(f.session.pump(), 1);  // 3 unlocked
    EXPECT_EQ(f.backend.admitted.back(), 3);

    f.complete(2);  // out of order: score(1) still missing
    EXPECT_FALSE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 0);

    f.complete(1);  // gap filled: scores 1 and 2 deliver in order
    EXPECT_EQ(f.session.pump(), 2);  // 4 and 5
    EXPECT_EQ(f.backend.admitted.back(), 5);

    f.complete(3);
    f.complete(4);
    f.complete(5);
    EXPECT_EQ(f.session.pump(), 2);  // 6 and 7: budget ends the run
    EXPECT_FALSE(f.session.admissible());
    f.complete(6);
    f.complete(7);
    EXPECT_EQ(f.session.finished(), 8);
}

TEST(TrainingSessionCore, CheckpointCadenceDrainsThePipeline)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.ckptInterval = 4;
    Fixture f(space, c);
    ASSERT_TRUE(f.session.ckptEnabled());
    EXPECT_EQ(f.session.nextCkptAt(), 4);

    // Injection pauses at the barrier even though the window (16)
    // has room, so finished == barrier implies inflight == 0.
    EXPECT_EQ(f.session.pump(), 4);
    EXPECT_FALSE(f.complete(0));
    EXPECT_FALSE(f.complete(1));
    EXPECT_FALSE(f.complete(2));
    EXPECT_TRUE(f.complete(3));  // the drained barrier
    EXPECT_EQ(f.session.inflight(), 0);

    RunCheckpoint ckpt = f.session.buildCheckpoint(1.0, 0.5);
    EXPECT_EQ(ckpt.completed, 4u);
    f.session.commitCheckpoint(ckpt);
    EXPECT_EQ(f.session.nextCkptAt(), 8);

    EXPECT_EQ(f.session.pump(), 4);
    EXPECT_FALSE(f.complete(4));
    EXPECT_FALSE(f.complete(5));
    EXPECT_FALSE(f.complete(6));
    EXPECT_TRUE(f.complete(7));
    EXPECT_EQ(f.session.finished(), 8);
}

TEST(TrainingSessionCore, RestoreReplaysWithoutReexecution)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.ckptInterval = 4;

    Fixture producer(space, c);
    EXPECT_EQ(producer.session.pump(), 4);
    for (SubnetId id = 0; id < 3; id++)
        producer.complete(id);
    ASSERT_TRUE(producer.complete(3));
    RunCheckpoint ckpt = producer.session.buildCheckpoint(1.0, 0.5);
    producer.session.commitCheckpoint(ckpt);

    // A fresh session restores the drained state: the backend sees
    // restoreCompleted (never admit) for every restored subnet, and
    // injection resumes at exactly subnet 4.
    Fixture resumed(space, c);
    ASSERT_TRUE(resumed.session.restore(ckpt));
    EXPECT_EQ(resumed.backend.restored,
              (std::vector<SubnetId>{0, 1, 2, 3}));
    EXPECT_TRUE(resumed.backend.admitted.empty());
    EXPECT_EQ(resumed.session.finished(), 4);
    EXPECT_EQ(resumed.session.injected(), 4);
    EXPECT_EQ(resumed.session.inflight(), 0);
    EXPECT_EQ(resumed.session.nextCkptAt(), 8);

    EXPECT_EQ(resumed.session.pump(), 4);
    EXPECT_EQ(resumed.backend.admitted,
              (std::vector<SubnetId>{4, 5, 6, 7}));
}

TEST(TrainingSessionCore, RecoverRollsBackToTheLastCheckpoint)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.ckptInterval = 4;
    Fixture f(space, c);
    EXPECT_EQ(f.session.pump(), 4);
    for (SubnetId id = 0; id < 3; id++)
        f.complete(id);
    ASSERT_TRUE(f.complete(3));
    f.session.commitCheckpoint(f.session.buildCheckpoint(1.0, 0.5));
    EXPECT_EQ(f.session.pump(), 4);
    f.complete(4);
    f.complete(5);

    // Crash with 6 and 7 in flight (the executor dropped them): the
    // backend rebuilds its phase before the checkpoint is restored,
    // and the clock resumes after the modeled restart and backoff.
    std::string error;
    ASSERT_TRUE(f.session.recover(2.0, 0.9, "test crash", &error))
        << error;
    EXPECT_EQ(f.backend.restarts, 1);
    EXPECT_EQ(f.backend.restored,
              (std::vector<SubnetId>{0, 1, 2, 3}));
    EXPECT_EQ(f.session.finished(), 4);
    EXPECT_EQ(f.session.inflight(), 0);
    EXPECT_EQ(f.session.recoveries(), 1);
    EXPECT_EQ(f.session.subnetsReplayed(), 2);
    EXPECT_EQ(f.session.recoveryAttempt(), 1);
    EXPECT_DOUBLE_EQ(f.session.secOffset(),
                     2.0 + c.recoverySeconds + c.recoveryBackoffSeconds);
    EXPECT_DOUBLE_EQ(f.session.busyOffset(), 0.5);

    // A completed subnet is progress: the next crash is again a
    // first attempt.
    EXPECT_EQ(f.session.pump(), 4);
    f.complete(4);
    EXPECT_EQ(f.session.recoveryAttempt(), 0);
}

TEST(TrainingSessionCore, RecoverStopsWhenRetriesAreExhausted)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.recoveryMaxRetries = 0;
    Fixture f(space, c);
    EXPECT_EQ(f.session.pump(), 8);
    f.complete(0);

    std::string error;
    EXPECT_FALSE(f.session.recover(1.0, 0.5, "test crash", &error));
    EXPECT_TRUE(f.session.retriesExhausted());
    EXPECT_NE(error.find("retries exhausted"), std::string::npos);
    EXPECT_NE(error.find("test crash"), std::string::npos);
    // Refused before anything rolled back.
    EXPECT_EQ(f.backend.restarts, 0);
    EXPECT_EQ(f.session.finished(), 1);
    EXPECT_EQ(f.session.recoveries(), 0);
}

TEST(TrainingSessionCore, AdmissibleAgreesWithPumpOne)
{
    // The contract the serve scheduler leans on: admissible() is
    // true exactly when pump(1) would inject. Walked across a run
    // that exercises every gate (narrow window, lag, checkpoints).
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(10, 2);
    c.feedbackLag = 2;
    c.ckptInterval = 3;
    Fixture f(space, c);

    SubnetId oldest = 0;
    int guard = 0;
    while (f.session.finished() < f.session.totalSubnets()) {
        ASSERT_LT(guard++, 200) << "run did not converge";
        bool could = f.session.admissible();
        int got = f.session.pump(1);
        EXPECT_EQ(could, got == 1)
            << "injected=" << f.session.injected()
            << " finished=" << f.session.finished();
        if (got == 1)
            continue;
        // Blocked: retire the oldest outstanding subnet, taking the
        // drained checkpoint when that completion is a barrier.
        ASSERT_LT(static_cast<int>(oldest), f.session.injected());
        if (f.complete(oldest++)) {
            RunCheckpoint ckpt =
                f.session.buildCheckpoint(1.0, 0.5);
            f.session.commitCheckpoint(ckpt);
        }
    }
    EXPECT_EQ(f.session.finished(), 10);
    EXPECT_FALSE(f.session.admissible());
}

} // namespace
} // namespace naspipe
