/**
 * @file
 * Fault-injection and recovery integration tests.
 *
 * The paper's Definition 1 makes a CSP run's trained weights a pure
 * function of (seed, scores-by-ID). These tests extend that claim to
 * runs that *fail*: a run interrupted by an injected GPU crash or
 * link drop, rolled back to the last drained checkpoint, and replayed
 * must terminate with the bitwise-identical supernet — on the paper's
 * own NLP.c1 and CV.c1 spaces and across GPU counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/engine.h"
#include "runtime/replay.h"
#include "train/run_checkpoint.h"

namespace naspipe {
namespace {

RuntimeConfig
baseConfig(int gpus, int steps, int batch, std::uint64_t seed = 7)
{
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = gpus;
    config.totalSubnets = steps;
    config.seed = seed;
    config.batch = batch;
    return config;
}

FaultSpec
crashAt(int step, int stage = 1)
{
    FaultSpec f;
    f.kind = FaultKind::GpuCrash;
    f.atStep = step;
    f.stage = stage;
    return f;
}

std::string
tempCkptPath(const std::string &tag)
{
    return ::testing::TempDir() + "naspipe_" + tag + ".ckpt";
}

TEST(FaultRecovery, CrashRecoveryMatchesFaultFreeRunOnPaperSpaces)
{
    // Acceptance gate: crash at step k, recover from the last drained
    // checkpoint, and terminate with the fault-free run's exact
    // weights — on NLP.c1 and CV.c1, each at two GPU counts with the
    // batch pinned (the paper's cross-cluster methodology).
    for (const char *name : {"NLP.c1", "CV.c1"}) {
        SearchSpace space = makeSpaceByName(name);
        int batch =
            Engine::commonBatch(space, naspipeSystem(), {4, 8});
        ASSERT_GT(batch, 0) << name;
        std::uint64_t referenceHash = 0;
        for (int gpus : {4, 8}) {
            RuntimeConfig clean = baseConfig(gpus, 20, batch);
            RunResult faultFree = runTraining(space, clean);
            ASSERT_FALSE(faultFree.oom) << name << " " << gpus;

            RuntimeConfig faulty = clean;
            faulty.ckptInterval = 8;
            faulty.faults = {crashAt(13)};
            RunResult recovered = runTraining(space, faulty);
            ASSERT_FALSE(recovered.oom);
            ASSERT_FALSE(recovered.failed) << recovered.error;

            EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash)
                << name << " on " << gpus << " GPUs";
            RunComparison cmp = compareRuns(faultFree, recovered);
            EXPECT_TRUE(cmp.reproducible())
                << name << " on " << gpus << " GPUs";

            const RunMetrics &m = recovered.metrics;
            EXPECT_EQ(m.faultsInjected, 1);
            EXPECT_EQ(m.recoveries, 1);
            EXPECT_GT(m.subnetsReplayed, 0);
            EXPECT_GE(m.checkpointsWritten, 1);
            EXPECT_GT(m.checkpointBytes, 0u);
            EXPECT_GT(m.recoverySeconds, 0.0);

            // And the recovered runs themselves agree across GPU
            // counts (Definition 1 survives the failure).
            if (referenceHash == 0)
                referenceHash = recovered.supernetHash;
            else
                EXPECT_EQ(recovered.supernetHash, referenceHash)
                    << name;
        }
    }
}

TEST(FaultRecovery, CrashBeforeFirstCheckpointRestartsFromZero)
{
    // A crash before any checkpoint exists replays the whole prefix:
    // every completed subnet is lost, and the run still converges to
    // the fault-free weights.
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = baseConfig(4, 24, 16);
    RunResult faultFree = runTraining(space, clean);
    ASSERT_FALSE(faultFree.oom);

    RuntimeConfig faulty = clean;
    faulty.ckptInterval = 16;
    faulty.faults = {crashAt(5)};
    RunResult recovered = runTraining(space, faulty);
    ASSERT_FALSE(recovered.failed) << recovered.error;
    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(recovered.metrics.recoveries, 1);
    EXPECT_EQ(recovered.metrics.subnetsReplayed, 5);
}

TEST(FaultRecovery, CrashWithoutCheckpointingStillReproduces)
{
    // ckptInterval == 0: no mid-run checkpoints at all, recovery
    // restarts training from subnet 0 and still matches.
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = baseConfig(4, 16, 16);
    RunResult faultFree = runTraining(space, clean);

    RuntimeConfig faulty = clean;
    faulty.faults = {crashAt(9)};
    RunResult recovered = runTraining(space, faulty);
    ASSERT_FALSE(recovered.failed) << recovered.error;
    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(recovered.metrics.subnetsReplayed, 9);
    EXPECT_EQ(recovered.metrics.checkpointsWritten, 0);
}

TEST(FaultRecovery, LinkDropRecoversLikeACrash)
{
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = baseConfig(4, 24, 16);
    RunResult faultFree = runTraining(space, clean);

    RuntimeConfig faulty = clean;
    faulty.ckptInterval = 8;
    FaultSpec drop;
    drop.kind = FaultKind::LinkDrop;
    drop.atStep = 14;
    drop.stage = 2;
    faulty.faults = {drop};
    RunResult recovered = runTraining(space, faulty);
    ASSERT_FALSE(recovered.failed) << recovered.error;
    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(recovered.metrics.recoveries, 1);
}

TEST(FaultRecovery, TransientFaultsPerturbTimingNotWeights)
{
    // Stalls and bandwidth degradation change the schedule, never
    // the training outcome: CSP's sequential equivalence absorbs
    // arbitrary timing skew without any recovery.
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = baseConfig(4, 24, 16);
    RunResult faultFree = runTraining(space, clean);

    RuntimeConfig faulty = clean;
    FaultSpec stall;
    stall.kind = FaultKind::StageStall;
    stall.atStep = 6;
    stall.stage = 2;
    stall.durationMs = 200.0;
    FaultSpec degrade;
    degrade.kind = FaultKind::LinkDegrade;
    degrade.atStep = 10;
    degrade.stage = 1;
    degrade.durationMs = 500.0;
    degrade.factor = 8.0;
    faulty.faults = {stall, degrade};
    RunResult perturbed = runTraining(space, faulty);
    ASSERT_FALSE(perturbed.failed) << perturbed.error;
    EXPECT_EQ(perturbed.supernetHash, faultFree.supernetHash);
    EXPECT_TRUE(compareRuns(faultFree, perturbed).reproducible());
    EXPECT_EQ(perturbed.metrics.faultsInjected, 2);
    EXPECT_EQ(perturbed.metrics.recoveries, 0);
    EXPECT_EQ(perturbed.metrics.subnetsReplayed, 0);
}

TEST(FaultRecovery, MultipleCrashesEachRecover)
{
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = baseConfig(4, 32, 16);
    RunResult faultFree = runTraining(space, clean);

    RuntimeConfig faulty = clean;
    faulty.ckptInterval = 4;
    faulty.faults = {crashAt(10, 1), crashAt(23, 3)};
    RunResult recovered = runTraining(space, faulty);
    ASSERT_FALSE(recovered.failed) << recovered.error;
    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(recovered.metrics.faultsInjected, 2);
    EXPECT_EQ(recovered.metrics.recoveries, 2);
    // Each recovery charges the modeled restart plus the retry
    // policy's backoff; the run progressed between the crashes, so
    // both were first attempts at the base backoff.
    EXPECT_DOUBLE_EQ(recovered.metrics.recoverySeconds,
                     2 * (faulty.recoverySeconds +
                          faulty.recoveryBackoffSeconds));
}

TEST(FaultRecovery, SeededRandomPlanIsDeterministicAndSurvivable)
{
    // Chaos-style: a seeded random plan is a pure function of its
    // arguments, and a run under it still reproduces the fault-free
    // weights (transient faults are absorbed; fail-stop ones
    // recover).
    auto planA = FaultInjector::randomPlan(11, 3, 20, 4);
    auto planB = FaultInjector::randomPlan(11, 3, 20, 4);
    ASSERT_EQ(planA.size(), planB.size());
    for (std::size_t i = 0; i < planA.size(); i++)
        EXPECT_EQ(planA[i].describe(), planB[i].describe());

    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = baseConfig(4, 24, 16);
    RunResult faultFree = runTraining(space, clean);

    RuntimeConfig faulty = clean;
    faulty.ckptInterval = 8;
    faulty.faults = planA;
    RunResult survived = runTraining(space, faulty);
    ASSERT_FALSE(survived.failed) << survived.error;
    EXPECT_EQ(survived.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(survived.metrics.faultsInjected,
              static_cast<int>(planA.size()));
}

TEST(FaultRecovery, ResumeFromCheckpointFileMatchesUninterrupted)
{
    // Produce a mid-run checkpoint file (the last drain boundary of
    // a 22-subnet run with interval 8 is subnet 16), then resume a
    // fresh process from it: the final weights must equal the
    // uninterrupted run's, on the same and on a different GPU count.
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    std::string path = tempCkptPath("resume");
    RuntimeConfig producer = baseConfig(4, 22, 16);
    producer.ckptInterval = 8;
    producer.ckptPath = path;
    RunResult full = runTraining(space, producer);
    ASSERT_FALSE(full.failed) << full.error;

    RunCheckpoint ckpt;
    ASSERT_TRUE(ckpt.loadFile(path));
    EXPECT_EQ(ckpt.completed, 16u);
    EXPECT_EQ(ckpt.totalSubnets, 22u);

    for (int gpus : {4, 8}) {
        RuntimeConfig resumer = baseConfig(gpus, 22, 16);
        resumer.resumePath = path;
        RunResult resumed = runTraining(space, resumer);
        ASSERT_FALSE(resumed.failed)
            << gpus << " GPUs: " << resumed.error;
        EXPECT_EQ(resumed.supernetHash, full.supernetHash)
            << "resumed on " << gpus << " GPUs";
    }
    std::remove(path.c_str());
}

TEST(FaultRecovery, ResumeRejectsMismatchedConfig)
{
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    std::string path = tempCkptPath("mismatch");
    RuntimeConfig producer = baseConfig(4, 22, 16);
    producer.ckptInterval = 8;
    producer.ckptPath = path;
    ASSERT_FALSE(runTraining(space, producer).failed);

    // Different seed: Definition 1's "same inputs" is violated, the
    // run must refuse rather than silently diverge.
    RuntimeConfig other = baseConfig(4, 22, 16, /*seed=*/8);
    other.resumePath = path;
    RunResult result = runTraining(space, other);
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.error.empty());
    std::remove(path.c_str());
}

TEST(FaultRecovery, CorruptResumeFileFailsCleanlyNotFatally)
{
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    std::string path = tempCkptPath("corrupt");
    RuntimeConfig producer = baseConfig(4, 22, 16);
    producer.ckptInterval = 8;
    producer.ckptPath = path;
    ASSERT_FALSE(runTraining(space, producer).failed);

    // Flip one byte in the middle of the file.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] ^= 0x20;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    RuntimeConfig resumer = baseConfig(4, 22, 16);
    resumer.resumePath = path;
    RunResult result = runTraining(space, resumer);
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.error.empty());

    // Truncated file: same clean failure.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 3));
    }
    result = runTraining(space, resumer);
    EXPECT_TRUE(result.failed);

    // Missing file: clean failure too.
    std::remove(path.c_str());
    result = runTraining(space, resumer);
    EXPECT_TRUE(result.failed);
}

TEST(FaultRecovery, CheckpointWriteCostIsAccounted)
{
    // Checkpointing is not free: the overhead model must surface the
    // write time and bytes so the interval can be tuned (see
    // bench/fault_recovery_overhead.cc).
    SearchSpace space("faults", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig config = baseConfig(4, 24, 16);
    config.ckptInterval = 8;
    RunResult result = runTraining(space, config);
    ASSERT_FALSE(result.failed) << result.error;
    EXPECT_EQ(result.metrics.checkpointsWritten, 3);
    EXPECT_GT(result.metrics.checkpointBytes, 0u);
    EXPECT_GT(result.metrics.checkpointSeconds, 0.0);
    EXPECT_EQ(result.metrics.faultsInjected, 0);

    // And checkpointing alone must not change the outcome.
    RunResult plain = runTraining(space, baseConfig(4, 24, 16));
    EXPECT_EQ(result.supernetHash, plain.supernetHash);
}

TEST(FaultRecovery, EvolutionSearchRecoversWithFeedbackLag)
{
    // The hardest case: a feedback-driven sampler whose draws depend
    // on delivered scores. The checkpoint captures the score frontier
    // and the replay feeds scores back at the same logical lag, so
    // even evolution search survives a crash bitwise.
    SearchSpace space("faults-evo", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = baseConfig(4, 32, 16);
    clean.evolutionSearch = true;
    RunResult faultFree = runTraining(space, clean);
    ASSERT_FALSE(faultFree.oom);

    RuntimeConfig faulty = clean;
    faulty.ckptInterval = 8;
    faulty.faults = {crashAt(19, 2)};
    RunResult recovered = runTraining(space, faulty);
    ASSERT_FALSE(recovered.failed) << recovered.error;
    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    ASSERT_EQ(recovered.sampled.size(), faultFree.sampled.size());
    for (std::size_t i = 0; i < faultFree.sampled.size(); i++)
        EXPECT_EQ(recovered.sampled[i], faultFree.sampled[i])
            << "draw " << i;
}

} // namespace
} // namespace naspipe
