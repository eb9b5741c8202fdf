/**
 * @file
 * Pinned outputs of the discrete-event simulator.
 *
 * Every paper figure comes from PipelineRuntime, so its bookkeeping
 * (the Algorithm 2 checks, per-layer write counts, mirror pushes,
 * busy-time sums) must not move a single bit when its data structures
 * change. Each row runs one short simulation and pins two values: a
 * digest of the simulated statistics, per-subnet partitions and trace
 * (RunMetrics, the balanced partition of every subnet, every trace
 * record with its detail string), and the trained weight hash.
 *
 * The rows cover every update semantics the simulator models:
 * NASPipe (CSP, Immediate, mirroring, predictor), GPipe and VPipe
 * (BSP bulk flush, Deferred — writes counted at the flush), PipeDream
 * (ASP, WeightStash), on an NLP and a CV space, plus fail-stop runs
 * that roll back to a drained checkpoint and restore the completed
 * prefix through restoreCompleted.
 *
 * If an intentional change to the simulated schedule or the numeric
 * trajectory moves a value, the failure message prints the new one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/pipeline_runtime.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace {

/** FNV-1a accumulation over the fields of one run. */
class Digest
{
  public:
    void add(double v) { mix(&v, sizeof v); }
    void add(std::uint64_t v) { mix(&v, sizeof v); }
    void add(std::int64_t v) { mix(&v, sizeof v); }
    void add(int v) { add(static_cast<std::int64_t>(v)); }
    void add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        mix(s.data(), s.size());
    }
    std::uint64_t value() const { return _hash; }

  private:
    void mix(const void *data, std::size_t size)
    {
        _hash = hashBytes(data, size, _hash);
    }
    std::uint64_t _hash = 0xcbf29ce484222325ULL;
};

std::uint64_t
runDigest(const RunResult &r)
{
    const RunMetrics &m = r.metrics;
    Digest d;
    for (double v : {m.simSeconds, m.samplesPerSec, m.bubbleRatio,
                     m.meanExecSeconds, m.totalAluUtilization,
                     m.cacheHitRate.value_or(-1.0), m.finalLoss,
                     m.lostComputeSeconds, m.recoverySeconds,
                     m.checkpointSeconds}) {
        d.add(v);
    }
    for (double v : m.perGpuAlu)
        d.add(v);
    for (std::uint64_t v :
         {m.prefetchedBytes, m.syncFetchedBytes, m.cachePeakBytes,
          m.mirrorSyncBytes, m.mirrorsCreated, m.stallEmptyQueues,
          m.stallDependency, m.stallMirrorWait, m.checkpointBytes}) {
        d.add(v);
    }
    for (int v : {m.finishedSubnets, m.batch, m.faultsInjected,
                  m.recoveries, m.subnetsReplayed, m.checkpointsWritten,
                  m.causalViolations}) {
        d.add(v);
    }
    for (const auto &[id, loss] : r.losses) {
        d.add(static_cast<std::int64_t>(id));
        d.add(static_cast<double>(loss));
    }
    for (const SubnetPartition &p : r.partitions) {
        for (int s = 0; s < p.numStages(); s++)
            d.add(p.firstBlock(s));
    }
    if (r.trace) {
        for (const TraceRecord &rec : r.trace->records()) {
            d.add(static_cast<std::int64_t>(rec.start));
            d.add(static_cast<std::int64_t>(rec.end));
            d.add(rec.stage);
            d.add(static_cast<int>(rec.kind));
            d.add(static_cast<std::int64_t>(rec.subnet));
            d.add(rec.detail);
        }
    }
    return d.value();
}

enum class Fault { None, Crash };

struct Pinned {
    const char *label;
    SystemModel (*system)();
    const char *space;
    int gpus;
    int subnets;
    Fault fault;
    std::uint64_t digest;
    std::uint64_t weights;
};

// seed 7, batch derived by the capacity planner. The crash rows take
// a drained checkpoint every 8 subnets and lose stage 1 at the 13th
// completion, so the recovery restores an 8-subnet prefix.
const Pinned kPinned[] = {
    {"naspipe/NLP.c3", naspipeSystem, "NLP.c3", 4, 24, Fault::None,
     0x045544df5fecad44ULL, 0xdfc35e5a3d51e0c4ULL},
    {"naspipe/CV.c3", naspipeSystem, "CV.c3", 4, 24, Fault::None,
     0x78ea5ae5e0fc19feULL, 0xa60d0dd6ab238d96ULL},
    {"naspipe8/NLP.c2", naspipeSystem, "NLP.c2", 8, 32, Fault::None,
     0xd00d766d09b52f66ULL, 0x526ccd137810afb7ULL},
    {"gpipe/NLP.c3", gpipeSystem, "NLP.c3", 4, 24, Fault::None,
     0x88c613ecec013a2fULL, 0x0aa253075ff47cc4ULL},
    {"gpipe/CV.c3", gpipeSystem, "CV.c3", 4, 24, Fault::None,
     0xc20292ac6f33bbf0ULL, 0xf2df64623b5ed9f6ULL},
    {"pipedream/NLP.c3", pipedreamSystem, "NLP.c3", 4, 24, Fault::None,
     0xa35caf5b72abc406ULL, 0xb4173b4ea1957177ULL},
    {"pipedream/CV.c3", pipedreamSystem, "CV.c3", 4, 24, Fault::None,
     0xf07ab0042bc29568ULL, 0x3e53ccf2833927f8ULL},
    {"vpipe/NLP.c3", vpipeSystem, "NLP.c3", 4, 24, Fault::None,
     0x30eba7d228d35794ULL, 0x2c2a6cdf96791d30ULL},
    {"vpipe/CV.c3", vpipeSystem, "CV.c3", 4, 24, Fault::None,
     0x1fbdb81535e730bdULL, 0x282e3d6c1764f404ULL},
    {"naspipe-crash/NLP.c3", naspipeSystem, "NLP.c3", 4, 24, Fault::Crash,
     0x88f3b4688d436f17ULL, 0xdfc35e5a3d51e0c4ULL},
    {"gpipe-crash/CV.c3", gpipeSystem, "CV.c3", 4, 24, Fault::Crash,
     0xb4b7bd01ce39193aULL, 0xf2df64623b5ed9f6ULL},
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(SimPinned, StatisticsAndWeightsArePinned)
{
    for (const Pinned &p : kPinned) {
        SearchSpace space = makeSpaceByName(p.space);
        RuntimeConfig config;
        config.system = p.system();
        config.numStages = p.gpus;
        config.totalSubnets = p.subnets;
        config.seed = 7;
        config.traceEnabled = true;
        if (p.fault == Fault::Crash) {
            config.ckptInterval = 8;
            FaultSpec crash;
            crash.kind = FaultKind::GpuCrash;
            crash.atStep = 13;
            crash.stage = 1;
            config.faults.push_back(crash);
        }
        RunResult r = runTraining(space, config);
        ASSERT_FALSE(r.oom || r.failed) << p.label;
        EXPECT_EQ(r.metrics.finishedSubnets, p.subnets) << p.label;
        if (p.fault == Fault::Crash) {
            EXPECT_EQ(r.metrics.recoveries, 1) << p.label;
        }
        EXPECT_EQ(hex(runDigest(r)), hex(p.digest))
            << p.label << " statistics digest";
        EXPECT_EQ(hex(r.supernetHash), hex(p.weights))
            << p.label << " weight hash";
    }
}

} // namespace
} // namespace naspipe
