#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "exec/parallel_runtime.h"
#include "obs/logical_schedule.h"
#include "serve/service.h"
#include "supernet/sampler.h"

namespace perfbench {

using namespace naspipe;

namespace {

constexpr int kSoloSubnets = 1000;
constexpr int kSoloSubnetsTiny = 24;
constexpr int kServeSteps = 160;
constexpr int kServeStepsTiny = 16;
constexpr int kSimSubnets = 512;
constexpr int kSimSubnetsTiny = 16;
constexpr int kMaxReportedStages = 4;
/** Untraced and traced calls of a traced run, and the calls on the
 *  other worker count for the scaling pair. */
constexpr int kTracedCalls = 3;

/**
 * Weight hashes pinned at the default seed (7); each equals the
 * `weights` hex naspipe_cli prints for the same space, GPU count,
 * steps and seed. At any other seed the expected hash comes from the
 * other executor instead.
 */
struct Golden {
    const char *key;  ///< workload[/tiny][/job]
    std::uint64_t hash;
};
constexpr Golden kGoldens[] = {
    {"solo-w1", 0x00c2eb9a48b48650ULL},
    {"solo-w4", 0x4cc32ee5afbb62d6ULL},
    {"solo-w1/tiny", 0x59b1ab98fc53811fULL},
    {"solo-w4/tiny", 0xde56ccc71cc5315dULL},
    {"serve-mix/job1", 0x471a11404cbd7b3aULL},
    {"serve-mix/job2", 0x32dcf54647500b13ULL},
    {"serve-mix/job3", 0xd4a1e5a1c84b771cULL},
    {"serve-mix/job4", 0x9165f07143f1ce6bULL},
    {"serve-mix/tiny/job1", 0x6b0f5593300660d7ULL},
    {"serve-mix/tiny/job2", 0x6f5975d0770f6df3ULL},
    {"serve-mix/tiny/job3", 0x988fa6cbd04c9246ULL},
    {"serve-mix/tiny/job4", 0x7f5155f47c86bf0dULL},
    {"sim-g8", 0x4a8ba400b065b7a8ULL},
    {"sim-g8/tiny", 0xa8fd45636a2c2c30ULL},
    /** Digest of the simulated statistics (see simStatsDigest). */
    {"sim-g8/stats", 0x4cb36b2c706a1558ULL},
    {"sim-g8/tiny/stats", 0x75902efe4ce3db84ULL},
};

/** The pinned value for @p key at the default seed, or 0. */
std::uint64_t
golden(const Options &opt, const std::string &key)
{
    if (opt.seed != 7)
        return 0;
    for (const Golden &g : kGoldens) {
        if (key == g.key)
            return g.hash;
    }
    return 0;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

RuntimeConfig
baseConfig(int stages, int subnets, std::uint64_t seed)
{
    RuntimeConfig cfg;
    cfg.system = naspipeSystem();
    cfg.numStages = stages;
    cfg.totalSubnets = subnets;
    cfg.seed = seed;
    return cfg;
}

/** Timed calls until @p seconds have passed (at least @p minCalls). */
template <typename Call>
void
timedLoop(double seconds, int minCalls, Call call)
{
    obs::WallTimer timer;
    int calls = 0;
    while (calls < minCalls || timer.seconds() < seconds) {
        call();
        calls++;
    }
}

int
minCalls(const Options &opt)
{
    return opt.tiny ? 1 : 3;
}

template <typename T, typename F>
std::vector<double>
collect(const std::vector<T> &samples, F field)
{
    std::vector<double> out;
    for (const T &s : samples)
        out.push_back(field(s));
    return out;
}

/** The metrics every workload derives the same way. */
struct CallSample {
    double runS = 0.0;
    double trainS = 0.0;     ///< executor window / training part
    double setupS = 0.0;
    double cpuS = 0.0;
    double latencyS = 0.0;  ///< to the end of training (one job)
    int subnets = 0;
    PostRun post;
};

template <typename Call>
std::vector<CallSample>
samplesOf(const std::vector<Call> &calls)
{
    std::vector<CallSample> out;
    for (const Call &c : calls)
        out.push_back(c.sample);
    return out;
}

void
endToEnd(const std::vector<CallSample> &s, WorkloadResult &out)
{
    Metrics &m = out.metrics;
    double runS = median(collect(s, [](auto &c) { return c.runS; }));
    double trainS =
        median(collect(s, [](auto &c) { return c.trainS; }));
    double subnets = s.empty() ? 0.0 : s.front().subnets;
    double cpu = 0.0, total = 0.0;
    for (const CallSample &c : s) {
        cpu += c.cpuS;
        total += c.subnets;
    }
    m.set("run_s", runS, "s");
    m.set("subnets_per_s", runS > 0 ? subnets / runS : 0.0, "1/s");
    m.set("train_subnets_per_s", trainS > 0 ? subnets / trainS : 0.0,
          "1/s");
    m.set("setup_s",
          median(collect(s, [](auto &c) { return c.setupS; })), "s");
    m.set("cpu_s_per_ksubnet", total > 0 ? cpu / total * 1000.0 : 0.0,
          "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    // Each call is one job, so its p50 and its maximum coincide.
    double latency =
        median(collect(s, [](auto &c) { return c.latencyS; }));
    m.set("job_latency_p50_s", latency, "s");
    m.set("job_latency_max_s", latency, "s");
    out.notes.push_back({"timed_calls", std::to_string(s.size())});
    std::string runs;
    for (const CallSample &c : s)
        runs += (runs.empty() ? "" : " ") + std::to_string(c.runS);
    out.notes.push_back({"run_s_samples", runs});
}

/** Post-run phase metrics from untraced calls. */
void
postRunMetrics(const std::vector<CallSample> &s, Metrics &m)
{
    double runS = median(collect(s, [](auto &c) { return c.runS; }));
    double search = median(
        collect(s, [](auto &c) { return c.post.searchSeconds; }));
    double candidates =
        s.empty() ? 0.0
                  : static_cast<double>(s.front().post.candidates);
    m.set("train.search_s", search, "s");
    m.set("train.search_share", runS > 0 ? search / runS : 0.0,
          "ratio");
    m.set("train.eval_subnet_us",
          candidates > 0 ? search / candidates * 1e6 : 0.0, "us");
    m.set("train.hash_ms",
          median(collect(s, [](auto &c) {
              return c.post.hashSeconds;
          })) * 1e3,
          "ms");
    m.set("train.causality_scan_ms",
          median(collect(s, [](auto &c) {
              return c.post.scanSeconds;
          })) * 1e3,
          "ms");
}

void
overheadMetric(const std::vector<CallSample> &plain,
               const std::vector<CallSample> &traced, Metrics &m)
{
    double a = median(collect(plain, [](auto &c) { return c.runS; }));
    double b = median(collect(traced, [](auto &c) { return c.runS; }));
    m.set("trace.overhead_ratio", a > 0 ? b / a : 0.0, "ratio");
}

void
logicalMetrics(const SearchSpace &space, const RunResult &r,
               const RuntimeConfig &cfg, Metrics &m)
{
    obs::LogicalSchedule logical = obs::buildLogicalSchedule(
        space, r.sampled, r.partitions, cfg.numStages, r.metrics.batch,
        cfg.system.effectiveInflight(cfg.numStages));
    m.set("obs.logical_makespan_ticks",
          static_cast<double>(logical.makespan), "ticks");
    m.set("obs.logical_gate_wait_ticks",
          static_cast<double>(logical.totalGateWaitTicks), "ticks");
}

/** Append the tap's chain diagnosis to an oracle failure. */
void
explainOracleFailures(const CommitTap &tap,
                      std::vector<std::string> &fails)
{
    for (std::string &f : fails) {
        if (f.rfind("CSP oracle", 0) == 0)
            f += " (" + tap.chainDiagnosis() + ")";
    }
}

// ---------------------------------------------------------------
// solo-w1 / solo-w4

struct SoloCall {
    CallSample sample;
    RunMetrics metrics;
    std::vector<double> stageFirst, stageLast;
};

/** One checked call of runTrainingThreaded. */
SoloCall
soloCall(const SearchSpace &space, RuntimeConfig cfg,
         std::uint64_t expected, const Options &opt, bool traced,
         WorkloadResult &out, SpanLog &spans, RunResult *keep)
{
    auto tap = std::make_unique<CommitTap>();
    CommitTap *t = tap.get();
    cfg.traceEnabled = traced;
    cfg.commitObserver = [t](std::uint64_t key, SubnetId subnet,
                             std::size_t rank, int stage) {
        t->onCommit(key, subnet, rank, stage);
    };
    cfg.recoveryObserver = [t](int) { t->recovered(); };

    SoloCall call;
    double cpu0 = cpuSeconds();
    obs::TimePoint t0 = obs::now();
    tap->start(t0);
    RunResult r = runTrainingThreaded(space, cfg);
    obs::TimePoint t1 = obs::now();
    call.sample.cpuS = cpuSeconds() - cpu0;
    spans.add("runTrainingThreaded", t0, t1);
    if (traced && r.trace)
        spans.addProgram(r.trace->records(), t0);

    CallSample &s = call.sample;
    s.runS = obs::secondsBetween(t0, t1);
    s.trainS = r.metrics.wallSeconds;
    s.setupS = tap->firstCommitSeconds();
    s.latencyS = tap->lastCommitSeconds();
    s.subnets = cfg.totalSubnets;
    for (int k = 0; k < cfg.numStages; k++) {
        call.stageFirst.push_back(tap->stageFirstSeconds(k));
        call.stageLast.push_back(tap->stageLastSeconds(k));
    }

    std::vector<std::string> fails =
        checkRun(r, space, cfg.seed, cfg.totalSubnets, expected,
                 tap->oracle(), opt, &s.post, spans);
    if (!tap->sawCommit())
        fails.push_back("the commit observer saw no commit");
    explainOracleFailures(*tap, fails);
    out.checks.unit("solo w" + std::to_string(cfg.numStages), fails);
    call.metrics = r.metrics;
    if (keep)
        *keep = std::move(r);
    return call;
}

std::uint64_t
soloExpected(const Options &opt, const SearchSpace &space,
             const RuntimeConfig &cfg, WorkloadResult &out)
{
    std::string key = "solo-w" + std::to_string(cfg.numStages) +
                      (opt.tiny ? "/tiny" : "");
    if (std::uint64_t g = golden(opt, key))
        return g;
    // No pinned hash at this seed: the simulator is the reference.
    RunResult sim = runTraining(space, cfg);
    out.notes.push_back({"reference_" + key, hex(sim.supernetHash)});
    return sim.supernetHash;
}

double
trainRate(const std::vector<SoloCall> &calls)
{
    double w = median(
        collect(calls, [](auto &c) { return c.sample.trainS; }));
    return w > 0 && !calls.empty() ? calls.front().sample.subnets / w
                                   : 0.0;
}

void
stageMetrics(const std::vector<SoloCall> &calls, Metrics &m)
{
    for (int k = 0; k < kMaxReportedStages; k++) {
        auto share = [k](const SoloCall &c,
                         const std::vector<double> &v) {
            double w = c.metrics.wallSeconds;
            return k < static_cast<int>(v.size()) && w > 0
                       ? v[k] / w
                       : 0.0;
        };
        std::string p = "exec.stage" + std::to_string(k) + ".";
        m.set(p + "busy_share", median(collect(calls, [&](auto &c) {
                  return share(c, c.metrics.perStageBusySec);
              })),
              "ratio");
        m.set(p + "gate_wait_share",
              median(collect(calls, [&](auto &c) {
                  return share(c, c.metrics.perStageGateWaitSec);
              })),
              "ratio");
        m.set(p + "idle_share", median(collect(calls, [&](auto &c) {
                  return share(c, c.metrics.perStageIdleSec);
              })),
              "ratio");
    }
    const RunMetrics &last = calls.back().metrics;
    double fwd = 0.0, deferrals = 0.0;
    for (std::size_t k = 0; k < last.perStageForwards.size(); k++) {
        fwd += static_cast<double>(last.perStageForwards[k]);
        deferrals += static_cast<double>(last.perStageDeferrals[k]);
    }
    m.set("exec.deferrals_per_forward", fwd > 0 ? deferrals / fwd : 0.0,
          "ratio");
    m.set("exec.gate_commits", static_cast<double>(last.gateCommits),
          "count");
}

/** Stage busy time summed over stages, per subnet (median). */
double
busyPerSubnetUs(const std::vector<SoloCall> &calls)
{
    std::vector<double> perSubnet;
    for (const SoloCall &c : calls) {
        double busy = 0.0;
        for (double b : c.metrics.perStageBusySec)
            busy += b;
        perSubnet.push_back(busy / c.sample.subnets * 1e6);
    }
    return median(perSubnet);
}

void
commitTimeMetrics(const SoloCall &traced, Metrics &m)
{
    for (int k = 0; k < kMaxReportedStages; k++) {
        std::string p = "exec.stage" + std::to_string(k) + ".";
        bool has = k < static_cast<int>(traced.stageFirst.size());
        m.set(p + "first_commit_s", has ? traced.stageFirst[k] : 0.0,
              "s");
        m.set(p + "last_commit_s", has ? traced.stageLast[k] : 0.0,
              "s");
    }
}

void
spanMetrics(const RunResult &traced, Metrics &m)
{
    double fwd = 0.0, bwd = 0.0;
    int nf = 0, nb = 0;
    if (traced.trace) {
        for (const TraceRecord &r : traced.trace->records()) {
            double us = static_cast<double>(r.end - r.start) * 1e-3;
            if (r.kind == TraceKind::Forward) {
                fwd += us;
                nf++;
            } else if (r.kind == TraceKind::Backward) {
                bwd += us;
                nb++;
            }
        }
    }
    m.set("exec.fwd_span_us", nf ? fwd / nf : 0.0, "us");
    m.set("exec.bwd_span_us", nb ? bwd / nb : 0.0, "us");
}

void
checkRepeatedCommits(const std::vector<SoloCall> &calls,
                     WorkloadResult &out)
{
    for (const SoloCall &c : calls) {
        if (c.metrics.gateCommits != calls.front().metrics.gateCommits) {
            out.checks.unit("gate commit count",
                            {"gate commits differ between calls"});
            return;
        }
    }
}

// ---------------------------------------------------------------
// serve-mix

struct Tenant {
    const char *space;
    int priority;
    bool crash;  ///< drained checkpoints + a job-scoped crash
};
constexpr Tenant kTenants[] = {
    {"NLP.c1", 1, false},
    {"CV.c1", 2, true},
    {"NLP.c1", 2, false},
    {"CV.c1", 1, false},
};
constexpr int kServeStages = 4;

std::vector<serve::JobSpec>
serveSpecs(const Options &opt, int steps)
{
    std::vector<serve::JobSpec> specs;
    std::uint64_t i = 0;
    for (const Tenant &t : kTenants) {
        serve::JobSpec spec;
        spec.name = "tenant" + std::to_string(i + 1);
        spec.space = t.space;
        spec.seed = opt.seed + i++;
        spec.steps = steps;
        spec.priority = t.priority;
        if (t.crash) {
            spec.ckptInterval = std::max(2, steps / 4);
            FaultSpec crash;
            std::string why;
            bool ok = parseFaultSpec(
                "crash@" + std::to_string(steps * 5 / 8) + ",stage=2",
                crash, &why);
            NASPIPE_ASSERT(ok, "bad serve fault spec: ", why);
            spec.faults.push_back(crash);
        }
        specs.push_back(spec);
    }
    return specs;
}

struct ServeCall {
    std::vector<double> firstCommit;  ///< per job
    int subnets = 0;
    int recoveries = 0;
    int replayed = 0;
};

ServeCall
serveCall(const std::vector<serve::JobSpec> &specs,
          const std::vector<SearchSpace> &spaces,
          const std::vector<std::uint64_t> &expected, const Options &opt,
          WorkloadResult &out, SpanLog &spans)
{
    std::vector<std::unique_ptr<CommitTap>> taps;
    for (std::size_t i = 0; i <= specs.size(); i++)
        taps.push_back(std::make_unique<CommitTap>());
    auto tapOf = [&taps](int job) -> CommitTap * {
        return job > 0 && job < static_cast<int>(taps.size())
                   ? taps[job].get()
                   : nullptr;
    };
    serve::ServiceConfig sc;
    sc.numStages = kServeStages;
    sc.commitObserver = [tapOf](int job, std::uint64_t key,
                                SubnetId subnet, std::size_t rank,
                                int stage) {
        if (CommitTap *t = tapOf(job))
            t->onCommit(key, subnet, rank, stage);
    };
    sc.recoveryObserver = [tapOf](int job, int) {
        if (CommitTap *t = tapOf(job))
            t->recovered();
    };

    ServeCall call;
    serve::SearchService service(sc);
    std::string why;
    std::vector<int> ids = service.submitBatch(specs, &why);
    service.drain();
    obs::TimePoint t0 = obs::now();
    for (auto &t : taps)
        t->start(t0);
    int outcome = service.run();
    spans.add("SearchService::run", t0, obs::now());
    if (ids.size() != specs.size()) {
        for (std::size_t i = 0; i < specs.size(); i++)
            out.checks.unit(specs[i].name, {"submit rejected: " + why});
        return call;
    }

    for (std::size_t i = 0; i < specs.size(); i++) {
        const serve::ServeJob *job = service.job(ids[i]);
        CommitTap *tapPtr = tapOf(ids[i]);
        NASPIPE_ASSERT(tapPtr, "serve job id ", ids[i], " out of range");
        CommitTap &tap = *tapPtr;
        std::vector<std::string> fails;
        if (!job || job->state() != serve::JobState::Done) {
            fails.push_back("job did not finish: " +
                            (job ? job->error() : std::string("?")) +
                            " (service outcome " +
                            std::to_string(outcome) + ")");
        } else {
            std::vector<std::string> more =
                checkRun(job->result(), spaces[i], specs[i].seed,
                         specs[i].steps, expected[i], tap.oracle(),
                         opt, nullptr, spans);
            fails.insert(fails.end(), more.begin(), more.end());
            call.recoveries += job->recoveries();
            call.replayed += job->subnetsReplayed();
        }
        if (!specs[i].faults.empty() && job && job->recoveries() < 1)
            fails.push_back("the injected crash caused no recovery");
        if (!tap.sawCommit())
            fails.push_back("the commit observer saw no commit");
        explainOracleFailures(tap, fails);
        out.checks.unit(specs[i].name, fails);
        call.firstCommit.push_back(tap.firstCommitSeconds());
        call.subnets += specs[i].steps;
    }
    return call;
}

// ---------------------------------------------------------------
// sim-g8

constexpr int kSimGpus = 8;
constexpr const char *kSimSpace = "NLP.c2";

/** The default uniform sampler, noting when training draws first. */
class FirstDrawSampler : public UniformSampler
{
  public:
    FirstDrawSampler(const SearchSpace &space, std::uint64_t seed,
                     obs::TimePoint *firstDraw)
        : UniformSampler(space, seed), _firstDraw(firstDraw)
    {
    }

    Subnet next() override
    {
        if (produced() == 0)
            *_firstDraw = obs::now();
        return UniformSampler::next();
    }

  private:
    obs::TimePoint *_firstDraw;
};

/** Bitwise digest of the simulated statistics of a run. */
std::uint64_t
simStatsDigest(const RunMetrics &m)
{
    const double values[] = {
        m.simSeconds,        m.samplesPerSec,
        m.bubbleRatio,       m.meanExecSeconds,
        m.totalAluUtilization, m.cacheHitRate.value_or(-1.0),
        static_cast<double>(m.finishedSubnets),
        static_cast<double>(m.prefetchedBytes),
        static_cast<double>(m.syncFetchedBytes),
    };
    return hashBytes(values, sizeof values);
}

struct SimCall {
    CallSample sample;
    RunMetrics metrics;
};

/**
 * One checked sim-g8 call. The space is built inside the call: it is
 * one of the public set-up calls the run needs, and set-up time is
 * space construction + PipelineRuntime construction + run() start up
 * to the sampler's first draw.
 */
SimCall
simCall(const std::string &spaceName, RuntimeConfig cfg,
        std::uint64_t expectedHash, std::uint64_t &expectedStats,
        const Options &opt, bool traced, WorkloadResult &out,
        SpanLog &spans, RunResult *keep)
{
    obs::TimePoint firstDraw{};
    cfg.traceEnabled = traced;
    cfg.samplerFactory = [&firstDraw](const SearchSpace &s,
                                      std::uint64_t seed) {
        return std::make_unique<FirstDrawSampler>(s, seed, &firstDraw);
    };
    SimCall call;
    CallSample &s = call.sample;
    double cpu0 = cpuSeconds();
    obs::TimePoint ts = obs::now();
    SearchSpace space = makeSpaceByName(spaceName);
    obs::TimePoint t0 = obs::now();
    PipelineRuntime runtime(space, cfg);
    obs::TimePoint t1 = obs::now();
    RunResult r = runtime.run();
    obs::TimePoint t2 = obs::now();
    s.cpuS = cpuSeconds() - cpu0;
    spans.add("makeSpaceByName", ts, t0);
    spans.add("PipelineRuntime()", t0, t1);
    spans.add("PipelineRuntime::run", t1, t2);
    s.runS = obs::secondsBetween(t0, t2);
    s.setupS = obs::secondsBetween(ts, t1) +
               std::max(0.0, obs::secondsBetween(t1, firstDraw));
    s.subnets = cfg.totalSubnets;

    CspOracle oracle;
    std::vector<std::string> fails =
        checkRun(r, space, cfg.seed, cfg.totalSubnets, expectedHash,
                 oracle, opt, &s.post, spans);
    std::uint64_t stats = simStatsDigest(r.metrics);
    if (expectedStats == 0)
        expectedStats = stats;  // first call of an unpinned seed
    if (stats != expectedStats) {
        fails.push_back("simulated statistics changed (digest " +
                        hex(stats) + ", expected " +
                        hex(expectedStats) + ")");
    }
    out.checks.unit("sim", fails);
    // The simulator has no commit gate: its training part is the
    // call minus the post-run phases, re-timed on the run's store.
    s.trainS = std::max(1e-9, s.runS - s.post.searchSeconds -
                                  s.post.hashSeconds -
                                  s.post.scanSeconds);
    s.latencyS = s.trainS;
    call.metrics = r.metrics;
    if (keep) {
        // The store refers to this call's space; drop it with it.
        r.store.reset();
        *keep = std::move(r);
    }
    return call;
}

void
zeroFill(Metrics &m)
{
    for (const auto &[name, unit] : perModuleMetrics())
        m.set(name, 0.0, unit);
}

/** Untraced and traced calls of one solo configuration. */
struct TracedPair {
    std::vector<SoloCall> plain, traced;
    RunResult plainRun, tracedRun;
};

TracedPair
tracedPair(const SearchSpace &space, const RuntimeConfig &cfg,
           std::uint64_t expected, const Options &opt, SpanLog &spans,
           WorkloadResult &out)
{
    TracedPair pair;
    SpanLog off(false);
    // Untraced and traced calls alternate, so drift over the run
    // does not show up as tracing overhead.
    for (int i = 0; i < (opt.tiny ? 1 : kTracedCalls); i++) {
        pair.plain.push_back(soloCall(space, cfg, expected, opt, false,
                                      out, off, &pair.plainRun));
        pair.traced.push_back(soloCall(space, cfg, expected, opt, true,
                                       out, spans, &pair.tracedRun));
    }
    checkRepeatedCommits(pair.plain, out);
    return pair;
}

/**
 * The serve layers (admission, WRR, drained checkpoints, recovery
 * replay), measured on the serve mix: NLP.c1 and CV.c1 tenants with
 * WRR priorities 1 and 2 on one 4-stage pool, one CV.c1 job taking
 * drained checkpoints and a job-scoped crash.
 */
void
serveMetrics(const Options &opt, SpanLog &spans, WorkloadResult &out)
{
    const int steps = opt.tiny ? kServeStepsTiny : kServeSteps;
    std::vector<serve::JobSpec> specs = serveSpecs(opt, steps);
    std::vector<SearchSpace> spaces;
    std::vector<std::uint64_t> expected;
    for (std::size_t i = 0; i < specs.size(); i++) {
        spaces.push_back(makeSpaceByName(specs[i].space));
        std::string key = std::string("serve-mix") +
                          (opt.tiny ? "/tiny" : "") + "/job" +
                          std::to_string(i + 1);
        std::uint64_t g = golden(opt, key);
        if (g == 0) {
            // Reference: the fault-free simulator run of the tenant.
            RunResult sim = runTraining(
                spaces[i],
                baseConfig(kServeStages, steps, specs[i].seed));
            g = sim.supernetHash;
            out.notes.push_back({"reference_" + key, hex(g)});
        }
        expected.push_back(g);
    }
    ServeCall last;
    for (int i = 0; i < (opt.tiny ? 1 : kTracedCalls); i++)
        last = serveCall(specs, spaces, expected, opt, out, spans);
    Metrics &m = out.metrics;
    for (std::size_t j = 0; j < last.firstCommit.size(); j++) {
        m.set("serve.job" + std::to_string(j + 1) + ".first_commit_s",
              last.firstCommit[j], "s");
    }
    m.set("serve.recoveries", last.recoveries, "count");
    m.set("serve.replay_ratio",
          static_cast<double>(last.replayed) /
              std::max(1, last.subnets),
          "ratio");
}


} // namespace

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"run_s", "s"},
        {"subnets_per_s", "1/s"},
        {"train_subnets_per_s", "1/s"},
        {"setup_s", "s"},
        {"cpu_s_per_ksubnet", "s"},
        {"peak_rss_mb", "MB"},
        {"job_latency_p50_s", "s"},
        {"job_latency_max_s", "s"},
    };
    return k;
}

const std::vector<std::pair<std::string, std::string>> &
perModuleMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k =
        [] {
            std::vector<std::pair<std::string, std::string>> v = {
                {"tensor.layer_fwd_ns", "ns"},
                {"tensor.layer_bwd_ns", "ns"},
                {"tensor.sgd_step_ns", "ns"},
                {"common.philox_draw_ns", "ns"},
                {"train.store_peek_ns", "ns"},
                {"train.store_materialize_ns", "ns"},
                {"train.access_record_ns", "ns"},
                {"train.access_record_4t_ns", "ns"},
                {"train.subnet_step_us", "us"},
                {"train.search_s", "s"},
                {"train.search_share", "ratio"},
                {"train.search_share_w4", "ratio"},
                {"train.eval_subnet_us", "us"},
                {"train.hash_ms", "ms"},
                {"train.causality_scan_ms", "ms"},
                {"train.ckpt_save_ms", "ms"},
                {"exec.busy_us_per_subnet", "us"},
                {"exec.gate_commit_ns", "ns"},
                {"exec.gate_readable_ns", "ns"},
                {"exec.queue_handoff_us", "us"},
                {"exec.queue_handoff_p99_us", "us"},
                {"exec.deferrals_per_forward", "ratio"},
                {"exec.gate_commits", "count"},
                {"exec.fwd_span_us", "us"},
                {"exec.bwd_span_us", "us"},
                {"exec.model_speedup", "x"},
                {"exec.measured_speedup", "x"},
                {"obs.logical_makespan_ticks", "ticks"},
                {"obs.logical_gate_wait_ticks", "ticks"},
                {"serve.recoveries", "count"},
                {"serve.replay_ratio", "ratio"},
                {"sim.host_us_per_subnet", "us"},
                {"sim.samples_per_s", "1/s"},
                {"sim.bubble_ratio", "ratio"},
                {"schedule.policy_pick_ns", "ns"},
                {"schedule.predictor_ns", "ns"},
                {"trace.overhead_ratio", "ratio"},
            };
            for (int k = 0; k < kMaxReportedStages; k++) {
                std::string p = "exec.stage" + std::to_string(k) + ".";
                for (const char *n :
                     {"busy_share", "gate_wait_share", "idle_share"})
                    v.push_back({p + n, "ratio"});
                v.push_back({p + "first_commit_s", "s"});
                v.push_back({p + "last_commit_s", "s"});
            }
            for (std::size_t j = 1; j <= std::size(kTenants); j++) {
                v.push_back({"serve.job" + std::to_string(j) +
                                 ".first_commit_s",
                             "s"});
            }
            return v;
        }();
    return k;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> k = {"solo-w1", "sim-g8"};
    return k;
}

void
runSolo(const Options &opt, WorkloadResult &out)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    const int n = opt.tiny ? kSoloSubnetsTiny : kSoloSubnets;
    RuntimeConfig cfg = baseConfig(1, n, opt.seed);
    std::uint64_t expected = soloExpected(opt, space, cfg, out);
    {
        // Untimed warm-up: page in the code, the allocator and the
        // thread start-up path before anything is measured.
        RuntimeConfig warm = cfg;
        warm.totalSubnets = std::max(4, n / 4);
        runTrainingThreaded(space, warm);
    }

    if (!opt.trace) {
        std::vector<SoloCall> calls;
        SpanLog off(false);
        timedLoop(opt.seconds, minCalls(opt), [&] {
            calls.push_back(soloCall(space, cfg, expected, opt, false,
                                     out, off, nullptr));
        });
        checkRepeatedCommits(calls, out);
        endToEnd(samplesOf(calls), out);
        out.notes.push_back({"weight_hash", hex(expected)});
        return;
    }

    zeroFill(out.metrics);
    Metrics &m = out.metrics;
    SpanLog spans(true);
    TracedPair w1 = tracedPair(space, cfg, expected, opt, spans, out);
    postRunMetrics(samplesOf(w1.plain), m);
    overheadMetric(samplesOf(w1.plain), samplesOf(w1.traced), m);
    m.set("exec.busy_us_per_subnet", busyPerSubnetUs(w1.plain), "us");
    logicalMetrics(space, w1.plainRun, cfg, m);

    // The coordination layers: the same run on 4 stage workers, its
    // measured throughput next to the logical schedule's prediction.
    RuntimeConfig cfg4 = baseConfig(4, n, opt.seed);
    TracedPair w4 = tracedPair(space, cfg4,
                               soloExpected(opt, space, cfg4, out), opt,
                               spans, out);
    stageMetrics(w4.plain, m);
    Metrics post4;
    postRunMetrics(samplesOf(w4.plain), post4);
    m.set("train.search_share_w4",
          post4.all().at("train.search_share").first, "ratio");
    commitTimeMetrics(w4.traced.back(), m);
    spanMetrics(w4.tracedRun, m);
    double rate1 = trainRate(w1.plain), rate4 = trainRate(w4.plain);
    m.set("exec.measured_speedup", rate1 > 0 ? rate4 / rate1 : 0.0, "x");
    Metrics l4;
    logicalMetrics(space, w4.plainRun, cfg4, l4);
    double ms1 = m.all().at("obs.logical_makespan_ticks").first;
    double ms4 = l4.all().at("obs.logical_makespan_ticks").first;
    m.set("exec.model_speedup", ms4 > 0 ? ms1 / ms4 : 0.0, "x");

    serveMetrics(opt, spans, out);
    moduleTimings(opt, m);
    if (!opt.traceOut.empty())
        spans.write(opt.traceOut);
}

void
runSim(const Options &opt, WorkloadResult &out)
{
    SearchSpace space = makeSpaceByName(kSimSpace);
    const int n = opt.tiny ? kSimSubnetsTiny : kSimSubnets;
    RuntimeConfig cfg = baseConfig(kSimGpus, n, opt.seed);
    std::string key = std::string("sim-g8") + (opt.tiny ? "/tiny" : "");
    std::uint64_t expected = golden(opt, key);
    if (expected == 0) {
        // Reference: the threaded executor on the same run.
        RunResult thr = runTrainingThreaded(space, cfg);
        expected = thr.supernetHash;
        out.notes.push_back({"reference_" + key, hex(expected)});
    }
    std::uint64_t expectedStats = golden(opt, key + "/stats");

    SpanLog off(false), spans(true);
    {
        RuntimeConfig warm = cfg;
        warm.totalSubnets = std::max(4, n / 4);
        runTraining(space, warm);
    }

    std::vector<SimCall> calls;
    if (!opt.trace) {
        timedLoop(opt.seconds, minCalls(opt), [&] {
            calls.push_back(simCall(kSimSpace, cfg, expected, expectedStats,
                                    opt, false, out, off, nullptr));
        });
        endToEnd(samplesOf(calls), out);
        out.notes.push_back({"stats_digest", hex(expectedStats)});
        return;
    }

    zeroFill(out.metrics);
    const int reps = opt.tiny ? 1 : kTracedCalls;
    RunResult plainRun;
    std::vector<CallSample> tracedS;
    for (int i = 0; i < reps; i++) {
        calls.push_back(simCall(kSimSpace, cfg, expected, expectedStats,
                                opt, false, out, off, &plainRun));
        tracedS.push_back(simCall(kSimSpace, cfg, expected,
                                  expectedStats, opt, true, out, spans,
                                  nullptr)
                              .sample);
    }
    std::vector<CallSample> plainS = samplesOf(calls);
    Metrics &m = out.metrics;
    postRunMetrics(plainS, m);
    overheadMetric(plainS, tracedS, m);
    logicalMetrics(space, plainRun, cfg, m);
    m.set("sim.host_us_per_subnet",
          median(collect(plainS, [](auto &c) { return c.trainS; })) /
              n * 1e6,
          "us");
    m.set("sim.samples_per_s", plainRun.metrics.samplesPerSec, "1/s");
    m.set("sim.bubble_ratio", plainRun.metrics.bubbleRatio, "ratio");
    moduleTimings(opt, m);
    if (!opt.traceOut.empty())
        spans.write(opt.traceOut);
}

} // namespace perfbench
