/**
 * @file
 * Shared pieces of the naspipe benchmark runner: options, metric
 * collection, order statistics, process counters, the commit tap
 * that watches a run from outside through the public commit
 * observers, and the benchmark's own span log.
 */

#ifndef NASPIPE_PERFBENCH_PERF_UTIL_H
#define NASPIPE_PERFBENCH_PERF_UTIL_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/wall_clock.h"
#include "runtime/pipeline_runtime.h"
#include "verify/csp_oracle.h"

namespace perfbench {

/** Command-line options of one benchmark process. */
struct Options {
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    /** Small inputs and one timed call (the benchmark's own tests). */
    bool tiny = false;
    /** Test hooks: make a known-good run fail one correctness check. */
    bool injectWrongGolden = false;
    bool injectOracleViolation = false;
    /** Where the traced run writes its span file ("" = nowhere). */
    std::string traceOut;
};

/** Named metrics with units, emitted in name order. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::map<std::string, std::pair<double, std::string>> &
    all() const
    {
        return _values;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> _values;
};

/**
 * Correctness bookkeeping. A unit is one run call (solo, sim) or one
 * job (serve); it fails when any of its checks fails.
 */
class Checks
{
  public:
    /** Record one unit with its failed checks (empty = passed). */
    void unit(const std::string &label,
              const std::vector<std::string> &failures);
    int attempted() const { return _attempted; }
    int failed() const { return _failed; }
    const std::vector<std::string> &failures() const
    {
        return _failures;
    }

  private:
    int _attempted = 0;
    int _failed = 0;
    std::vector<std::string> _failures;
};

double median(std::vector<double> values);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);

/** Process user + system CPU seconds so far. */
double cpuSeconds();
/** Peak resident set of this process in MiB. */
double peakRssMb();

/**
 * Live view of one run (or one serve job) through the public commit
 * observer: a CspOracle for the commit-order check, the first and
 * last commit instants overall and per stage, and every observed
 * (layer, rank, subnet) so a live-order violation can be told apart
 * from a broken chain.
 */
class CommitTap
{
  public:
    static constexpr int kMaxStages = 16;

    CommitTap();
    CommitTap(const CommitTap &) = delete;
    CommitTap &operator=(const CommitTap &) = delete;

    /** Time origin of the run call; set right before it starts. */
    void start(naspipe::obs::TimePoint origin) { _origin = origin; }

    void onCommit(std::uint64_t layerKey, naspipe::SubnetId subnet,
                  std::size_t rank, int stage);
    /** A recovery rebuilt the gate: chains restart at rank 0. */
    void recovered();

    naspipe::CspOracle &oracle() { return _oracle; }

    /**
     * Whether the observed commits of every layer, ordered by rank,
     * form a gap-free chain of ascending subnets. When they do, a
     * live commit-order violation reflects the order in which the
     * observer calls arrived, not the order of the commits.
     */
    std::string chainDiagnosis() const;

    bool sawCommit() const { return _first.load() >= 0; }
    /** Seconds from the origin to the first / last commit. */
    double firstCommitSeconds() const;
    double lastCommitSeconds() const;
    double stageFirstSeconds(int stage) const;
    double stageLastSeconds(int stage) const;

  private:
    struct Event {
        std::uint64_t layerKey;
        std::size_t rank;
        naspipe::SubnetId subnet;
        int epoch;
    };

    naspipe::CspOracle _oracle;
    naspipe::obs::TimePoint _origin;
    std::atomic<int> _epoch{0};
    /** One event list per stage (the last slot: any other stage). */
    mutable std::array<std::mutex, kMaxStages + 1> _eventMu;
    std::array<std::vector<Event>, kMaxStages + 1> _events;
    std::atomic<std::int64_t> _first{-1};
    std::atomic<std::int64_t> _last{-1};
    std::array<std::atomic<std::int64_t>, kMaxStages> _stageFirst;
    std::array<std::atomic<std::int64_t>, kMaxStages> _stageLast;
};

/**
 * Spans the benchmark records around its calls into the library
 * (traced runs only), written out as Chrome trace-event JSON together
 * with the program's own Forward/Backward/Stall records.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    void add(const std::string &name, naspipe::obs::TimePoint begin,
             naspipe::obs::TimePoint end);
    /** Program trace records of one call that began at @p begin. */
    void addProgram(const std::vector<naspipe::TraceRecord> &records,
                    naspipe::obs::TimePoint begin);
    bool write(const std::string &path) const;

  private:
    struct Span {
        std::string name;
        double startUs = 0.0;
        double durUs = 0.0;
        int tid = 0;
    };
    bool _enabled;
    naspipe::obs::TimePoint _epoch;
    std::vector<Span> _spans;
};

/** The post-run phases, re-timed on a finished run's store. */
struct PostRun {
    double searchSeconds = 0.0;
    double hashSeconds = 0.0;
    double scanSeconds = 0.0;
    std::size_t candidates = 0;
};

/**
 * The checks every timed call shares, applied to one finished run:
 * run status, the expected weight hash, a clean oracle (post-run
 * audit of the access log plus whatever the live tap saw), and a
 * re-run of the post-run search that must reproduce bestSubnet.
 * Returns the failed checks; fills @p timing with the re-timed
 * post-run phases (when non-null) and spans around them.
 */
std::vector<std::string>
checkRun(const naspipe::RunResult &result,
         const naspipe::SearchSpace &space, std::uint64_t seed,
         int expectedSubnets, std::uint64_t expectedHash,
         naspipe::CspOracle &oracle, const Options &opt,
         PostRun *timing, SpanLog &spans);

/** Host and build stamp as a JSON object. */
std::string hostJson();

/** JSON string literal. */
std::string jsonString(const std::string &text);

} // namespace perfbench

#endif // NASPIPE_PERFBENCH_PERF_UTIL_H
