#include "perf_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "train/convergence.h"
#include "train/numeric_executor.h"

namespace perfbench {

using namespace naspipe;

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    _values[name] = {value, unit};
}

void
Checks::unit(const std::string &label,
             const std::vector<std::string> &failures)
{
    _attempted++;
    if (failures.empty())
        return;
    _failed++;
    for (const std::string &f : failures)
        _failures.push_back(label + ": " + f);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

CommitTap::CommitTap() : _origin(obs::now())
{
    for (auto &v : _stageFirst)
        v.store(-1);
    for (auto &v : _stageLast)
        v.store(-1);
}

namespace {

void
storeMin(std::atomic<std::int64_t> &slot, std::int64_t t)
{
    std::int64_t prev = slot.load(std::memory_order_relaxed);
    while ((prev < 0 || t < prev) &&
           !slot.compare_exchange_weak(prev, t,
                                       std::memory_order_relaxed)) {
    }
}

void
storeMax(std::atomic<std::int64_t> &slot, std::int64_t t)
{
    std::int64_t prev = slot.load(std::memory_order_relaxed);
    while (t > prev &&
           !slot.compare_exchange_weak(prev, t,
                                       std::memory_order_relaxed)) {
    }
}

double
nsToSeconds(std::int64_t ns)
{
    return ns < 0 ? 0.0 : static_cast<double>(ns) * 1e-9;
}

} // namespace

void
CommitTap::onCommit(std::uint64_t layerKey, SubnetId subnet,
                    std::size_t rank, int stage)
{
    _oracle.observeCommit(layerKey, subnet, rank, stage);
    std::int64_t t =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            obs::now() - _origin)
            .count();
    storeMin(_first, t);
    storeMax(_last, t);
    int slot = stage >= 0 && stage < kMaxStages ? stage : kMaxStages;
    if (slot < kMaxStages) {
        storeMin(_stageFirst[slot], t);
        storeMax(_stageLast[slot], t);
    }
    std::lock_guard<std::mutex> lock(_eventMu[slot]);
    _events[slot].push_back({layerKey, rank, subnet, _epoch.load()});
}

void
CommitTap::recovered()
{
    _oracle.resetLiveChains();
    _epoch++;
}

std::string
CommitTap::chainDiagnosis() const
{
    std::map<std::pair<int, std::uint64_t>,
             std::vector<std::pair<std::size_t, SubnetId>>>
        chains;
    for (int slot = 0; slot <= kMaxStages; slot++) {
        std::lock_guard<std::mutex> lock(_eventMu[slot]);
        for (const Event &e : _events[slot])
            chains[{e.epoch, e.layerKey}].push_back({e.rank, e.subnet});
    }
    for (auto &[key, chain] : chains) {
        std::sort(chain.begin(), chain.end());
        for (std::size_t i = 0; i < chain.size(); i++) {
            if (chain[i].first != i ||
                (i > 0 && chain[i].second <= chain[i - 1].second)) {
                return "the observed commits of layer key " +
                       std::to_string(key.second) +
                       " do not form a gap-free ascending chain";
            }
        }
    }
    return "ordered by rank, the observed commits of every layer form "
           "a gap-free ascending chain";
}

double
CommitTap::firstCommitSeconds() const
{
    return nsToSeconds(_first.load());
}

double
CommitTap::lastCommitSeconds() const
{
    return nsToSeconds(_last.load());
}

double
CommitTap::stageFirstSeconds(int stage) const
{
    return stage >= 0 && stage < kMaxStages
               ? nsToSeconds(_stageFirst[stage].load())
               : 0.0;
}

double
CommitTap::stageLastSeconds(int stage) const
{
    return stage >= 0 && stage < kMaxStages
               ? nsToSeconds(_stageLast[stage].load())
               : 0.0;
}

SpanLog::SpanLog(bool enabled) : _enabled(enabled), _epoch(obs::now())
{
}

void
SpanLog::add(const std::string &name, obs::TimePoint begin,
             obs::TimePoint end)
{
    if (!_enabled)
        return;
    _spans.push_back({name, obs::secondsBetween(_epoch, begin) * 1e6,
                      obs::secondsBetween(begin, end) * 1e6, 0});
}

void
SpanLog::addProgram(const std::vector<TraceRecord> &records,
                    obs::TimePoint begin)
{
    if (!_enabled)
        return;
    // The executor's clock starts after its set-up, so these spans
    // sit early by the set-up time relative to the benchmark's own.
    double base = obs::secondsBetween(_epoch, begin) * 1e6;
    for (const TraceRecord &r : records) {
        _spans.push_back({traceKindName(r.kind),
                          base + static_cast<double>(r.start) * 1e-3,
                          static_cast<double>(r.end - r.start) * 1e-3,
                          1 + r.stage});
    }
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < _spans.size(); i++) {
        const Span &s = _spans[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f}",
                      s.tid, s.startUs, s.durUs);
        out << (i ? "," : "") << "\n{\"name\":" << jsonString(s.name)
            << "," << buf;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

std::vector<std::string>
checkRun(const RunResult &result, const SearchSpace &space,
         std::uint64_t seed, int expectedSubnets,
         std::uint64_t expectedHash, CspOracle &oracle,
         const Options &opt, PostRun *timing, SpanLog &spans)
{
    std::vector<std::string> fails;
    if (result.oom)
        fails.push_back("run reported OOM");
    if (result.failed)
        fails.push_back("run failed: " + result.error);
    if (result.retriesExhausted)
        fails.push_back("recovery retries exhausted");
    if (!result.store) {
        fails.push_back("run returned no parameter store");
        return fails;
    }
    if (result.metrics.finishedSubnets != expectedSubnets) {
        fails.push_back("finished " +
                        std::to_string(result.metrics.finishedSubnets) +
                        " of " + std::to_string(expectedSubnets) +
                        " subnets");
    }
    if (opt.injectWrongGolden)
        expectedHash ^= 1;
    if (result.supernetHash != expectedHash) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "weight hash %016llx, expected %016llx",
                      static_cast<unsigned long long>(
                          result.supernetHash),
                      static_cast<unsigned long long>(expectedHash));
        fails.push_back(buf);
    }
    if (opt.injectOracleViolation) {
        // A commit at rank 1 on a chain that never saw rank 0.
        oracle.observeCommit(~0ULL, 0, 1, -1);
    }
    oracle.auditLog(result.store->accessLog());
    if (!oracle.ok()) {
        std::vector<CspViolation> v = oracle.violations();
        fails.push_back("CSP oracle: " + std::to_string(v.size()) +
                        " violation(s), first: " + v.front().describe());
    }
    if (result.metrics.causalViolations != 0) {
        fails.push_back(
            std::to_string(result.metrics.causalViolations) +
            " layers with a non-sequential history");
    }

    // The post-run phases again, on the run's own store: the search
    // must pick the same subnet and the hash must not move.
    NumericExecutor::Config ec;
    ec.dataSeed = deriveSeed(seed, "data");
    ec.batch = result.metrics.batch;
    NumericExecutor exec(*result.store, ec);
    obs::TimePoint t0 = obs::now();
    SearchResult search =
        searchBestSubnet(exec, result.sampled,
                         defaultScoreScale(space.family()),
                         deriveSeed(seed, "search"));
    obs::TimePoint t1 = obs::now();
    spans.add("searchBestSubnet", t0, t1);
    if (search.best.id() != result.bestSubnet) {
        fails.push_back("re-run search picked SN" +
                        std::to_string(search.best.id()) +
                        ", run reported SN" +
                        std::to_string(result.bestSubnet));
    }
    std::uint64_t hash = result.store->supernetHash();
    obs::TimePoint t2 = obs::now();
    spans.add("ParameterStore::supernetHash", t1, t2);
    if (hash != result.supernetHash)
        fails.push_back("weight hash changed after the run");
    const AccessLog &log = result.store->accessLog();
    int violated = 0;
    for (const LayerId &layer : log.touchedLayers()) {
        if (!log.sequentiallyEquivalent(layer))
            violated++;
    }
    obs::TimePoint t3 = obs::now();
    spans.add("causality scan", t2, t3);
    if (violated != 0)
        fails.push_back("causality scan found violated layers");

    if (timing) {
        timing->searchSeconds = obs::secondsBetween(t0, t1);
        timing->hashSeconds = obs::secondsBetween(t1, t2);
        timing->scanSeconds = obs::secondsBetween(t2, t3);
        timing->candidates = result.sampled.size();
    }
    return fails;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t start =
                    line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos
                           ? ""
                           : line.substr(start);
            }
        }
    }
    return "unknown";
}

} // namespace

std::string
hostJson()
{
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu_model\":" << jsonString(cpuModel())
       << ",\"compiler\":" << jsonString(PERF_COMPILER)
       << ",\"build_type\":" << jsonString(PERF_BUILD_TYPE)
       << ",\"cxx_flags\":" << jsonString(PERF_CXX_FLAGS) << "}";
    return os.str();
}

} // namespace perfbench
