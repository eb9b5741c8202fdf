/**
 * @file
 * naspipe_perf — runs one benchmark workload and prints its metrics.
 *
 * Usage:
 *   naspipe_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--trace-out FILE] [--tiny]
 *                [--inject-wrong-golden] [--inject-oracle-violation]
 *
 * With --trace 0 the untraced timed loop runs for --seconds and the
 * end-to-end metrics are reported; with --trace 1 a short traced run
 * reports the per-module metrics. The last stdout line is one JSON
 * record (host stamp, correctness counts, metrics); perfbench/run.py
 * turns it into the benchmark's result line. The two --inject flags
 * make every run fail one correctness check (the benchmark's tests
 * use them). Exit codes: 0 ran (see "failed"), 2 bad arguments.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: naspipe_perf --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                    [--trace-out FILE] [--tiny]\n"
                 "                    [--inject-wrong-golden] "
                 "[--inject-oracle-violation]\n",
                 error.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        auto number = [&](double lo, double hi) {
            std::string text = value();
            char *end = nullptr;
            double v = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || v < lo || v > hi)
                usage("bad value '" + text + "' for " + arg);
            return v;
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed") {
            std::string text = value();
            char *end = nullptr;
            opt.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || text[0] == '-' || *end != '\0')
                usage("bad value '" + text + "' for --seed");
        } else if (arg == "--seconds")
            opt.seconds = number(0.0, 3600.0);
        else if (arg == "--trace")
            opt.trace = number(0, 1) != 0;
        else if (arg == "--trace-out")
            opt.traceOut = value();
        else if (arg == "--tiny")
            opt.tiny = true;
        else if (arg == "--inject-wrong-golden")
            opt.injectWrongGolden = true;
        else if (arg == "--inject-oracle-violation")
            opt.injectOracleViolation = true;
        else
            usage("unknown argument: " + arg);
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) ==
        names.end())
        usage("unknown workload '" + opt.workload + "'");
    return opt;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    naspipe::LogConfig::instance().threshold(naspipe::LogLevel::Warn);
    Options opt = parse(argc, argv);

    WorkloadResult result;
    if (opt.workload == "solo-w1")
        runSolo(opt, result);
    else
        runSim(opt, result);

    for (const auto &[name, v] : result.metrics.all()) {
        std::printf("%-34s %14.6g %s\n", name.c_str(), v.first,
                    v.second.c_str());
    }
    for (const std::string &f : result.checks.failures())
        std::printf("FAILED  %s\n", f.c_str());

    std::ostringstream os;
    os << "{\"workload\":" << jsonString(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"tiny\":" << (opt.tiny ? "true" : "false")
       << ",\"host\":" << hostJson()
       << ",\"attempted\":" << result.checks.attempted()
       << ",\"failed\":" << result.checks.failed() << ",\"failures\":[";
    const auto &failures = result.checks.failures();
    for (std::size_t i = 0; i < failures.size(); i++)
        os << (i ? "," : "") << jsonString(failures[i]);
    os << "],\"notes\":{";
    for (std::size_t i = 0; i < result.notes.size(); i++) {
        os << (i ? "," : "") << jsonString(result.notes[i].first) << ":"
           << jsonString(result.notes[i].second);
    }
    os << "},\"metrics\":{";
    bool first = true;
    for (const auto &[name, v] : result.metrics.all()) {
        os << (first ? "" : ",") << jsonString(name)
           << ":{\"value\":" << number(v.first)
           << ",\"unit\":" << jsonString(v.second) << "}";
        first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
