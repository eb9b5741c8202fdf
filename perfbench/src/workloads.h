/**
 * @file
 * The benchmark's workloads and the per-module timings of its traced
 * runs. Every workload emits the same metric names; a
 * per-module metric a workload does not exercise reads 0.
 */

#ifndef NASPIPE_PERFBENCH_WORKLOADS_H
#define NASPIPE_PERFBENCH_WORKLOADS_H

#include <string>
#include <utility>
#include <vector>

#include "perf_util.h"

namespace perfbench {

struct WorkloadResult {
    Checks checks;
    Metrics metrics;
    /** Free-form facts for the detailed record (sample counts,
     *  observed weight hashes). */
    std::vector<std::pair<std::string, std::string>> notes;
};

/** (name, unit) of every end-to-end metric, emitted untraced. */
const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics();

/** (name, unit) of every per-module metric, emitted traced. */
const std::vector<std::pair<std::string, std::string>> &
perModuleMetrics();

/** Names accepted by --workload. */
const std::vector<std::string> &workloadNames();

/**
 * solo-w1: one NLP.c1 run on one stage thread. Its traced run also
 * measures the 4-worker run and the serve mix, so the coordination
 * and serve layers are covered.
 */
void runSolo(const Options &opt, WorkloadResult &out);
/** sim-g8: the discrete-event simulator on NLP.c2, 8 GPUs. */
void runSim(const Options &opt, WorkloadResult &out);

/** Workload-independent module timings (modules.cc). */
void moduleTimings(const Options &opt, Metrics &metrics);

} // namespace perfbench

#endif // NASPIPE_PERFBENCH_WORKLOADS_H
