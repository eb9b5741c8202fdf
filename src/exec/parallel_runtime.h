/**
 * @file
 * The CSP schedule on real OS threads.
 *
 * A second runtime layer next to PipelineRuntime: instead of a
 * discrete-event simulation of D GPUs, one StageWorker thread per
 * pipeline stage executes the numeric training run with genuine
 * concurrency. The CommitGate enforces the exact causal read/write
 * order CSP proves sequential-equivalent, so for any worker count —
 * and any OS thread interleaving — the trained weights are **bitwise
 * identical** to the simulator's (and hence to sequential training);
 * the equivalence harness in tests/integration/test_parallel_equivalence
 * asserts this on the paper spaces.
 *
 * There is one threaded executor: runTrainingThreaded runs its
 * configuration as the only job of a serve::SearchService, whose
 * ServeJob owns the gate lifecycle, fault dispatch, drained-
 * checkpoint rollback and replay, resume and the bounded retry
 * policy. Shares RuntimeConfig and RunResult with the simulator so
 * the two executors are drop-in interchangeable (`naspipe_cli
 * --executor=threads|sim`); both drive the shared TrainingSession
 * coordinator core (src/session). The feature matrix of what each
 * executor supports lives in README.md's "Choosing an executor"
 * table; supported() is the programmatic form of that matrix and
 * names the feature in its rejection reason.
 */

#ifndef NASPIPE_EXEC_PARALLEL_RUNTIME_H
#define NASPIPE_EXEC_PARALLEL_RUNTIME_H

#include <string>

#include "runtime/pipeline_runtime.h"

namespace naspipe {

/** The threaded executor's support matrix. */
class ParallelRuntime
{
  public:
    ParallelRuntime() = delete;

    /**
     * Whether @p config can run on the threaded executor; fills
     * @p why (when non-null) with the first rejection reason.
     */
    static bool supported(const RuntimeConfig &config,
                          std::string *why = nullptr);
};

/**
 * Execute one training run on worker threads (numStages of them):
 * a one-job SearchService on a pool sized and configured from
 * @p config. @p space must outlive the result's store. An
 * unsupported config or a bad resume file gives `failed`, a plan
 * that does not fit gives `oom`, and a pool watchdog incident fails
 * the run with the watchdog's reason in `error`.
 */
RunResult runTrainingThreaded(const SearchSpace &space,
                              const RuntimeConfig &config);

} // namespace naspipe

#endif // NASPIPE_EXEC_PARALLEL_RUNTIME_H
