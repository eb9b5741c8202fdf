/**
 * @file
 * Deterministic fault plans — the executor-agnostic half of fault
 * injection.
 *
 * Long pipeline-parallel supernet training jobs are exactly where
 * hardware failures dominate, and a reproducibility guarantee that
 * only holds on failure-free runs is not production-grade. This
 * module makes failure a first-class, *deterministically injectable*
 * event: a fault plan — either spelled out spec by spec or generated
 * from a seed — names what breaks (a GPU, a stage, a stage link),
 * when (after the k-th subnet completion, a logical clock that is
 * identical across clusters AND across executors), and for how long.
 *
 * Both backends consult the same plan at every completion and map
 * each fired fault through one dispatch rule (resolveFault): the
 * simulator transitions its hardware models into the corresponding
 * fault states, the threaded executor latches transient faults into
 * the victim StageWorker (a stalled worker sleeps through N bounded
 * waits). Fail-stop faults are job-logical on both: the run freezes
 * and takes the shared checkpoint/recovery path, so one seeded plan
 * reproduces the same rollback/replay sequence everywhere.
 */

#ifndef NASPIPE_FAULT_FAULT_PLAN_H
#define NASPIPE_FAULT_FAULT_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace naspipe {

/** What breaks. */
enum class FaultKind {
    GpuCrash,     ///< fail-stop: the stage's GPU dies mid-run
    StageStall,   ///< transient: the stage freezes for a duration
    LinkDegrade,  ///< transient: a stage link loses bandwidth
    LinkDrop,     ///< fail-stop: a stage link drops its traffic
};

/** Printable fault-kind name (also the CLI spelling). */
const char *faultKindName(FaultKind kind);

/** Whether @p kind kills the run and requires recovery. */
bool faultIsFailStop(FaultKind kind);

/** One scheduled fault. */
struct FaultSpec {
    FaultKind kind = FaultKind::GpuCrash;
    /**
     * Fires when this many subnets have completed. Subnet completions
     * form a logical clock that is identical across GPU counts,
     * schedules and executors, so a plan replays deterministically
     * anywhere.
     */
    int atStep = 0;
    /** Victim stage (for link faults: the upstream end of the link). */
    int stage = 0;
    double durationMs = 50.0;  ///< stall/degrade duration
    double factor = 4.0;       ///< bandwidth slowdown (LinkDegrade)

    /** "crash@12,stage=3"-style rendering (parse round-trips). */
    std::string describe() const;
};

/**
 * Parse a CLI fault spec: `KIND@STEP[,stage=N][,ms=X][,factor=F]`
 * with KIND one of crash|stall|degrade|drop. Returns false and sets
 * @p error on malformed input; @p out is only written on success.
 */
bool parseFaultSpec(const std::string &text, FaultSpec &out,
                    std::string *error = nullptr);

/**
 * What a fired fault does to a D-stage pipeline — the one dispatch
 * rule every executor applies. Node faults hit the clamped stage;
 * link faults hit the boundary after stage min(stage, D - 2), and a
 * one-stage pipeline has no links, so a drop or degrade there does
 * nothing.
 */
struct FaultEffect {
    enum class Kind {
        None,      ///< no target on this pipeline (link fault, D = 1)
        FailStop,  ///< freeze, roll back to the last drained checkpoint
        Stall,     ///< the stage executes nothing for a while
        Degrade,   ///< the link's traffic slows down for a while
    };
    Kind kind = Kind::None;
    /** Victim stage; for link faults the upstream end of the link. */
    int stage = 0;
};

/** Map @p fault onto a @p numStages-deep pipeline. */
FaultEffect resolveFault(const FaultSpec &fault, int numStages);

/** The Fault trace record of @p fault firing at @p at. */
TraceRecord faultRecord(const FaultSpec &fault, int numStages, Tick at);

/**
 * Tracks which faults of a plan have fired. Each spec fires exactly
 * once, even though recovery rewinds the completion counter past its
 * trigger step (the physical GPU was already replaced).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(std::vector<FaultSpec> plan);

    /**
     * Generate a seeded random plan: @p count faults of mixed kinds
     * at distinct steps in [1, maxStep] on stages in [0, numStages).
     * A pure function of its arguments — the "seeded plan" that makes
     * chaos testing reproducible.
     */
    static std::vector<FaultSpec> randomPlan(std::uint64_t seed,
                                             int count, int maxStep,
                                             int numStages);

    /**
     * Faults due at completion count @p completedStep that have not
     * fired yet; marks them fired.
     */
    std::vector<FaultSpec> due(int completedStep);

    const std::vector<FaultSpec> &plan() const { return _plan; }

    /** Number of faults that have fired so far. */
    int firedCount() const;

    /** Whether any fault is still waiting to fire. */
    bool anyPending() const;

  private:
    std::vector<FaultSpec> _plan;
    std::vector<bool> _fired;
};

} // namespace naspipe

#endif // NASPIPE_FAULT_FAULT_PLAN_H
