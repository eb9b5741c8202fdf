#include "exec/parallel_runtime.h"

#include <algorithm>

#include "serve/service.h"
#include "session/training_session.h"

namespace naspipe {

bool
ParallelRuntime::supported(const RuntimeConfig &config,
                           std::string *why)
{
    auto reject = [&](const char *reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (config.system.policy != PolicyKind::Csp) {
        return reject("threaded executor requires a CSP system: "
                      "BSP/ASP weights depend on the interleaving, "
                      "which real threads cannot replay");
    }
    if (config.system.weightStash)
        return reject("weight stashing is simulator-only");
    if (config.system.bulkFlush)
        return reject("bulk-flush (BSP) systems are simulator-only");
    return true;
}

namespace {

/**
 * Copy the pool's per-stage accounting into a one-job run's result:
 * the pool served nothing else, so its workers' stats are the run's.
 */
void
addPoolAccounting(const serve::SharedStagePool &pool, RunResult &out)
{
    RunMetrics &m = out.metrics;
    double wall = m.wallSeconds;
    double bubbleTotal = 0.0;
    std::vector<const ContextManager *> contexts;
    std::vector<TraceRecord> merged;
    for (int k = 0; k < pool.numStages(); k++) {
        const StageWorker &worker = pool.worker(k);
        const StageWorker::Stats &s = worker.stats();
        m.perStageBusySec.push_back(s.busySec);
        m.perStageGateWaitSec.push_back(s.gateWaitSec);
        m.perStageIdleSec.push_back(s.idleSec);
        m.perStageForwards.push_back(s.forwards);
        m.perStageBackwards.push_back(s.backwards);
        m.perStageDeferrals.push_back(s.deferrals);
        // The sim's stall taxonomy, threaded counterpart: a deferral
        // is Algorithm 2 blocking every queued forward, an idle
        // wakeup is a sleep with nothing queued at all.
        m.stallDependency += s.deferrals;
        m.stallEmptyQueues += s.idleWakeups;
        m.gateWaitSeconds += s.gateWaitSec;
        if (wall > 0.0)
            bubbleTotal += std::clamp(1.0 - s.busySec / wall, 0.0, 1.0);
        // Stage-ascending merge: deterministic observation order.
        out.observations.stages.push_back(worker.observation());
        contexts.push_back(&worker.contextManager());
        merged.insert(merged.end(), worker.traceRecords().begin(),
                      worker.traceRecords().end());
    }
    m.bubbleRatio = bubbleTotal / pool.numStages();
    addContextStats(contexts, m);
    std::sort(merged.begin(), merged.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return a.start != b.start ? a.start < b.start
                                            : a.stage < b.stage;
              });
    for (const TraceRecord &rec : merged)
        out.trace->add(rec);
}

} // namespace

RunResult
runTrainingThreaded(const SearchSpace &space,
                    const RuntimeConfig &config)
{
    RunResult out;
    if (!ParallelRuntime::supported(config, &out.error)) {
        out.failed = true;
        return out;
    }
    // Same capacity discipline as the simulator: identical batch =>
    // identical LR scaling and gradient-noise scale => the numeric
    // trajectory the equivalence harness compares bitwise.
    CapacityPlan plan = planCapacity(space, config);
    if (!plan.fits) {
        out.oom = true;
        out.plan = plan;
        return out;
    }

    const SystemModel &model = config.system;
    serve::ServiceConfig sc;
    sc.numStages = config.numStages;
    sc.watchdogPollMs = config.watchdogPollMs;
    sc.wallDeadline = config.wallWatchdog;
    sc.deadlineSeconds = config.watchdogDeadlineSeconds;
    sc.recordTrace = config.traceEnabled;
    sc.stageContext.mode = model.memory;
    sc.stageContext.predictor = model.predictor;
    sc.stageContext.budgetBytes = plan.cacheBudgetBytes(model.memory);

    serve::SearchService service(sc);
    int id = service.submit(space, config);
    service.drain();
    service.run();
    out = service.takeResult(id);
    if (!out.failed)
        addPoolAccounting(*service.pool(), out);
    return out;
}

} // namespace naspipe
