#include "runtime/pipeline_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "runtime/stage.h"
#include "schedule/csp_scheduler.h"
#include "session/training_session.h"
#include "sim/simulator.h"
#include "train/run_checkpoint.h"

namespace naspipe {

/**
 * The simulator-specific half of the run: the event loop, the cluster
 * model, the per-stage schedulers/context managers, mirroring, bulk
 * flushing and fault injection. Everything executor-independent —
 * sampling order, score delivery, checkpoint cadence, resume replay,
 * shared metrics — lives in the TrainingSession this Impl backs.
 */
struct PipelineRuntime::Impl : ExecutionBackend {
    const SearchSpace &space;
    RuntimeConfig config;
    SystemModel model;
    int numStages;

    TrainingSession session;

    Simulator sim;
    std::unique_ptr<Cluster> cluster;
    std::vector<std::unique_ptr<Stage>> stages;
    std::unique_ptr<SchedulerPolicy> policy;
    std::unique_ptr<HomePlacement> placement;
    std::unique_ptr<MirrorPlanner> mirrors;
    std::unique_ptr<FlushController> flushCtl;
    SwapModel swap;
    /// Fired flags survive recovery rewinds: a replaced GPU does not
    /// crash again when the completion counter passes the trigger.
    FaultInjector injector;

    UpdateSemantics semantics = UpdateSemantics::Immediate;
    MessageSizer sizer;

    // Simulator-side bookkeeping (the session owns subnets, losses
    // and completion times).
    /// Mirror entries grouped per (subnet, exec stage).
    std::map<SubnetId, std::map<int, std::vector<MirrorEntry>>>
        mirrorEntries;
    /// Last WRITE to a layer: (completion tick, writer stage).
    std::map<std::uint64_t, std::pair<Tick, int>> lastWrite;
    /// Subnets that activated a layer, in ascending sequence ID.
    std::map<std::uint64_t, std::vector<SubnetId>> activators;
    /// Number of parameter updates applied per layer so far.
    std::map<std::uint64_t, std::size_t> writesApplied;
    std::map<SubnetId, double> execBusySec;
    std::map<SubnetId, float> lossAtCompute;
    std::vector<SubnetId> pendingFinish;  ///< Deferred: await flush

    std::uint64_t stallEmptyQueues = 0;
    std::map<std::pair<int, SubnetId>, Tick> fwdArrival;
    std::uint64_t stallDependency = 0;
    std::uint64_t stallMirrorWait = 0;

    // Fault state. A "phase" is one sim.run() between (re)starts; the
    // session's offsets carry wall-clock and busy time across phases,
    // and the session counts the recoveries.
    bool crashed = false;  ///< fail-stop fired; sim was stopped
    std::string crashReason;

    Impl(const SearchSpace &s, const RuntimeConfig &c)
        : space(s), config(c), model(c.system),
          numStages(c.numStages), session(s, config),
          swap(c.cluster.gpu.pcieBytesPerSec,
               c.cluster.gpu.pcieLatency),
          injector(c.faults)
    {
        session.attach(this);
    }

    const Subnet &
    subnetOf(SubnetId id) const
    {
        return session.subnetOf(id);
    }

    std::pair<int, int>
    blockRange(int stage, SubnetId id) const
    {
        return session.blockRange(stage, id);
    }

    // ExecutionBackend: the simulator's injection veto, per-subnet
    // registration/restore hooks and phase rebuild, called from the
    // session's pump(), restore() and recover().
    bool canAdmit(SubnetId next) const override;
    void admit(SubnetId id) override;
    void restoreCompleted(SubnetId id) override;
    void restartPhase() override;

    void buildPhase();
    bool upstreamWritesDone(int stage, SubnetId id) const;
    void injectSubnets();
    double busySum() const;
    void checkFaults(Tick end);
    void takeCheckpoint(Tick end);
    void resetRunState();
    void tryDispatch(int k);
    void startForward(int k, SubnetId id);
    void startBackward(int k, SubnetId id);
    void onSubnetComplete(int k, SubnetId id, Tick end);
    Tick taskDuration(const Subnet &sn, int lo, int hi,
                      TaskType type) const;
    Tick mirrorPushDelay(int writerStage, int readerStage,
                         std::uint64_t bytes) const;
    Tick readAvailable(const LayerId &layer, int readerStage) const;
    std::vector<PendingBackward> pendingMeta(int k) const;
    RunResult collect();
};

void
PipelineRuntime::Impl::buildPhase()
{
    ClusterConfig cc = config.cluster;
    cc.numStages = numStages;
    cluster = std::make_unique<Cluster>(sim, cc);

    policy = makePolicy(model);
    placement = std::make_unique<HomePlacement>(space, numStages);
    mirrors = std::make_unique<MirrorPlanner>(space, *placement);
    if (model.bulkFlush) {
        flushCtl = std::make_unique<FlushController>(
            model.effectiveBulk(numStages));
    }

    if (model.weightStash)
        semantics = UpdateSemantics::WeightStash;
    else if (model.bulkFlush && model.policy != PolicyKind::Csp)
        semantics = UpdateSemantics::Deferred;
    else
        semantics = UpdateSemantics::Immediate;

    sizer.boundaryBytesPerSample =
        session.activationModel().boundaryBytesPerSample;
    sizer.batch = session.batch();

    for (int k = 0; k < numStages; k++) {
        Stage::Hooks hooks;
        hooks.blockRange = [this, k](SubnetId id) {
            return blockRange(k, id);
        };
        hooks.upstreamWritesDone = [this, k](SubnetId id) {
            return upstreamWritesDone(k, id);
        };
        stages.push_back(std::make_unique<Stage>(
            space, cluster->gpu(k), k, numStages, model.memory,
            std::move(hooks),
            session.plan().cacheBudgetBytes(model.memory)));
    }
}

bool
PipelineRuntime::Impl::upstreamWritesDone(int stage, SubnetId id) const
{
    const Subnet &sn = subnetOf(id);
    auto [lo, hi] = blockRange(stage, id);
    for (int b = lo; b <= hi; b++) {
        if (!space.parameterized(b, sn.choice(b)))
            continue;
        std::uint64_t key = sn.layer(b).key();
        auto actIt = activators.find(key);
        NASPIPE_ASSERT(actIt != activators.end(),
                       "candidate's own activation missing");
        const auto &ids = actIt->second;
        auto earlier = static_cast<std::size_t>(
            std::lower_bound(ids.begin(), ids.end(), id) -
            ids.begin());
        auto wIt = writesApplied.find(key);
        std::size_t applied = wIt == writesApplied.end() ? 0
                                                         : wIt->second;
        if (applied < earlier)
            return false;
    }
    return true;
}

Tick
PipelineRuntime::Impl::taskDuration(const Subnet &sn, int lo, int hi,
                                    TaskType type) const
{
    // An empty stage range still costs a kernel-launch-scale hop.
    if (lo > hi)
        return ticksFromMs(0.2);
    double ms = 0.0;
    for (int b = lo; b <= hi; b++) {
        const LayerSpec &spec = space.spec(b, sn.choice(b));
        if (type == TaskType::Forward) {
            ms += spec.fwdMs;
        } else {
            ms += spec.bwdMs;
            // Activation recomputation replays the forward pass.
            if (model.recompute)
                ms += spec.fwdMs;
        }
    }
    // Kernel time scales with (overhead + batch), calibrated against
    // the family's reference batch.
    const ActivationModel &activation = session.activationModel();
    double factor =
        static_cast<double>(activation.overheadBatch +
                            session.batch()) /
        static_cast<double>(activation.overheadBatch +
                            space.referenceBatch());
    ms *= factor * activation.computeScale;
    return ticksFromMs(ms);
}

Tick
PipelineRuntime::Impl::mirrorPushDelay(int writerStage,
                                       int readerStage,
                                       std::uint64_t bytes) const
{
    if (writerStage == readerStage)
        return 0;
    // The active push travels GPU-to-GPU (peer DMA within a host,
    // Ethernet across hosts) without staging through host memory.
    Tick delay = 0;
    const InterconnectConfig &ic = config.cluster.interconnect;
    bool cross = cluster->hostOf(writerStage) !=
                 cluster->hostOf(readerStage);
    double bw =
        cross ? ic.crossHostBytesPerSec : ic.intraHostBytesPerSec;
    delay += (cross ? ic.crossHostLatency : ic.intraHostLatency) +
             ticksFromSec(static_cast<double>(bytes) / bw);
    return delay;
}

Tick
PipelineRuntime::Impl::readAvailable(const LayerId &layer,
                                     int readerStage) const
{
    auto it = lastWrite.find(layer.key());
    if (it == lastWrite.end())
        return 0;
    auto [when, writerStage] = it->second;
    return when + mirrorPushDelay(writerStage, readerStage,
                                  space.spec(layer).paramBytes);
}

std::vector<PendingBackward>
PipelineRuntime::Impl::pendingMeta(int k) const
{
    // Forwards queued (not yet run) on this stage will produce
    // backwards later; their context can be prefetched by earlier
    // stages once the matching forward passes there (§3.3).
    std::vector<PendingBackward> meta;
    for (SubnetId id : stages[static_cast<std::size_t>(k)]
                           ->fwdCandidates()) {
        meta.push_back(PendingBackward{id, id});
    }
    return meta;
}

bool
PipelineRuntime::Impl::canAdmit(SubnetId next) const
{
    // BSP bulk barrier: the next bulk opens only when the previous
    // one fully flushed.
    return !flushCtl || flushCtl->canInject(next);
}

void
PipelineRuntime::Impl::admit(SubnetId id)
{
    const Subnet &sn = subnetOf(id);
    for (int b = 0; b < sn.size(); b++) {
        if (space.parameterized(b, sn.choice(b)))
            activators[sn.layer(b).key()].push_back(sn.id());
    }
    if (model.mirroring) {
        auto entries = mirrors->plan(sn, session.partitionOf(id));
        mirrors->activate(entries);
        auto &grouped = mirrorEntries[sn.id()];
        for (auto &entry : entries)
            grouped[entry.execStage].push_back(entry);
    }
    for (auto &stage : stages)
        stage->registerSubnet(sn);

    fwdArrival[{0, sn.id()}] = sim.now();
    // Retrieval kicks off the context fetch for the entry stage
    // (§3.3: the fetch schedule starts when a subnet is known) —
    // but only within the cache budget of ~3 subnet contexts, so
    // a backed-up entry queue does not balloon GPU memory.
    if (model.predictor && stages[0]->fwdCandidates().size() < 3) {
        auto [lo, hi] = blockRange(0, sn.id());
        if (lo <= hi)
            stages[0]->ctx().prefetch(space, sn, lo, hi, sim.now());
    }

    stages[0]->pushFwd(sn.id());
}

void
PipelineRuntime::Impl::restoreCompleted(SubnetId id)
{
    const Subnet &sn = subnetOf(id);
    for (int b = 0; b < sn.size(); b++) {
        if (space.parameterized(b, sn.choice(b)))
            activators[sn.layer(b).key()].push_back(sn.id());
    }
    if (model.mirroring) {
        auto entries = mirrors->plan(sn, session.partitionOf(id));
        mirrors->activate(entries);
        auto &grouped = mirrorEntries[sn.id()];
        for (auto &entry : entries)
            grouped[entry.execStage].push_back(entry);
    }
    // Registered then immediately finished on every stage: the
    // dependency frontiers advance past the restored prefix, and
    // the numeric executor never opens a context for it.
    for (auto &stage : stages) {
        stage->registerSubnet(sn);
        stage->mutableDeps().markFinished(sn.id());
    }
    for (int b = 0; b < sn.size(); b++) {
        if (space.parameterized(b, sn.choice(b)))
            writesApplied[sn.layer(b).key()]++;
    }
    if (flushCtl)
        flushCtl->onSubnetComplete(sn.id());
    // lastWrite stays empty: the restored store is globally
    // consistent, so every read is immediately available.
}

void
PipelineRuntime::Impl::injectSubnets()
{
    session.pump();
    tryDispatch(0);
}

void
PipelineRuntime::Impl::tryDispatch(int k)
{
    Stage &st = *stages[static_cast<std::size_t>(k)];
    if (!st.gpu().compute().freeBy(sim.now()))
        return;  // busy; the completion event re-triggers dispatch
    Decision d = policy->pick(st);
    if (!d.valid()) {
        // Classify the stall for the diagnostics of Table 2's bubble.
        if (st.fwdCandidates().empty() && st.bwdCandidates().empty()) {
            stallEmptyQueues++;
        } else if (model.policy == PolicyKind::Csp &&
                   CspPolicy::schedulableForward(st, -1, false) >= 0) {
            stallMirrorWait++;
        } else {
            stallDependency++;
        }
        return;
    }
    if (d.kind == Decision::Kind::Backward)
        startBackward(k, d.subnet);
    else
        startForward(k, d.subnet);
}

void
PipelineRuntime::Impl::startForward(int k, SubnetId id)
{
    Stage &st = *stages[static_cast<std::size_t>(k)];
    st.popFwd(id);
    const Subnet &sn = subnetOf(id);
    auto [lo, hi] = blockRange(k, id);

    // Algorithm 1 line 21: predictor runs after the pop, before the
    // forward executes.
    if (model.predictor) {
        st.predictor().beforeForward(
            st, id,
            [this](const Task &t, PredictReason) {
                auto [plo, phi] = blockRange(t.stage, t.subnet);
                if (plo <= phi) {
                    stages[static_cast<std::size_t>(t.stage)]
                        ->ctx()
                        .prefetch(space, subnetOf(t.subnet), plo, phi,
                                  sim.now());
                }
            });
    }

    // Pipeline-forwarding prediction: this subnet's activations head
    // to stage k+1 next, so that stage prefetches its share of the
    // context while this stage computes ("status passed from other
    // stages", §3.3).
    if (model.predictor && k + 1 < numStages) {
        auto [nlo, nhi] = blockRange(k + 1, id);
        if (nlo <= nhi) {
            stages[static_cast<std::size_t>(k) + 1]->ctx().prefetch(
                space, sn, nlo, nhi, sim.now());
        }
    }

    Tick ready = sim.now();
    if (lo <= hi)
        ready = std::max(
            ready, st.ctx().ensureResident(space, sn, lo, hi, sim.now()));
    if (model.policy == PolicyKind::Csp && lo <= hi) {
        // CSP: a read of a shared layer must see the precedent
        // subnet's write, including the mirror push when the writer
        // ran on another stage (§4.2). Parameter-free skip layers
        // have no state to wait for.
        for (int b = lo; b <= hi; b++) {
            if (space.parameterized(b, sn.choice(b)))
                ready = std::max(ready, readAvailable(sn.layer(b), k));
        }
    }

    Tick duration = taskDuration(sn, lo, hi, TaskType::Forward);
    Tick start = st.gpu().compute().reserveFrom(ready, duration);
    Tick end = start + duration;

    // The numeric READ happens at task start: parameters are sampled
    // when the kernel launches.
    if (config.numeric) {
        sim.scheduleAt(start, [this, k, id, lo, hi] {
            const Subnet &subnet = subnetOf(id);
            if (lo <= hi)
                session.exec().forwardStage(subnet, lo, hi, semantics,
                                            k);
            if (k == numStages - 1)
                lossAtCompute[id] = session.exec().computeLoss(subnet);
        });
    }

    sim.scheduleAt(
        end,
        [this, k, id, start, end] {
            {
                TraceRecord rec{start, end, k, TraceKind::Forward,
                                id, ""};
                auto it = fwdArrival.find({k, id});
                if (it != fwdArrival.end()) {
                    rec.detail = "wait_ms=" + std::to_string(
                        ticksToMs(start - it->second));
                }
                session.trace()->add(rec);
            }
            execBusySec[id] += ticksToSec(end - start);
            if (k + 1 < numStages) {
                Tick arrival =
                    cluster->link(k, k + 1).sendFrom(
                        end, sizer.fwdBytes());
                sim.scheduleAt(
                    arrival,
                    [this, k, id] {
                        fwdArrival[{k + 1, id}] = sim.now();
                        stages[static_cast<std::size_t>(k) + 1]
                            ->pushFwd(id);
                        tryDispatch(k + 1);
                    },
                    EventPriority::Transfer);
            } else {
                // The last stage turns the forward around into the
                // backward pass.
                stages[static_cast<std::size_t>(k)]->pushBwd(id, {});
            }
            tryDispatch(k);
        },
        EventPriority::Completion);
}

void
PipelineRuntime::Impl::startBackward(int k, SubnetId id)
{
    Stage &st = *stages[static_cast<std::size_t>(k)];
    std::vector<PendingBackward> meta = st.popBwd(id);
    const Subnet &sn = subnetOf(id);
    auto [lo, hi] = blockRange(k, id);

    // Algorithm 1 line 6: predictor runs before the backward.
    if (model.predictor) {
        st.predictor().beforeBackward(
            st, id, meta,
            [this](const Task &t, PredictReason) {
                auto [plo, phi] = blockRange(t.stage, t.subnet);
                if (plo <= phi) {
                    stages[static_cast<std::size_t>(t.stage)]
                        ->ctx()
                        .prefetch(space, subnetOf(t.subnet), plo, phi,
                                  sim.now());
                }
            });
    }

    Tick ready = sim.now();
    if (lo <= hi)
        ready = std::max(
            ready, st.ctx().ensureResident(space, sn, lo, hi, sim.now()));

    Tick duration = taskDuration(sn, lo, hi, TaskType::Backward);
    Tick start = st.gpu().compute().reserveFrom(ready, duration);
    Tick end = start + duration;

    sim.scheduleAt(
        end,
        [this, k, id, lo, hi, start, end] {
            Stage &stage = *stages[static_cast<std::size_t>(k)];
            const Subnet &subnet = subnetOf(id);
            session.trace()->add(TraceRecord{
                start, end, k, TraceKind::Backward, id, ""});
            execBusySec[id] += ticksToSec(end - start);

            // The numeric WRITE (optimizer step) lands at completion.
            if (config.numeric && lo <= hi)
                session.exec().backwardStage(subnet, lo, hi, semantics,
                                             k);
            if (lo <= hi && semantics != UpdateSemantics::Deferred) {
                for (int b = lo; b <= hi; b++) {
                    if (!space.parameterized(b, subnet.choice(b)))
                        continue;
                    std::uint64_t key = subnet.layer(b).key();
                    lastWrite[key] = {end, k};
                    writesApplied[key]++;
                }
            }

            // Mirror push: updated mirrored parameters travel to the
            // other replicas (§4.2).
            if (model.mirroring) {
                auto subIt = mirrorEntries.find(id);
                if (subIt != mirrorEntries.end()) {
                    auto stIt = subIt->second.find(k);
                    if (stIt != subIt->second.end())
                        mirrors->recordSyncPush(stIt->second);
                }
            }

            stage.mutableDeps().markFinished(id);
            if (lo <= hi)
                stage.ctx().evictSubnet(space, subnet, lo, hi,
                                        sim.now());

            if (k > 0) {
                Tick arrival = cluster->link(k, k - 1).sendFrom(
                    end, sizer.bwdBytes());
                auto carried = pendingMeta(k);
                sim.scheduleAt(
                    arrival,
                    [this, k, id, carried] {
                        stages[static_cast<std::size_t>(k) - 1]
                            ->pushBwd(id, carried);
                        tryDispatch(k - 1);
                    },
                    EventPriority::Transfer);
            } else {
                onSubnetComplete(k, id, end);
            }
            if (model.policy == PolicyKind::Csp) {
                // Newly visible writes may unblock forward
                // candidates on any stage (mirror pushes).
                for (int s = 0; s < numStages; s++)
                    tryDispatch(s);
            } else {
                tryDispatch(k);
            }
        },
        EventPriority::Completion);
}

void
PipelineRuntime::Impl::onSubnetComplete(int, SubnetId id, Tick end)
{
    float loss = 0.0f;
    if (config.numeric) {
        if (semantics == UpdateSemantics::Deferred) {
            // Weights update only at the flush; the loss is already
            // known from the last forward stage.
            loss = lossAtCompute.at(id);
            pendingFinish.push_back(id);
        } else {
            loss = session.exec().finishSubnet(subnetOf(id));
        }
    }
    bool atBarrier = session.recordCompletion(
        id, loss, session.secOffset() + ticksToSec(end));

    bool mayInject = true;
    if (flushCtl) {
        mayInject = flushCtl->onSubnetComplete(id);
        if (mayInject) {
            // BSP flush: apply the bulk's deferred updates together,
            // in sequence-ID order, then release the next bulk.
            if (config.numeric &&
                semantics == UpdateSemantics::Deferred) {
                session.exec().applyDeferredUpdates(pendingFinish);
                for (SubnetId fid : pendingFinish) {
                    const Subnet &fsn = subnetOf(fid);
                    for (int b = 0; b < fsn.size(); b++) {
                        if (space.parameterized(b, fsn.choice(b)))
                            writesApplied[fsn.layer(b).key()]++;
                    }
                    session.exec().finishSubnet(fsn);
                }
                pendingFinish.clear();
            }
            session.trace()->add(TraceRecord{
                end, end, 0, TraceKind::Flush, id, "bulk flush"});
        }
    }

    // Completions form the fault plan's logical clock.
    checkFaults(end);
    if (crashed)
        return;  // the world is frozen; run() performs the recovery

    if (atBarrier)
        takeCheckpoint(end);  // resumes injection after the write
    else if (mayInject)
        injectSubnets();
}

double
PipelineRuntime::Impl::busySum() const
{
    double total = 0.0;
    for (const auto &[id, sec] : execBusySec)
        total += sec;
    return total;
}

void
PipelineRuntime::Impl::checkFaults(Tick end)
{
    for (const FaultSpec &f : injector.due(session.finished())) {
        session.trace()->add(faultRecord(f, numStages, end));
        inform("fault injected: ", f.describe());
        FaultEffect effect = resolveFault(f, numStages);
        int stage = effect.stage;
        switch (effect.kind) {
          case FaultEffect::Kind::None:
            break;
          case FaultEffect::Kind::FailStop:
            if (f.kind == FaultKind::LinkDrop)
                cluster->dropBoundary(stage);
            else
                cluster->failStage(stage);
            crashed = true;
            crashReason = "injected fault: " + f.describe();
            break;
          case FaultEffect::Kind::Stall: {
            // Occupy the stage's compute engine for the stall window;
            // the scheduled dispatch un-wedges a stage that went idle
            // behind the stall once it lifts.
            Tick dur = ticksFromMs(f.durationMs);
            Tick start =
                cluster->gpu(stage).compute().reserveFrom(end, dur);
            sim.scheduleAt(start + dur,
                           [this, stage] { tryDispatch(stage); });
            break;
          }
          case FaultEffect::Kind::Degrade:
            cluster->degradeBoundary(stage, f.factor);
            sim.scheduleAt(end + ticksFromMs(f.durationMs), [this, stage] {
                cluster->restoreBoundary(stage);
            });
            break;
        }
    }
    if (crashed)
        sim.stop();
}

void
PipelineRuntime::Impl::takeCheckpoint(Tick end)
{
    RunCheckpoint ckpt = session.buildCheckpoint(
        session.secOffset() + ticksToSec(end),
        session.busyOffset() + busySum());
    double writeSec = session.commitCheckpoint(ckpt);
    session.trace()->add(TraceRecord{
        end, end + ticksFromSec(writeSec), 0, TraceKind::Checkpoint,
        -1, "completed=" + std::to_string(session.finished())});
    // Injection resumes once the write completes: the modeled cost
    // of a checkpoint is the pipeline drain plus this write time.
    sim.scheduleAt(end + ticksFromSec(writeSec),
                   [this] { injectSubnets(); });
}

void
PipelineRuntime::Impl::restartPhase()
{
    resetRunState();
    buildPhase();
}

void
PipelineRuntime::Impl::resetRunState()
{
    sim.reset();
    stages.clear();
    cluster.reset();
    policy.reset();
    placement.reset();
    mirrors.reset();
    flushCtl.reset();
    mirrorEntries.clear();
    lastWrite.clear();
    activators.clear();
    writesApplied.clear();
    execBusySec.clear();
    lossAtCompute.clear();
    pendingFinish.clear();
    fwdArrival.clear();
    crashed = false;
    // Stall counters and fault bookkeeping carry across phases
    // deliberately: they are cumulative diagnostics. The session's
    // per-run state resets in initRun(); its checkpoint totals and
    // time offsets carry too.
}

RunResult
PipelineRuntime::Impl::collect()
{
    RunResult out =
        session.collect(session.secOffset() + ticksToSec(sim.now()),
                        session.busyOffset() + busySum());
    RunMetrics &m = out.metrics;

    // Engine statistics cover only the final phase (earlier phases
    // died with the fault); utilization windows use phase-local time.
    double phaseSec = ticksToSec(sim.now());
    m.bubbleRatio = cluster->meanBubbleRatio();
    double eff = kernelEfficiency(session.batch(),
                                  session.activationModel()
                                      .overheadBatch);
    m.totalAluUtilization =
        cluster->totalAluUtilization(phaseSec) * eff;
    for (int s = 0; s < numStages; s++) {
        m.perGpuAlu.push_back(
            cluster->gpu(s).aluUtilization(phaseSec) * eff);
    }

    std::vector<const ContextManager *> contexts;
    for (const auto &stage : stages)
        contexts.push_back(&stage->ctx());
    addContextStats(contexts, m);
    if (model.mirroring) {
        m.mirrorSyncBytes = mirrors->stats().syncBytes;
        m.mirrorsCreated = mirrors->stats().mirrorsCreated;
    }

    m.stallEmptyQueues = stallEmptyQueues;
    m.stallDependency = stallDependency;
    m.stallMirrorWait = stallMirrorWait;

    m.faultsInjected = injector.firedCount();
    return out;
}

PipelineRuntime::PipelineRuntime(const SearchSpace &space,
                                 const RuntimeConfig &config)
    : _impl(std::make_unique<Impl>(space, config)),
      _scoreScale(_impl->session.scoreScale())
{
}

PipelineRuntime::~PipelineRuntime() = default;

RunResult
PipelineRuntime::run()
{
    Impl &im = *_impl;
    TrainingSession &session = im.session;
    if (!session.initRun()) {
        RunResult out;
        out.oom = true;
        out.plan = session.plan();
        return out;
    }
    im.buildPhase();

    auto failed = [&session](const std::string &error) {
        RunResult out;
        out.failed = true;
        out.retriesExhausted = session.retriesExhausted();
        out.error = error;
        out.plan = session.plan();
        return out;
    };
    std::string error;
    if (!session.resume(&error))
        return failed(error);

    im.injectSubnets();
    im.sim.run();
    while (im.crashed) {
        // Every fail-stop fault fires exactly once, bounding the
        // recovery loop by the plan size.
        NASPIPE_ASSERT(
            session.recoveries() <
                static_cast<int>(im.injector.plan().size()),
            "recovery loop exceeded the fault plan");
        if (!session.recover(
                session.secOffset() + ticksToSec(im.sim.now()),
                session.busyOffset() + im.busySum(), im.crashReason,
                &error))
            return failed(error);
        im.injectSubnets();
        im.sim.run();
    }
    NASPIPE_ASSERT(session.finished() == im.config.totalSubnets,
                   "run ended with ", session.finished(), " of ",
                   im.config.totalSubnets, " subnets finished");
    return im.collect();
}

RunResult
runTraining(const SearchSpace &space, const RuntimeConfig &config)
{
    PipelineRuntime runtime(space, config);
    return runtime.run();
}

} // namespace naspipe
