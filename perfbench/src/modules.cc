/**
 * @file
 * Per-module timings of the traced runs: each public entry point on
 * a subnet's path, timed on its own at the sizes training uses
 * (kLayerDim, an NLP.c1 store). Every figure is the median over
 * rounds of a per-call mean.
 */

#include <atomic>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "exec/commit_gate.h"
#include "exec/task_queue.h"
#include "schedule/csp_scheduler.h"
#include "schedule/dependency.h"
#include "schedule/predictor.h"
#include "supernet/sampler.h"
#include "tensor/layer_math.h"
#include "tensor/sgd.h"
#include "train/numeric_executor.h"
#include "train/param_store.h"
#include "workloads.h"

namespace perfbench {

using namespace naspipe;

namespace {

/** Keep @p value observable so the timed work is not elided. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Median over @p rounds of the mean ns of @p iters calls. */
template <typename F>
double
nsPerCall(int rounds, int iters, F body)
{
    std::vector<double> per;
    for (int r = 0; r < rounds; r++) {
        obs::TimePoint t0 = obs::now();
        for (int i = 0; i < iters; i++)
            body(i);
        per.push_back(obs::secondsSince(t0) * 1e9 / iters);
    }
    return median(per);
}

std::vector<LayerId>
randomLayers(const SearchSpace &space, std::size_t count)
{
    Xoshiro256StarStar rng(11);
    std::vector<LayerId> out;
    for (std::size_t i = 0; i < count; i++) {
        out.push_back(LayerId{
            static_cast<std::uint32_t>(rng.next() % space.numBlocks()),
            static_cast<std::uint32_t>(rng.next() %
                                       space.choicesPerBlock())});
    }
    return out;
}

/** A stage over a real space with a queue of forward candidates. */
class QueuedStage : public StageInfo
{
  public:
    QueuedStage(const SearchSpace &space, int queued)
        : _deps(&space), _hi(space.numBlocks() / 4 - 1)
    {
        UniformSampler sampler(space, 11);
        // Unfinished precedents ahead of the queued candidates.
        for (int i = 0; i < queued + queued / 2; i++) {
            Subnet sn = sampler.next();
            _deps.registerSubnet(sn);
            if (i >= queued / 2)
                _fwd.push_back(sn.id());
        }
    }

    int stageIndex() const override { return 0; }
    int numStages() const override { return 4; }
    const std::vector<SubnetId> &fwdCandidates() const override
    {
        return _fwd;
    }
    const std::vector<SubnetId> &bwdCandidates() const override
    {
        return _bwd;
    }
    const Subnet &subnet(SubnetId id) const override
    {
        return _deps.subnet(id);
    }
    std::pair<int, int> blockRange(SubnetId) const override
    {
        return {0, _hi};
    }
    const DependencyTracker &deps() const override { return _deps; }
    bool upstreamWritesDone(SubnetId) const override { return true; }

  private:
    DependencyTracker _deps;
    std::vector<SubnetId> _fwd, _bwd;
    int _hi;
};

void
tensorTimings(int scale, Metrics &m)
{
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    Tensor in(kLayerDim), out(kLayerDim), gradOut(kLayerDim),
        gradIn(kLayerDim);
    in.fill(0.25f);
    gradOut.fill(0.1f);
    LayerGrads grads;
    m.set("tensor.layer_fwd_ns", nsPerCall(7, 2000 * scale, [&](int) {
              layerForward(params, in, out);
              keep(out);
          }),
          "ns");
    m.set("tensor.layer_bwd_ns", nsPerCall(7, 2000 * scale, [&](int) {
              grads.clear();
              layerBackward(params, in, gradOut, gradIn, grads);
              keep(grads);
          }),
          "ns");
    SgdOptimizer sgd;
    LayerParams stepped = params;
    m.set("tensor.sgd_step_ns", nsPerCall(7, 2000 * scale, [&](int) {
              sgd.step(stepped, grads);
              keep(stepped);
          }),
          "ns");
    Philox4x32 philox(7);
    std::uint64_t counter = 0;
    m.set("common.philox_draw_ns",
          nsPerCall(7, 200000 * scale, [&](int) {
              float f = philox.uniformFloat(counter++);
              keep(f);
          }),
          "ns");
}

void
storeTimings(const SearchSpace &space, int scale, Metrics &m)
{
    ParameterStore store(space, 7);
    store.materializeAll();
    std::vector<LayerId> layers = randomLayers(space, 4096);
    m.set("train.store_peek_ns", nsPerCall(7, 100000 * scale, [&](int i) {
              keep(store.peek(layers[i & 4095]));
          }),
          "ns");
    const int perRound = space.numBlocks() * space.choicesPerBlock();
    m.set("train.store_materialize_ns",
          nsPerCall(7, 1, [&](int) { store.materializeAll(); }) /
              perRound,
          "ns");
    m.set("train.ckpt_save_ms", nsPerCall(3, 1, [&](int) {
              std::stringstream buffer;
              store.save(buffer);
              keep(buffer);
          }) * 1e-6,
          "ms");

    const int records = 50000 * scale;
    std::vector<double> single;
    for (int r = 0; r < 7; r++) {
        AccessLog log;
        obs::TimePoint t0 = obs::now();
        for (int i = 0; i < records; i++)
            log.record(layers[i & 4095], i, AccessKind::Read, 0);
        single.push_back(obs::secondsSince(t0) * 1e9 / records);
    }
    m.set("train.access_record_ns", median(single), "ns");

    // Four stage threads logging into one shared log at once: the
    // per-call latency each of them sees.
    std::vector<double> contended;
    for (int r = 0; r < 5; r++) {
        AccessLog log;
        std::atomic<int> ready{0};
        std::vector<double> perThread(4);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; t++) {
            threads.emplace_back([&, t] {
                ready++;
                while (ready.load() < 4) {
                }
                obs::TimePoint t0 = obs::now();
                for (int i = 0; i < records; i++) {
                    log.record(layers[(i + t * 1024) & 4095], i,
                               AccessKind::Read, t);
                }
                perThread[t] = obs::secondsSince(t0) * 1e9 / records;
            });
        }
        for (std::thread &th : threads)
            th.join();
        contended.push_back(median(perThread));
    }
    m.set("train.access_record_4t_ns", median(contended), "ns");

    // One subnet trained start to finish on a warm store.
    NumericExecutor::Config ec;
    ec.dataSeed = deriveSeed(7, "data");
    NumericExecutor exec(store, ec);
    UniformSampler sampler(space, 13);
    for (int i = 0; i < 8; i++)
        exec.trainSequential(sampler.next());
    m.set("train.subnet_step_us", nsPerCall(5, 20 * scale, [&](int) {
              keep(exec.trainSequential(sampler.next()));
          }) * 1e-3,
          "us");
}

void
gateTimings(int scale, Metrics &m)
{
    const int layers = 64, subnets = 64 * scale;
    std::vector<double> commitNs, readableNs;
    for (int r = 0; r < 7; r++) {
        CommitGate gate;
        std::vector<CommitGate::Claim> claims;
        for (int s = 0; s < subnets; s++) {
            for (int l = 0; l < layers; l++)
                gate.registerActivation(static_cast<std::uint64_t>(l),
                                        s);
        }
        for (int s = 0; s < subnets; s++) {
            for (int l = 0; l < layers; l++)
                claims.push_back(
                    gate.resolve(static_cast<std::uint64_t>(l), s));
        }
        // Readiness polls against a chain that is not yet readable
        // beyond rank 0, then the commits in chain order.
        obs::TimePoint t0 = obs::now();
        int ready = 0;
        for (const CommitGate::Claim &c : claims)
            ready += gate.readable(c) ? 1 : 0;
        keep(ready);
        readableNs.push_back(obs::secondsSince(t0) * 1e9 /
                             claims.size());
        t0 = obs::now();
        for (const CommitGate::Claim &c : claims)
            gate.commit(c, 0);
        commitNs.push_back(obs::secondsSince(t0) * 1e9 / claims.size());
    }
    m.set("exec.gate_commit_ns", median(commitNs), "ns");
    m.set("exec.gate_readable_ns", median(readableNs), "ns");

    // Cross-thread push -> pop handoff to a consumer parked in pop().
    const int handoffs = 500 * scale;
    BoundedTaskQueue<obs::TimePoint> queue(4);
    std::atomic<int> popped{0};
    std::vector<double> latencyUs(handoffs);
    std::thread consumer([&] {
        for (int i = 0; i < handoffs; i++) {
            obs::TimePoint sent = queue.pop();
            latencyUs[i] = obs::secondsSince(sent) * 1e6;
            popped.store(i + 1, std::memory_order_release);
        }
    });
    for (int i = 0; i < handoffs; i++) {
        // Let the consumer park again before the next push.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        queue.push(obs::now());
        while (popped.load(std::memory_order_acquire) < i + 1)
            std::this_thread::yield();
    }
    consumer.join();
    m.set("exec.queue_handoff_us", median(latencyUs), "us");
    m.set("exec.queue_handoff_p99_us", quantile(latencyUs, 0.99), "us");
}

void
scheduleTimings(const SearchSpace &space, int scale, Metrics &m)
{
    QueuedStage stage(space, 16);
    CspPolicy policy;
    m.set("schedule.policy_pick_ns",
          nsPerCall(7, 2000 * scale, [&](int) {
              Decision d = policy.pick(stage);
              keep(d);
          }),
          "ns");
    Predictor predictor;
    int fetches = 0;
    auto fetch = [&fetches](const Task &, PredictReason) { fetches++; };
    m.set("schedule.predictor_ns", nsPerCall(7, 2000 * scale, [&](int) {
              predictor.beforeBackward(stage, 0, {}, fetch);
          }),
          "ns");
    keep(fetches);
}

} // namespace

void
moduleTimings(const Options &opt, Metrics &m)
{
    const int scale = opt.tiny ? 1 : 4;
    SearchSpace space = makeSpaceByName("NLP.c1");
    tensorTimings(scale, m);
    storeTimings(space, scale, m);
    gateTimings(scale, m);
    scheduleTimings(space, scale, m);
}

} // namespace perfbench
