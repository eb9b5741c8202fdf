#include "train/numeric_executor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/kernels/reduce.h"
#include "tensor/kernels/tanh.h"
#include "tensor/loss.h"

namespace naspipe {

const char *
updateSemanticsName(UpdateSemantics semantics)
{
    switch (semantics) {
      case UpdateSemantics::Immediate:
        return "immediate";
      case UpdateSemantics::WeightStash:
        return "weight-stash";
      case UpdateSemantics::Deferred:
        return "deferred";
    }
    return "?";
}

namespace {

/** The effective optimizer settings after batch-linear LR scaling. */
SgdConfig
effectiveSgd(const NumericExecutor::Config &config,
             const SearchSpace &space)
{
    SgdConfig sgd = config.sgd;
    if (config.scaleLrWithBatch) {
        sgd.learningRate *= static_cast<float>(
            static_cast<double>(config.batch) /
            space.referenceBatch());
    }
    return sgd;
}

} // namespace

NumericExecutor::NumericExecutor(ParameterStore &store,
                                 const Config &config)
    : _store(store), _config(config),
      _optimizer(effectiveSgd(config, store.space())),
      _gradNoise(deriveSeed(config.dataSeed, "grad-noise"))
{
    NASPIPE_ASSERT(config.batch >= 1, "batch must be >= 1");
    NASPIPE_ASSERT(config.gradNoise >= 0.0,
                   "gradient noise must be non-negative");
    NASPIPE_ASSERT(config.precision == store.precision(),
                   "executor/store precision mismatch");
    Philox4x32 teacher(deriveSeed(config.dataSeed, "teacher"));
    teacher.uniformFloats(0, kLayerDim, _teacherA.data(),
                          _teacherB.data());
    for (std::size_t i = 0; i < kLayerDim; i++) {
        _teacherA[i] = 0.5f + _teacherA[i];  // (0.5, 1.5)
        _teacherB[i] = _teacherB[i] - 0.5f;  // (-0.5, 0.5)
    }
}

void
NumericExecutor::fillDigest(TensorView out, SubnetId id,
                            const char *tag, std::uint64_t salt) const
{
    Philox4x32 philox(deriveSeed(_config.dataSeed, tag));
    std::uint64_t base =
        static_cast<std::uint64_t>(id) * kLayerDim + salt * (1ULL << 40);
    float *u = out.data();
    philox.uniformFloats(base, kLayerDim, u, nullptr);
    for (std::size_t i = 0; i < kLayerDim; i++)
        u[i] = 2.0f * u[i] - 1.0f;
}

/**
 * The fixed "teacher": targets are a deterministic elementwise map
 * of the input, shared across every training step. All subnets
 * therefore learn toward the same underlying function and shared
 * layers accumulate consistent signal — the supernet genuinely
 * converges instead of chasing per-step random targets.
 */
void
NumericExecutor::fillTeacherTarget(TensorView out,
                                   ConstTensorView input) const
{
    float *t = out.data();
    const float *in = input.data();
    for (std::size_t i = 0; i < kLayerDim; i++)
        t[i] = _teacherA[i] * in[i] + _teacherB[i];
    kernels::tanh(t, t, kLayerDim);
}

void
NumericExecutor::beginSubnet(const Subnet &subnet)
{
    NASPIPE_ASSERT(!inflightSubnet(subnet.id()), "SN", subnet.id(),
                   " already in flight");
    SubnetContext ctx;
    ctx.subnet = subnet;
    // One arena backs the subnet's whole numeric state; the act
    // vector holds views, so the per-activation std::vector
    // allocations of the old hot path are gone.
    std::size_t blocks = static_cast<std::size_t>(subnet.size());
    ctx.act.reserve(blocks + 1);
    for (std::size_t b = 0; b <= blocks; b++)
        ctx.act.push_back(ctx.arena.allocVector(kLayerDim));
    ctx.fwd.resize(blocks);
    ctx.target = ctx.arena.allocVector(kLayerDim);
    ctx.gradCursor = ctx.arena.allocVector(kLayerDim);
    ctx.gradScratch = ctx.arena.allocVector(kLayerDim);
    ctx.blockGrads = LayerGradsView(ctx.arena.allocVector(kLayerDim),
                                    ctx.arena.allocVector(kLayerDim));
    fillDigest(ctx.act[0], subnet.id(), "input", 0);
    quantizeStored(ctx.act[0]);
    fillTeacherTarget(ctx.target, ctx.act[0]);
    quantizeStored(ctx.target);
    ctx.bwdProgress = subnet.size() - 1;
    std::unique_lock<RankedSharedMutex> lock(_ctxMu);
    _contexts.emplace(subnet.id(), std::move(ctx));
}

NumericExecutor::SubnetContext &
NumericExecutor::context(SubnetId id)
{
    std::shared_lock<RankedSharedMutex> lock(_ctxMu);
    auto it = _contexts.find(id);
    NASPIPE_ASSERT(it != _contexts.end(), "SN", id, " not in flight");
    return it->second;
}

void
NumericExecutor::forwardStage(const Subnet &subnet, int lo, int hi,
                              UpdateSemantics semantics, int stage)
{
    SubnetContext &ctx = context(subnet.id());
    NASPIPE_ASSERT(lo == ctx.fwdProgress,
                   "forward must be contiguous: expected block ",
                   ctx.fwdProgress, " got ", lo);
    NASPIPE_ASSERT(hi < subnet.size(), "block range out of bounds");
    for (int b = lo; b <= hi; b++) {
        std::size_t bi = static_cast<std::size_t>(b);
        // Skip candidates are identity passthroughs: no parameters,
        // no READ, activation flows through unchanged.
        if (!_store.space().parameterized(b, subnet.choice(b))) {
            ctx.act[bi + 1].copyFrom(ctx.act[bi]);
            continue;
        }
        LayerId layer = subnet.layer(b);
        const LayerParams &params =
            _store.read(layer, subnet.id(), stage);
        SubnetContext::ForwardRecord &record = ctx.fwd[bi];
        record.tanhZ = ctx.arena.allocVector(kLayerDim);
        record.version = _store.version(layer);
        if (semantics == UpdateSemantics::WeightStash &&
            ctx.stashed.find(b) == ctx.stashed.end()) {
            // Snapshot the version into the subnet's arena.
            TensorView w = ctx.arena.allocVector(kLayerDim);
            TensorView bia = ctx.arena.allocVector(kLayerDim);
            w.copyFrom(params.weight);
            bia.copyFrom(params.bias);
            ctx.stashed.emplace(b, LayerParamsView(w, bia));
        }
        layerForward(params, ctx.act[bi], ctx.act[bi + 1],
                     record.tanhZ);
        quantizeStored(ctx.act[bi + 1]);
    }
    ctx.fwdProgress = hi + 1;
}

float
NumericExecutor::computeLoss(const Subnet &subnet)
{
    SubnetContext &ctx = context(subnet.id());
    NASPIPE_ASSERT(ctx.fwdProgress == subnet.size(),
                   "loss before forward completed");
    NASPIPE_ASSERT(!ctx.lossComputed, "loss computed twice");
    ConstTensorView out =
        ctx.act[static_cast<std::size_t>(subnet.size())];
    ctx.loss = kernels::quantize(_config.precision,
                                 mseLoss(out, ctx.target));
    mseLossGrad(out, ctx.target, ctx.gradCursor);
    quantizeStored(ctx.gradCursor);
    ctx.lossComputed = true;
    return ctx.loss;
}

void
NumericExecutor::applyUpdate(const Subnet &subnet, int block,
                             ConstTensorView gradWeight,
                             ConstTensorView gradBias, int stage)
{
    LayerParams &params =
        _store.write(subnet.layer(block), subnet.id(), stage);
    if (_config.gradNoise > 0.0) {
        // Mini-batch gradient noise: standard error ~ 1/sqrt(batch).
        // The noisy gradients live on the stack — applyUpdate runs
        // concurrently on different layers from different stage
        // workers, and must not allocate.
        float scale = static_cast<float>(
            _config.gradNoise /
            std::sqrt(static_cast<double>(_config.batch)));
        std::uint64_t base =
            (static_cast<std::uint64_t>(subnet.id()) << 24) ^
            (static_cast<std::uint64_t>(block) << 12);
        float noisyW[kLayerDim];
        float noisyB[kLayerDim];
        // The buffers first take the uniform draws (lanes 0 and 1 of
        // counters base … base + 63), then the noisy gradients.
        _gradNoise.uniformFloats(base, kLayerDim, noisyW, noisyB);
        const float *gw = gradWeight.data();
        const float *gb = gradBias.data();
        for (std::size_t i = 0; i < kLayerDim; i++) {
            noisyW[i] = gw[i] + scale * (2.0f * noisyW[i] - 1.0f);
            noisyB[i] = gb[i] + scale * (2.0f * noisyB[i] - 1.0f);
        }
        _optimizer.stepView(params.weight, params.bias,
                            ConstTensorView(noisyW, kLayerDim),
                            ConstTensorView(noisyB, kLayerDim));
    } else {
        _optimizer.stepView(params.weight, params.bias, gradWeight,
                            gradBias);
    }
    if (_config.precision != kernels::PrecisionMode::Fp32) {
        quantizeStored(params.weight);
        quantizeStored(params.bias);
    }
}

void
NumericExecutor::backwardStage(const Subnet &subnet, int lo, int hi,
                               UpdateSemantics semantics, int stage)
{
    SubnetContext &ctx = context(subnet.id());
    NASPIPE_ASSERT(ctx.lossComputed, "backward before loss");
    NASPIPE_ASSERT(hi == ctx.bwdProgress,
                   "backward must be contiguous: expected block ",
                   ctx.bwdProgress, " got ", hi);
    NASPIPE_ASSERT(lo >= 0, "block range out of bounds");

    for (int b = hi; b >= lo; b--) {
        // Identity passthrough: the gradient flows through unchanged
        // and there is nothing to update.
        if (!_store.space().parameterized(b, subnet.choice(b)))
            continue;
        LayerId layer = subnet.layer(b);

        LayerGradsView grads = ctx.blockGrads;
        if (semantics == UpdateSemantics::Deferred) {
            auto inserted = ctx.deferred.emplace(
                b,
                LayerGradsView(ctx.arena.allocVector(kLayerDim),
                               ctx.arena.allocVector(kLayerDim)));
            grads = inserted.first->second;
        }
        grads.clear();

        // The forward's tanh(z) is reused whenever the gradient
        // source is the parameters the forward read: always under
        // WeightStash (the stash is that copy), otherwise while no
        // WRITE has landed on the layer since (its version is
        // unchanged, as CSP guarantees).
        const std::size_t bi = static_cast<std::size_t>(b);
        const SubnetContext::ForwardRecord &record = ctx.fwd[bi];
        LayerParamsView gradSource{ConstTensorView(),
                                   ConstTensorView()};
        bool reuseTanh = true;
        if (semantics == UpdateSemantics::WeightStash) {
            auto it = ctx.stashed.find(b);
            NASPIPE_ASSERT(it != ctx.stashed.end(),
                           "missing stashed weights for block ", b);
            gradSource = it->second;
        } else {
            // Recompute semantics: gradients use the parameters
            // current at backward time (PyTorch checkpoint).
            gradSource = LayerParamsView(_store.peek(layer));
            reuseTanh = _store.version(layer) == record.version;
        }

        if (reuseTanh) {
            layerBackwardFromTanh(gradSource, ctx.act[bi], record.tanhZ,
                                  ctx.gradCursor, ctx.gradScratch,
                                  grads);
        } else {
            layerBackward(gradSource, ctx.act[bi], ctx.gradCursor,
                          ctx.gradScratch, grads);
        }
        quantizeStored(ctx.gradScratch);
        if (_config.precision != kernels::PrecisionMode::Fp32) {
            quantizeStored(grads.weight);
            quantizeStored(grads.bias);
        }
        std::swap(ctx.gradCursor, ctx.gradScratch);

        if (semantics != UpdateSemantics::Deferred)
            applyUpdate(subnet, b, grads.weight, grads.bias, stage);
    }
    ctx.bwdProgress = lo - 1;
}

float
NumericExecutor::finishSubnet(const Subnet &subnet)
{
    std::unique_lock<RankedSharedMutex> lock(_ctxMu);
    auto it = _contexts.find(subnet.id());
    NASPIPE_ASSERT(it != _contexts.end(), "SN", subnet.id(),
                   " not in flight");
    SubnetContext &ctx = it->second;
    NASPIPE_ASSERT(ctx.bwdProgress < 0,
                   "finish before backward completed");
    NASPIPE_ASSERT(ctx.deferred.empty(),
                   "finish with unapplied deferred gradients");
    float loss = ctx.loss;
    if (_config.trackLoss)
        _lossHistory.push_back(loss);
    _contexts.erase(it);
    return loss;
}

void
NumericExecutor::applyDeferredUpdates(std::vector<SubnetId> subnets)
{
    std::sort(subnets.begin(), subnets.end());
    for (SubnetId id : subnets) {
        SubnetContext &ctx = context(id);
        // std::map iterates blocks in ascending order: a fixed,
        // documented bulk-update order.
        for (const auto &[block, grads] : ctx.deferred)
            applyUpdate(ctx.subnet, block, grads.weight, grads.bias,
                        -1);
        ctx.deferred.clear();
    }
}

float
NumericExecutor::trainSequential(const Subnet &subnet)
{
    beginSubnet(subnet);
    forwardStage(subnet, 0, subnet.size() - 1,
                 UpdateSemantics::Immediate);
    computeLoss(subnet);
    backwardStage(subnet, 0, subnet.size() - 1,
                  UpdateSemantics::Immediate);
    return finishSubnet(subnet);
}

EvalSet
NumericExecutor::makeEvalSet(std::uint64_t evalSeed,
                             int evalBatches) const
{
    NASPIPE_ASSERT(evalBatches > 0, "need >= 1 eval batch");
    Philox4x32 philox(deriveSeed(evalSeed, "eval"));
    EvalSet eval;
    for (int e = 0; e < evalBatches; e++) {
        std::uint64_t base = static_cast<std::uint64_t>(e) * 2 *
                             kLayerDim;
        Tensor input(kLayerDim);
        float *u = input.data().data();
        philox.uniformFloats(base, kLayerDim, u, nullptr);
        for (std::size_t i = 0; i < kLayerDim; i++)
            u[i] = 2.0f * u[i] - 1.0f;
        quantizeStored(input);
        // Held-out inputs, same teacher: a real generalization probe.
        Tensor target(kLayerDim);
        fillTeacherTarget(target, input);
        quantizeStored(target);
        eval.inputs.push_back(std::move(input));
        eval.targets.push_back(std::move(target));
    }
    return eval;
}

float
NumericExecutor::evaluate(const Subnet &subnet, const EvalSet &eval)
{
    NASPIPE_ASSERT(!eval.inputs.empty() &&
                       eval.inputs.size() == eval.targets.size(),
                   "need >= 1 eval batch with a target each");
    // All batches advance together, one row each, so every layer is
    // one layerForward call (one parameter peek, one tanh kernel call)
    // for the whole set. Rows never mix, so each batch's loss has the
    // bits it would have if evaluated alone.
    const std::size_t batches = eval.inputs.size();
    std::vector<float> buffer(2 * batches * kLayerDim);
    TensorView act(buffer.data(), batches * kLayerDim);
    TensorView next(buffer.data() + batches * kLayerDim,
                    batches * kLayerDim);
    for (std::size_t e = 0; e < batches; e++) {
        TensorView(act.data() + e * kLayerDim, kLayerDim)
            .copyFrom(eval.inputs[e]);
    }
    for (int b = 0; b < subnet.size(); b++) {
        if (!_store.space().parameterized(b, subnet.choice(b)))
            continue;  // identity passthrough
        layerForward(_store.peek(subnet.layer(b)), act, next);
        quantizeStored(next);
        std::swap(act, next);
    }
    std::vector<float> losses(batches);
    for (std::size_t e = 0; e < batches; e++) {
        ConstTensorView out(act.data() + e * kLayerDim, kLayerDim);
        losses[e] = kernels::quantize(_config.precision,
                                      mseLoss(out, eval.targets[e]));
    }
    // Batch losses combine in the same fixed tree as every other
    // reduction; no raw float accumulation outside the kernel layer.
    return kernels::treeSum(losses.data(), losses.size()) /
           static_cast<float>(losses.size());
}

double
NumericExecutor::recentMeanLoss(std::size_t window) const
{
    if (_lossHistory.empty())
        return 0.0;
    std::size_t n = std::min(window, _lossHistory.size());
    double total = 0.0;
    for (std::size_t i = _lossHistory.size() - n;
         i < _lossHistory.size(); i++) {
        total += _lossHistory[i];
    }
    return total / static_cast<double>(n);
}

} // namespace naspipe
