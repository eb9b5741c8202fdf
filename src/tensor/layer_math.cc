#include "tensor/layer_math.h"

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/kernels/tanh.h"

namespace naspipe {

LayerParams::LayerParams()
    : weight(kLayerDim), bias(kLayerDim)
{
}

bool
LayerParams::bitwiseEqual(const LayerParams &other) const
{
    return weight.bitwiseEqual(other.weight) &&
           bias.bitwiseEqual(other.bias);
}

std::uint64_t
LayerParams::contentHash() const
{
    // Combine the two hashes order-dependently.
    std::uint64_t h = weight.contentHash();
    h ^= bias.contentHash() + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return h;
}

LayerGrads::LayerGrads()
    : weight(kLayerDim), bias(kLayerDim)
{
}

void
LayerGrads::clear()
{
    weight.fill(0.0f);
    bias.fill(0.0f);
}

void
initLayerParams(LayerParams &params, std::uint64_t seed,
                std::uint32_t block, std::uint32_t choice)
{
    Philox4x32 philox(deriveSeed(seed, "layer-init"));
    std::uint64_t base =
        (static_cast<std::uint64_t>(block) << 40) |
        (static_cast<std::uint64_t>(choice) << 20);
    float u0[kLayerDim];
    float u1[kLayerDim];
    philox.uniformFloats(base, kLayerDim, u0, u1);
    for (std::size_t i = 0; i < kLayerDim; i++) {
        // Small symmetric init in (-0.5, 0.5).
        params.weight[i] = u0[i] - 0.5f;
        params.bias[i] = 0.1f * (u1[i] - 0.5f);
    }
}

namespace {

/**
 * mix[i] = kMixCoeff * v[(i + 1) % kLayerDim]: the z terms' neighbour
 * products, with the wrap peeled so the z loops index without a
 * modulo and vectorize. Each product has the bits it has inline.
 */
void
mixNext(const float *v, float *mix)
{
    for (std::size_t i = 0; i + 1 < kLayerDim; i++)
        mix[i] = kMixCoeff * v[i + 1];
    mix[kLayerDim - 1] = kMixCoeff * v[0];
}

/** mix[i] = kMixCoeff * v[(i + kLayerDim - 1) % kLayerDim]. */
void
mixPrev(const float *v, float *mix)
{
    mix[0] = kMixCoeff * v[kLayerDim - 1];
    for (std::size_t i = 1; i < kLayerDim; i++)
        mix[i] = kMixCoeff * v[i - 1];
}

/** z_i = w_i * a_i + kMix * w_{i+1} + b_i over one row. */
void
preactivation(LayerParamsView params, const float *mix,
              const float *in, float *__restrict z)
{
    const float *w = params.weight.data();
    const float *bias = params.bias.data();
    for (std::size_t i = 0; i < kLayerDim; i++)
        z[i] = w[i] * in[i] + mix[i] + bias[i];
}

} // namespace

void
layerForward(LayerParamsView params, ConstTensorView input,
             TensorView output, TensorView tanhOut)
{
    NASPIPE_ASSERT(params.weight.size() == kLayerDim &&
                       params.bias.size() == kLayerDim &&
                       !input.empty() && input.size() % kLayerDim == 0 &&
                       output.size() == input.size() &&
                       (tanhOut.empty() ||
                        tanhOut.size() == input.size()),
                   "layer forward shape mismatch");
    const float *in = input.data();
    float *out = output.data();
    const std::size_t n = input.size();
    // Three passes: z into the output, one tanh kernel call over
    // every row, then the residual. Each element sees the operations
    // of the one-pass formula in the same order, so the bits do not
    // depend on the pass split or on the number of rows.
    float mix[kLayerDim];
    mixNext(params.weight.data(), mix);
    for (std::size_t row = 0; row < n; row += kLayerDim)
        preactivation(params, mix, in + row, out + row);
    float *t = tanhOut.empty() ? out : tanhOut.data();
    kernels::tanh(out, t, n);
    for (std::size_t k = 0; k < n; k++)
        out[k] = in[k] + kResidual * t[k];
}

void
layerBackward(LayerParamsView params, ConstTensorView input,
              ConstTensorView gradOutput, TensorView gradInput,
              LayerGradsView grads)
{
    NASPIPE_ASSERT(input.size() == kLayerDim,
                   "layer backward shape mismatch");
    // Recompute z (activation recomputation semantics): the backward
    // uses the parameter values *current at backward time*, exactly
    // like PyTorch's checkpoint utility the paper uses. tanh(z) lives
    // on the stack — the backward path allocates nothing.
    float mix[kLayerDim];
    float tanhZ[kLayerDim];
    mixNext(params.weight.data(), mix);
    preactivation(params, mix, input.data(), tanhZ);
    kernels::tanh(tanhZ, tanhZ, kLayerDim);
    layerBackwardFromTanh(params, input, ConstTensorView(tanhZ, kLayerDim),
                          gradOutput, gradInput, grads);
}

void
layerBackwardFromTanh(LayerParamsView params, ConstTensorView input,
                      ConstTensorView tanhZ, ConstTensorView gradOutput,
                      TensorView gradInput, LayerGradsView grads)
{
    NASPIPE_ASSERT(input.size() == kLayerDim &&
                       tanhZ.size() == kLayerDim &&
                       gradOutput.size() == kLayerDim &&
                       gradInput.size() == kLayerDim,
                   "layer backward shape mismatch");
    const float *in = input.data();
    const float *t = tanhZ.data();
    const float *gOut = gradOutput.data();
    const float *w = params.weight.data();
    float dz[kLayerDim];
    for (std::size_t i = 0; i < kLayerDim; i++)
        dz[i] = gOut[i] * kResidual * (1.0f - t[i] * t[i]);
    // w_i appears in z_i (times input_i) and in z_{i-1} (times
    // kMixCoeff).
    float dzMix[kLayerDim];
    mixPrev(dz, dzMix);
    float *__restrict gw = grads.weight.data();
    float *__restrict gb = grads.bias.data();
    float *__restrict gIn = gradInput.data();
    for (std::size_t i = 0; i < kLayerDim; i++)
        gw[i] += dz[i] * in[i] + dzMix[i];
    for (std::size_t i = 0; i < kLayerDim; i++)
        gb[i] += dz[i];
    // The identity path contributes gradOutput directly.
    for (std::size_t i = 0; i < kLayerDim; i++)
        gIn[i] = gOut[i] + dz[i] * w[i];
}

} // namespace naspipe
