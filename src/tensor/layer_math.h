/**
 * @file
 * Numeric forward/backward surrogate of one candidate layer.
 *
 * Every candidate layer is trained with a fixed-width parameter
 * vector and an elementwise-mixing nonlinearity. The surrogate is
 * deliberately small — what the reproducibility experiments need is
 * real floating-point state whose final bits depend on the order of
 * parameter reads and writes, not a competitive model — but it is a
 * genuine differentiable layer. Like the transformer and conv blocks
 * of the real search spaces, it is *residual* — an identity path
 * plus a learned correction — so signal and gradients survive
 * arbitrary stacking depth and the supernet actually converges.
 * Forward computes
 *
 *     z_i = w_i * a_i + kMix * w_{(i+1) mod dim} + b_i,
 *     out_i = a_i + kResidual * tanh(z_i),
 *
 * (the w_{i+1} term couples parameters so updates are not separable),
 * and backward computes exact gradients of that function. Both run in
 * three passes — every z_i, one kernels::tanh call over the vector,
 * then the residual (forward) or dz (backward) — which gives each
 * element the one-pass formula's operations in the same order. The
 * neighbour products kMix * w_{i+1} (and kMix * dz_{i-1} in the
 * gradient) are built once per call as a row with the wrap element
 * peeled, so no loop indexes modulo kLayerDim and every loop
 * vectorizes; a product rounds the same in a row as inline.
 *
 * The passes take non-owning views (LayerParamsView / LayerGradsView)
 * so the training engine can run them over arena-backed storage with
 * zero allocation; owning LayerParams/LayerGrads convert implicitly.
 * Output views must be pre-sized to kLayerDim.
 */

#ifndef NASPIPE_TENSOR_LAYER_MATH_H
#define NASPIPE_TENSOR_LAYER_MATH_H

#include "tensor/tensor.h"
#include "tensor/tensor_view.h"

namespace naspipe {

/** Width of every surrogate layer's activation/parameter vectors. */
constexpr std::size_t kLayerDim = 64;

/** Cross-parameter mixing coefficient. */
constexpr float kMixCoeff = 0.1f;

/** Residual-branch scale. */
constexpr float kResidual = 0.3f;

/** Parameters of one surrogate layer: weights and bias. */
struct LayerParams {
    Tensor weight;  ///< length kLayerDim
    Tensor bias;    ///< length kLayerDim

    LayerParams();

    /** Total number of scalars. */
    std::size_t scalarCount() const
    {
        return weight.size() + bias.size();
    }

    bool bitwiseEqual(const LayerParams &other) const;
    std::uint64_t contentHash() const;
};

/** Gradients matching LayerParams. */
struct LayerGrads {
    Tensor weight;
    Tensor bias;

    LayerGrads();

    void clear();
};

/** Non-owning read view of one layer's parameters. */
struct LayerParamsView {
    ConstTensorView weight;
    ConstTensorView bias;

    LayerParamsView(ConstTensorView w, ConstTensorView b)
        : weight(w), bias(b)
    {
    }

    LayerParamsView(const LayerParams &p)
        : weight(p.weight), bias(p.bias)
    {
    }
};

/** Non-owning accumulation view of one layer's gradients. */
struct LayerGradsView {
    TensorView weight;
    TensorView bias;

    LayerGradsView(TensorView w, TensorView b) : weight(w), bias(b) {}

    LayerGradsView(LayerGrads &g) : weight(g.weight), bias(g.bias) {}

    void clear() const
    {
        weight.fill(0.0f);
        bias.fill(0.0f);
    }
};

/**
 * Deterministically initialize @p params from (seed, block, choice) —
 * every rebuild anywhere yields identical initial weights, the
 * equivalent of fixing the framework init seed (§4.1).
 */
void initLayerParams(LayerParams &params, std::uint64_t seed,
                     std::uint32_t block, std::uint32_t choice);

/**
 * Forward pass of the surrogate layer over one or more rows: @p input
 * holds rows of kLayerDim activations back to back, and every row
 * goes through the same parameters. A row's output bits do not depend
 * on the other rows, so a batch of rows (the search's eval batches)
 * equals that many one-row calls, at one parameter read and one tanh
 * kernel call per layer.
 * @param params layer parameters (READ access)
 * @param input activation rows from the previous layer
 * @param output activation rows to the next layer (pre-sized to
 *        input.size(); must not overlap @p input)
 * @param tanhOut when not empty, receives tanh(z) of every row
 *        (pre-sized to input.size(); overlaps neither @p input nor
 *        @p output), so a later layerBackwardFromTanh over the same
 *        parameters and input can skip the recomputation
 */
void layerForward(LayerParamsView params, ConstTensorView input,
                  TensorView output, TensorView tanhOut = TensorView());

/**
 * Backward pass: exact gradients of layerForward. Recomputes tanh(z)
 * from @p params and @p input, then runs layerBackwardFromTanh.
 * @param params parameters used for the recomputation
 * @param input the forward input activation
 * @param gradOutput dL/d output
 * @param gradInput dL/d input (pre-sized kLayerDim; must not alias
 *        gradOutput)
 * @param grads dL/d params (accumulated into, must be zeroed by the
 *        caller if fresh gradients are wanted)
 */
void layerBackward(LayerParamsView params, ConstTensorView input,
                   ConstTensorView gradOutput, TensorView gradInput,
                   LayerGradsView grads);

/**
 * layerBackward's gradient tail given @p tanhZ = tanh(z) of @p params
 * and @p input, as layerForward's tanhOut wrote it. Bitwise equal to
 * layerBackward when @p tanhZ came from the same parameters and input;
 * gradInput and the grads must not overlap any input.
 */
void layerBackwardFromTanh(LayerParamsView params, ConstTensorView input,
                           ConstTensorView tanhZ,
                           ConstTensorView gradOutput,
                           TensorView gradInput, LayerGradsView grads);

} // namespace naspipe

#endif // NASPIPE_TENSOR_LAYER_MATH_H
