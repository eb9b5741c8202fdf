/**
 * @file
 * Deterministic SGD optimizer.
 *
 * Updates are applied in index order, param -= lr * grad per
 * element. Update time is part of the causal-dependency semantics: a
 * layer's WRITE happens when its optimizer step runs.
 */

#ifndef NASPIPE_TENSOR_SGD_H
#define NASPIPE_TENSOR_SGD_H

#include "tensor/layer_math.h"
#include "tensor/tensor.h"
#include "tensor/tensor_view.h"

namespace naspipe {

/** SGD hyperparameters. */
struct SgdConfig {
    float learningRate = 0.05f;
};

/**
 * Plain SGD over one layer's parameters.
 */
class SgdOptimizer
{
  public:
    explicit SgdOptimizer(const SgdConfig &config = SgdConfig());

    /** Apply one step: params -= lr * grads. */
    void step(LayerParams &params, const LayerGrads &grads) const;

    /**
     * The same step over raw views — the zero-copy hot path the
     * training engine drives with arena- or stack-backed gradients.
     */
    void stepView(TensorView weight, TensorView bias,
                  ConstTensorView gradWeight,
                  ConstTensorView gradBias) const;

    const SgdConfig &config() const { return _config; }

  private:
    void applyOne(TensorView param, ConstTensorView grad) const;

    SgdConfig _config;
};

} // namespace naspipe

#endif // NASPIPE_TENSOR_SGD_H
