#include "tensor/sgd.h"

#include "common/logging.h"

namespace naspipe {

SgdOptimizer::SgdOptimizer(const SgdConfig &config) : _config(config)
{
    NASPIPE_ASSERT(config.learningRate > 0.0f,
                   "learning rate must be positive");
}

void
SgdOptimizer::applyOne(TensorView param, ConstTensorView grad) const
{
    NASPIPE_ASSERT(param.size() == grad.size(),
                   "optimizer shape mismatch");
    float *__restrict p = param.data();
    const float *g = grad.data();
    const float lr = _config.learningRate;
    for (std::size_t i = 0; i < param.size(); i++)
        p[i] -= lr * g[i];
}

void
SgdOptimizer::step(LayerParams &params, const LayerGrads &grads) const
{
    applyOne(params.weight, grads.weight);
    applyOne(params.bias, grads.bias);
}

void
SgdOptimizer::stepView(TensorView weight, TensorView bias,
                       ConstTensorView gradWeight,
                       ConstTensorView gradBias) const
{
    applyOne(weight, gradWeight);
    applyOne(bias, gradBias);
}

} // namespace naspipe
