/**
 * @file
 * Surrogate layer math tests: gradient correctness and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/layer_math.h"

namespace naspipe {
namespace {

LayerParams
makeParams(std::uint64_t seed = 5)
{
    LayerParams p;
    initLayerParams(p, seed, 2, 3);
    return p;
}

Tensor
makeInput(float base = 0.3f)
{
    Tensor in(kLayerDim);
    for (std::size_t i = 0; i < kLayerDim; i++)
        in[i] = base + 0.01f * static_cast<float>(i % 7);
    return in;
}

TEST(LayerMath, InitIsDeterministic)
{
    LayerParams a = makeParams();
    LayerParams b = makeParams();
    EXPECT_TRUE(a.bitwiseEqual(b));
    EXPECT_EQ(a.contentHash(), b.contentHash());
}

TEST(LayerMath, InitVariesWithIdentity)
{
    LayerParams a, b, c;
    initLayerParams(a, 5, 1, 1);
    initLayerParams(b, 5, 1, 2);
    initLayerParams(c, 6, 1, 1);
    EXPECT_FALSE(a.bitwiseEqual(b));
    EXPECT_FALSE(a.bitwiseEqual(c));
}

TEST(LayerMath, InitBounded)
{
    LayerParams p = makeParams();
    for (std::size_t i = 0; i < kLayerDim; i++) {
        EXPECT_LT(std::fabs(p.weight[i]), 0.5f);
        EXPECT_LT(std::fabs(p.bias[i]), 0.05f + 1e-6f);
    }
}

TEST(LayerMath, ForwardBounded)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor out(kLayerDim);
    layerForward(p, in, out);
    ASSERT_EQ(out.size(), kLayerDim);
    for (std::size_t i = 0; i < kLayerDim; i++)
        EXPECT_LT(std::fabs(out[i]), 1.0f);
}

TEST(LayerMath, ForwardDeterministic)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor out1(kLayerDim), out2(kLayerDim);
    layerForward(p, in, out1);
    layerForward(p, in, out2);
    EXPECT_TRUE(out1.bitwiseEqual(out2));
}

TEST(LayerMath, ForwardMatchesOnePassFormulaBitwise)
{
    // The three-pass layout (z, kernel tanh, residual) gives every
    // element the one-pass formula's operations in the same order.
    LayerParams p = makeParams();
    Tensor in = makeInput(-0.8f);
    Tensor out(kLayerDim);
    layerForward(p, in, out);
    for (std::size_t i = 0; i < kLayerDim; i++) {
        std::size_t j = (i + 1) % kLayerDim;
        float z = p.weight[i] * in[i] + kMixCoeff * p.weight[j] +
                  p.bias[i];
        float want = in[i] + kResidual * std::tanh(z);
        EXPECT_EQ(out[i], want) << "element " << i;
    }
}

TEST(LayerMath, ForwardRowsEqualOneRowCalls)
{
    // Rows share the parameters and never mix: a 3-row call is three
    // one-row calls, bit for bit.
    LayerParams p = makeParams();
    Tensor rows(3 * kLayerDim), out(3 * kLayerDim);
    for (std::size_t r = 0; r < 3; r++) {
        Tensor in = makeInput(0.2f - 0.35f * static_cast<float>(r));
        for (std::size_t i = 0; i < kLayerDim; i++)
            rows[r * kLayerDim + i] = in[i];
    }
    layerForward(p, rows, out);
    for (std::size_t r = 0; r < 3; r++) {
        Tensor in(kLayerDim), one(kLayerDim);
        for (std::size_t i = 0; i < kLayerDim; i++)
            in[i] = rows[r * kLayerDim + i];
        layerForward(p, in, one);
        for (std::size_t i = 0; i < kLayerDim; i++)
            EXPECT_EQ(out[r * kLayerDim + i], one[i]) << r << "," << i;
    }
    Tensor ragged(kLayerDim + 1);
    EXPECT_THROW(layerForward(p, ragged, ragged), std::logic_error);
}

TEST(LayerMath, ForwardDependsOnMixedWeight)
{
    // The w_{i+1} coupling term must matter: changing weight[1]
    // changes output[0].
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor base(kLayerDim);
    layerForward(p, in, base);
    p.weight[1] += 0.25f;
    Tensor bumped(kLayerDim);
    layerForward(p, in, bumped);
    EXPECT_NE(base[0], bumped[0]);
}

TEST(LayerMath, BackwardMatchesNumericalGradient)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor out(kLayerDim);
    layerForward(p, in, out);

    // Scalar objective: L = sum(out).
    Tensor gradOut(kLayerDim);
    gradOut.fill(1.0f);
    Tensor gradIn(kLayerDim);
    LayerGrads grads;
    layerBackward(p, in, gradOut, gradIn, grads);

    auto lossAt = [&](const LayerParams &params, const Tensor &input) {
        Tensor o(kLayerDim);
        layerForward(params, input, o);
        double total = 0.0;
        for (std::size_t i = 0; i < kLayerDim; i++)
            total += o[i];
        return total;
    };

    const float eps = 1e-3f;
    // Check a few weight gradients via central differences.
    for (std::size_t i : {std::size_t{0}, std::size_t{7},
                          std::size_t{kLayerDim - 1}}) {
        LayerParams plus = p, minus = p;
        plus.weight[i] += eps;
        minus.weight[i] -= eps;
        double numeric =
            (lossAt(plus, in) - lossAt(minus, in)) / (2.0 * eps);
        EXPECT_NEAR(grads.weight[i], numeric, 5e-3) << "weight " << i;
    }
    // Bias gradients.
    for (std::size_t i : {std::size_t{3}, std::size_t{40}}) {
        LayerParams plus = p, minus = p;
        plus.bias[i] += eps;
        minus.bias[i] -= eps;
        double numeric =
            (lossAt(plus, in) - lossAt(minus, in)) / (2.0 * eps);
        EXPECT_NEAR(grads.bias[i], numeric, 5e-3) << "bias " << i;
    }
    // Input gradients.
    for (std::size_t i : {std::size_t{0}, std::size_t{31}}) {
        Tensor plus = in, minus = in;
        plus[i] += eps;
        minus[i] -= eps;
        double numeric =
            (lossAt(p, plus) - lossAt(p, minus)) / (2.0 * eps);
        EXPECT_NEAR(gradIn[i], numeric, 5e-3) << "input " << i;
    }
}

TEST(LayerMath, GradsAccumulateAcrossCalls)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor gradOut(kLayerDim);
    gradOut.fill(1.0f);
    Tensor gradIn(kLayerDim);
    LayerGrads once, twice;
    layerBackward(p, in, gradOut, gradIn, once);
    layerBackward(p, in, gradOut, gradIn, twice);
    layerBackward(p, in, gradOut, gradIn, twice);
    for (std::size_t i = 0; i < kLayerDim; i++)
        EXPECT_NEAR(twice.weight[i], 2.0f * once.weight[i], 1e-6f);
}

TEST(LayerMath, GradClearAndAccumulate)
{
    LayerGrads g;
    g.weight[0] = 2.0f;
    LayerGrads h;
    h.weight[0] = 3.0f;
    g.accumulate(h);
    EXPECT_EQ(g.weight[0], 5.0f);
    g.clear();
    EXPECT_EQ(g.weight[0], 0.0f);
}

TEST(LayerMath, ScalarCount)
{
    LayerParams p;
    EXPECT_EQ(p.scalarCount(), 2 * kLayerDim);
}

} // namespace
} // namespace naspipe
