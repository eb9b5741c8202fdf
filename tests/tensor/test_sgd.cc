/**
 * @file
 * SGD optimizer tests.
 */

#include <gtest/gtest.h>

#include "tensor/sgd.h"

namespace naspipe {
namespace {

TEST(Sgd, PlainStep)
{
    SgdConfig config;
    config.learningRate = 0.1f;
    SgdOptimizer opt(config);
    LayerParams p;
    p.weight.fill(1.0f);
    LayerGrads g;
    g.weight.fill(2.0f);
    opt.step(p, g);
    EXPECT_NEAR(p.weight[0], 0.8f, 1e-6f);
}

TEST(Sgd, BiasUpdatedToo)
{
    SgdConfig config;
    config.learningRate = 0.5f;
    SgdOptimizer opt(config);
    LayerParams p;
    p.bias.fill(1.0f);
    LayerGrads g;
    g.bias.fill(1.0f);
    opt.step(p, g);
    EXPECT_NEAR(p.bias[kLayerDim - 1], 0.5f, 1e-6f);
}

TEST(Sgd, InvalidHyperparametersPanic)
{
    SgdConfig bad;
    bad.learningRate = 0.0f;
    EXPECT_THROW(SgdOptimizer{bad}, std::logic_error);
}

TEST(Sgd, DeterministicUpdates)
{
    auto run = [] {
        SgdOptimizer opt(SgdConfig{});
        LayerParams p;
        initLayerParams(p, 3, 0, 0);
        LayerGrads g;
        g.weight.fill(0.123f);
        for (int i = 0; i < 10; i++)
            opt.step(p, g);
        return p.contentHash();
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace naspipe
