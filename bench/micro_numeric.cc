/**
 * @file
 * google-benchmark micro-benchmarks of the numeric training plane:
 * the per-layer surrogate math, whole-subnet training steps and
 * checkpoint serialization. The numeric plane must stay cheap next
 * to the event simulation so full evaluation sweeps run in seconds.
 */

#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "supernet/sampler.h"
#include "tensor/kernels/reduce.h"
#include "train/numeric_executor.h"

namespace naspipe {
namespace {

void
BM_LayerForward(benchmark::State &state)
{
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    Tensor in(kLayerDim), out(kLayerDim);
    in.fill(0.25f);
    for (auto _ : state) {
        layerForward(params, in, out);
        benchmark::DoNotOptimize(out.data().data());
    }
}
BENCHMARK(BM_LayerForward);

void
BM_LayerBackward(benchmark::State &state)
{
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    Tensor in(kLayerDim), gradOut(kLayerDim), gradIn(kLayerDim);
    in.fill(0.25f);
    gradOut.fill(0.1f);
    LayerGrads grads;
    for (auto _ : state) {
        grads.clear();
        layerBackward(params, in, gradOut, gradIn, grads);
        benchmark::DoNotOptimize(grads.weight.data().data());
    }
}
BENCHMARK(BM_LayerBackward);

void
BM_TrainSequentialSubnet(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    ParameterStore store(space, 7);
    NumericExecutor::Config config;
    config.batch = 160;
    NumericExecutor exec(store, config);
    UniformSampler sampler(space, 13);
    SubnetId id = 0;
    for (auto _ : state) {
        Subnet sn = sampler.next();
        benchmark::DoNotOptimize(exec.trainSequential(sn));
        (void)id;
    }
}
BENCHMARK(BM_TrainSequentialSubnet);

void
BM_EvaluateSubnet(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    ParameterStore store(space, 7);
    NumericExecutor::Config config;
    NumericExecutor exec(store, config);
    UniformSampler sampler(space, 13);
    Subnet sn = sampler.next();
    const EvalSet eval = exec.makeEvalSet(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.evaluate(sn, eval));
}
BENCHMARK(BM_EvaluateSubnet);

void
BM_SupernetHash(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48,
                      static_cast<int>(state.range(0)), 7, 0.37);
    ParameterStore store(space, 7);
    store.supernetHash();  // materialize once
    for (auto _ : state)
        benchmark::DoNotOptimize(store.supernetHash());
}
BENCHMARK(BM_SupernetHash)->Arg(24)->Arg(72);

/** Operand vector for the reduction benchmarks: varied, bounded. */
std::vector<float>
reduceOperands(std::size_t n)
{
    std::vector<float> a(n);
    for (std::size_t i = 0; i < n; i++)
        a[i] = 0.001f * static_cast<float>(i % 97) - 0.05f;
    return a;
}

void
BM_ReduceSequential(benchmark::State &state)
{
    // The pre-kernel-layer baseline: one serial dependency chain.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> a = reduceOperands(n);
    for (auto _ : state) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; i++)
            acc += a[i];
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ReduceSequential)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void
BM_ReduceTree(benchmark::State &state)
{
    // The kernel layer's fixed-shape pairwise tree: independent
    // adjacent-pair adds the compiler can vectorize, same bits on
    // every platform.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> a = reduceOperands(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernels::treeSum(a.data(), n));
}
BENCHMARK(BM_ReduceTree)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void
BM_ReduceTreeDot(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> a = reduceOperands(n);
    std::vector<float> b = reduceOperands(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            kernels::treeDot(a.data(), b.data(), n));
}
BENCHMARK(BM_ReduceTreeDot)->Arg(4096)->Arg(65536);

void
BM_CheckpointSave(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 24, 7, 0.37);
    ParameterStore store(space, 7);
    store.supernetHash();  // materialize all layers
    for (auto _ : state) {
        std::stringstream buffer;
        benchmark::DoNotOptimize(store.save(buffer));
    }
}
BENCHMARK(BM_CheckpointSave);

} // namespace
} // namespace naspipe

BENCHMARK_MAIN();
