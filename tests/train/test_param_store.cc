/**
 * @file
 * Shared parameter store tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "supernet/sampler.h"
#include "train/numeric_executor.h"
#include "train/param_store.h"

namespace naspipe {
namespace {

struct StoreFixture : ::testing::Test {
    StoreFixture() : space(makeTinySpace()), store(space, 7) {}

    SearchSpace space;
    ParameterStore store;
};

TEST_F(StoreFixture, LazyMaterializationIsDeterministic)
{
    ParameterStore other(space, 7);
    LayerId layer{1, 2};
    EXPECT_TRUE(store.peek(layer).bitwiseEqual(other.peek(layer)));
}

TEST_F(StoreFixture, SeedChangesInitialWeights)
{
    ParameterStore other(space, 8);
    LayerId layer{1, 2};
    EXPECT_FALSE(store.peek(layer).bitwiseEqual(other.peek(layer)));
}

TEST_F(StoreFixture, ReadLogsAndReturnsCurrent)
{
    LayerId layer{0, 1};
    const LayerParams &p = store.read(layer, 3);
    EXPECT_TRUE(p.bitwiseEqual(store.peek(layer)));
    const auto &history = store.accessLog().layerHistory(layer);
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].subnet, 3);
    EXPECT_EQ(history[0].kind, AccessKind::Read);
}

TEST_F(StoreFixture, WriteBumpsVersionAndLogs)
{
    LayerId layer{2, 0};
    EXPECT_EQ(store.version(layer), 0u);
    store.write(layer, 5).weight[0] += 1.0f;
    EXPECT_EQ(store.version(layer), 1u);
    store.write(layer, 6);
    EXPECT_EQ(store.version(layer), 2u);
    EXPECT_EQ(store.accessLog().layerHistory(layer).size(), 2u);
}

TEST_F(StoreFixture, PeekDoesNotLog)
{
    store.peek(LayerId{0, 0});
    EXPECT_EQ(store.accessLog().totalRecords(), 0u);
}

TEST_F(StoreFixture, SupernetHashDeterministicAndSensitive)
{
    ParameterStore other(space, 7);
    EXPECT_EQ(store.supernetHash(), other.supernetHash());
    other.write(LayerId{1, 1}, 0).weight[5] += 0.5f;
    EXPECT_NE(store.supernetHash(), other.supernetHash());
}

TEST_F(StoreFixture, SupernetHashCoversUntouchedLayers)
{
    // Hashing must materialize everything (Definition 1 compares the
    // weights of *all* layers).
    store.supernetHash();
    EXPECT_EQ(store.materializedLayers(),
              static_cast<std::size_t>(space.totalLayers()));
}

TEST_F(StoreFixture, TouchedHashOnlyDependsOnTouched)
{
    ParameterStore a(space, 7), b(space, 7);
    a.peek(LayerId{0, 0});
    b.peek(LayerId{0, 0});
    EXPECT_EQ(a.touchedHash(), b.touchedHash());
    b.peek(LayerId{0, 1});
    EXPECT_NE(a.touchedHash(), b.touchedHash());
}

TEST_F(StoreFixture, CheckpointRoundTripsBitwise)
{
    // Train a little, checkpoint, restore into a fresh store.
    store.write(LayerId{1, 2}, 0).weight[3] = 0.123f;
    store.write(LayerId{0, 0}, 1).bias[7] = -4.5f;
    std::stringstream buffer;
    ASSERT_TRUE(store.save(buffer));

    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.load(buffer));
    EXPECT_EQ(store.supernetHash(), restored.supernetHash());
    EXPECT_EQ(restored.peek(LayerId{1, 2}).weight[3], 0.123f);
}

TEST_F(StoreFixture, CheckpointFileRoundTrip)
{
    store.write(LayerId{2, 1}, 0).weight[0] = 9.0f;
    std::string path =
        ::testing::TempDir() + "naspipe_store_test.ckpt";
    ASSERT_TRUE(store.saveFile(path));
    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.loadFile(path));
    EXPECT_EQ(store.supernetHash(), restored.supernetHash());
    std::remove(path.c_str());
}

TEST_F(StoreFixture, CheckpointRejectsGarbage)
{
    std::stringstream buffer("not a checkpoint");
    EXPECT_FALSE(store.load(buffer));
}

TEST_F(StoreFixture, CheckpointRejectsMismatchedStore)
{
    // A mismatched checkpoint is an expected operational condition
    // (wrong file, stale run), not a programming error: load reports
    // it and returns false instead of aborting.
    std::stringstream buffer;
    ASSERT_TRUE(store.save(buffer));
    ParameterStore otherSeed(space, 8);
    EXPECT_FALSE(otherSeed.load(buffer));
    EXPECT_EQ(otherSeed.supernetHash(),
              ParameterStore(space, 8).supernetHash());
}

TEST_F(StoreFixture, CheckpointTruncatedStreamFails)
{
    store.peek(LayerId{0, 0});
    std::stringstream buffer;
    ASSERT_TRUE(store.save(buffer));
    std::string bytes = buffer.str();
    std::stringstream truncated(
        bytes.substr(0, bytes.size() - 10));
    ParameterStore restored(space, 7);
    EXPECT_FALSE(restored.load(truncated));
}

TEST_F(StoreFixture, OutOfSpaceLayerPanics)
{
    EXPECT_THROW(store.peek(LayerId{4, 0}), std::logic_error);
    EXPECT_THROW(store.peek(LayerId{0, 3}), std::logic_error);
}

TEST(StoreCheckpointFormat, SaveStreamsArePinned)
{
    // A short sequential NLP.c1 run: later subnets touch layers whose
    // keys sort before layers touched earlier, so both streams must
    // order their layers by key, not by first touch.
    SearchSpace nlp = makeSpaceByName("NLP.c1");
    ParameterStore store(nlp, 7);
    NumericExecutor::Config config;
    config.dataSeed = 11;
    NumericExecutor exec(store, config);
    UniformSampler sampler(nlp, 5);
    for (int i = 0; i < 6; i++)
        exec.trainSequential(sampler.next());

    const AccessLog &log = store.accessLog();
    std::vector<LayerId> layers = log.touchedLayers();
    std::vector<LayerId> byFirstTouch = layers;
    std::sort(byFirstTouch.begin(), byFirstTouch.end(),
              [&log](const LayerId &a, const LayerId &b) {
                  return log.layerHistory(a).front().order <
                         log.layerHistory(b).front().order;
              });
    ASSERT_NE(byFirstTouch, layers) << "run touched layers in key order";

    std::stringstream params, records;
    ASSERT_TRUE(store.save(params));
    log.saveTo(records);
    const std::string p = params.str(), r = records.str();
    EXPECT_EQ(p.size(), 92976u);
    EXPECT_EQ(hashBytes(p.data(), p.size()), 0x877fd05afc804825ULL);
    EXPECT_EQ(r.size(), 11520u);
    EXPECT_EQ(hashBytes(r.data(), r.size()), 0xccbc28438c898169ULL);
}

} // namespace
} // namespace naspipe
