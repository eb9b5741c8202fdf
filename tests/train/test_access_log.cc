/**
 * @file
 * Access log tests: Table 4 rendering and sequential-equivalence.
 */

#include <gtest/gtest.h>

#include "train/access_log.h"

namespace naspipe {
namespace {

TEST(AccessLog, RendersPaperStyleOrder)
{
    AccessLog log;
    LayerId layer{0, 0};
    // Table 4's NASPipe row: 2F-2B-5F-5B-7F-7B.
    for (SubnetId id : {2, 5, 7}) {
        log.record(layer, id, AccessKind::Read);
        log.record(layer, id, AccessKind::Write);
    }
    EXPECT_EQ(log.renderOrder(layer), "2F-2B-5F-5B-7F-7B");
}

TEST(AccessLog, SequentialEquivalenceAccepts)
{
    AccessLog log;
    LayerId layer{0, 0};
    for (SubnetId id : {2, 5, 7}) {
        log.record(layer, id, AccessKind::Read);
        log.record(layer, id, AccessKind::Write);
    }
    EXPECT_TRUE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, BspBulkOrderIsRejected)
{
    // Table 4's GPipe 8-GPU row: 2F-5F-7F-2B-5B-7B.
    AccessLog log;
    LayerId layer{0, 0};
    for (SubnetId id : {2, 5, 7})
        log.record(layer, id, AccessKind::Read);
    for (SubnetId id : {2, 5, 7})
        log.record(layer, id, AccessKind::Write);
    EXPECT_EQ(log.renderOrder(layer), "2F-5F-7F-2B-5B-7B");
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, AspInterleavingIsRejected)
{
    // Table 4's PipeDream 4-GPU row: 2F-2B-5F-7F-5B-7B.
    AccessLog log;
    LayerId layer{0, 0};
    log.record(layer, 2, AccessKind::Read);
    log.record(layer, 2, AccessKind::Write);
    log.record(layer, 5, AccessKind::Read);
    log.record(layer, 7, AccessKind::Read);
    log.record(layer, 5, AccessKind::Write);
    log.record(layer, 7, AccessKind::Write);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, DescendingIdsRejected)
{
    AccessLog log;
    LayerId layer{0, 0};
    log.record(layer, 5, AccessKind::Read);
    log.record(layer, 5, AccessKind::Write);
    log.record(layer, 2, AccessKind::Read);
    log.record(layer, 2, AccessKind::Write);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, WriteWithoutReadRejected)
{
    AccessLog log;
    LayerId layer{0, 0};
    log.record(layer, 1, AccessKind::Write);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, DanglingReadRejected)
{
    AccessLog log;
    LayerId layer{0, 0};
    log.record(layer, 1, AccessKind::Read);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, EmptyHistoryIsTriviallyEquivalent)
{
    AccessLog log;
    EXPECT_TRUE(log.sequentiallyEquivalent(LayerId{3, 3}));
    EXPECT_EQ(log.renderOrder(LayerId{3, 3}), "");
}

TEST(AccessLog, GlobalOrderSpansLayers)
{
    AccessLog log;
    log.record(LayerId{0, 0}, 0, AccessKind::Read);
    log.record(LayerId{1, 1}, 0, AccessKind::Read);
    EXPECT_EQ(log.layerHistory(LayerId{0, 0})[0].order, 0u);
    EXPECT_EQ(log.layerHistory(LayerId{1, 1})[0].order, 1u);
    EXPECT_EQ(log.totalRecords(), 2u);
}

TEST(AccessLog, TouchedLayersAndAllCheck)
{
    AccessLog log;
    LayerId good{0, 0}, bad{0, 1};
    log.record(good, 1, AccessKind::Read);
    log.record(good, 1, AccessKind::Write);
    log.record(bad, 2, AccessKind::Write);
    EXPECT_EQ(log.touchedLayers().size(), 2u);
    EXPECT_FALSE(log.allSequentiallyEquivalent());
}

TEST(AccessLog, DisabledLogRecordsNothing)
{
    AccessLog log;
    log.enabled(false);
    log.record(LayerId{0, 0}, 0, AccessKind::Read);
    EXPECT_EQ(log.totalRecords(), 0u);
}

TEST(AccessLog, ShapedLogRejectsLayersOutsideItsSpace)
{
    AccessLog log(4, 3);
    log.record(LayerId{3, 2}, 0, AccessKind::Read);
    EXPECT_THROW(log.record(LayerId{4, 0}, 0, AccessKind::Read),
                 std::logic_error);
    EXPECT_THROW(log.record(LayerId{0, 3}, 0, AccessKind::Read),
                 std::logic_error);
    EXPECT_TRUE(log.layerHistory(LayerId{9, 9}).empty());
    EXPECT_EQ(log.touchedLayers(), std::vector<LayerId>{(LayerId{3, 2})});
}

TEST(AccessLog, ClearResets)
{
    AccessLog log;
    log.record(LayerId{0, 0}, 0, AccessKind::Read);
    log.clear();
    EXPECT_EQ(log.totalRecords(), 0u);
    EXPECT_TRUE(log.touchedLayers().empty());
}

} // namespace
} // namespace naspipe
