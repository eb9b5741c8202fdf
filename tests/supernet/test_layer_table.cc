/**
 * @file
 * LayerTable and SubnetWindow tests: the dense per-layer table and
 * the in-flight subnet window the simulator, the dependency tracker,
 * the parameter store and the access log keep their state in.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "supernet/layer_table.h"
#include "supernet/subnet_window.h"

namespace naspipe {
namespace {

TEST(LayerTable, NothingAllocatedBeforeTheFirstInsert)
{
    LayerTable<int> table(48, 48);
    EXPECT_FALSE(table.allocated());
    EXPECT_EQ(table.find(LayerId{3, 4}), nullptr);
    int visits = 0;
    table.forEach([&visits](const LayerId &, int) { visits++; });
    EXPECT_EQ(visits, 0);

    table[LayerId{3, 4}] = 7;
    EXPECT_TRUE(table.allocated());
    ASSERT_NE(table.find(LayerId{3, 4}), nullptr);
    EXPECT_EQ(*table.find(LayerId{3, 4}), 7);
    EXPECT_EQ(*table.find(LayerId{0, 0}), 0);

    table.clear();
    EXPECT_FALSE(table.allocated());
    EXPECT_EQ(table.find(LayerId{3, 4}), nullptr);
}

TEST(LayerTable, IterationIsAscendingKeyOrder)
{
    LayerTable<int> table(5, 7);
    // Insert in scrambled order; every slot is visited, ascending.
    for (std::uint32_t b : {4u, 0u, 2u}) {
        for (std::uint32_t c : {6u, 1u, 3u})
            table[LayerId{b, c}] = static_cast<int>(b * 10 + c);
    }
    std::vector<std::uint64_t> keys;
    table.forEach([&](const LayerId &layer, int value) {
        keys.push_back(layer.key());
        if (value != 0) {
            EXPECT_EQ(value, static_cast<int>(layer.block * 10 +
                                              layer.choice));
        }
    });
    ASSERT_EQ(keys.size(), 35u);
    for (std::size_t i = 1; i < keys.size(); i++)
        EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(LayerTable, ShapedTableRejectsLayersOutsideTheSpace)
{
    LayerTable<int> table(4, 3);
    EXPECT_THROW(table[(LayerId{4, 0})], std::logic_error);
    EXPECT_THROW(table[(LayerId{0, 3})], std::logic_error);
    EXPECT_EQ(table.find(LayerId{9, 9}), nullptr);
}

TEST(LayerTable, UnshapedTableGrowsAndKeepsContents)
{
    LayerTable<std::string> table;
    EXPECT_FALSE(table.allocated());
    table[LayerId{1, 1}] = "a";
    table[LayerId{0, 5}] = "b";  // widens every row
    table[LayerId{6, 2}] = "c";  // adds rows
    EXPECT_TRUE(table.contains(LayerId{6, 5}));
    EXPECT_FALSE(table.contains(LayerId{7, 0}));
    EXPECT_EQ(*table.find(LayerId{1, 1}), "a");
    EXPECT_EQ(*table.find(LayerId{0, 5}), "b");
    EXPECT_EQ(*table.find(LayerId{6, 2}), "c");
    std::vector<std::string> seen;
    table.forEach([&seen](const LayerId &, const std::string &v) {
        if (!v.empty())
            seen.push_back(v);
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"b", "a", "c"}));
}

TEST(SubnetWindow, NothingAllocatedBeforeTheFirstPush)
{
    SubnetWindow<int> window;
    EXPECT_FALSE(window.allocated());
    EXPECT_TRUE(window.empty());
    EXPECT_EQ(window.frontier(), 0);
    EXPECT_EQ(window.next(), 0);
    window.push(5);
    EXPECT_TRUE(window.allocated());
    EXPECT_EQ(window[0], 5);
}

TEST(SubnetWindow, IterationIsAscendingIdOrder)
{
    SubnetWindow<SubnetId> window;
    for (SubnetId id = 0; id < 10; id++)
        window.push(id);
    window.pop();
    window.pop();
    window.push(10);
    std::vector<SubnetId> seen(window.begin(), window.end());
    std::vector<SubnetId> expected;
    for (SubnetId id = 2; id <= 10; id++)
        expected.push_back(id);
    EXPECT_EQ(seen, expected);
    for (SubnetId id = 2; id <= 10; id++)
        EXPECT_EQ(window[id], id);
}

TEST(SubnetWindow, FrontierAdvancesAndDropsEliminatedIds)
{
    SubnetWindow<std::vector<int>> window;
    for (int i = 0; i < 100; i++)
        window.push(std::vector<int>(3, i));
    for (int i = 0; i < 97; i++) {
        EXPECT_EQ(window.front().front(), i);
        window.pop();
        EXPECT_EQ(window.frontier(), i + 1);
        EXPECT_FALSE(window.contains(i));
        EXPECT_THROW(window[i], std::logic_error);
    }
    EXPECT_EQ(window.size(), 3u);
    EXPECT_EQ(window.next(), 100);
    EXPECT_TRUE(window.contains(99));
    EXPECT_FALSE(window.contains(100));
    EXPECT_EQ(window[98].front(), 98);

    window.reset(40);
    EXPECT_TRUE(window.empty());
    EXPECT_EQ(window.frontier(), 40);
    window.push({1});
    EXPECT_TRUE(window.contains(40));
}

} // namespace
} // namespace naspipe
