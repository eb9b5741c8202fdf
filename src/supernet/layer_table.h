/**
 * @file
 * Dense per-layer table: one slot per candidate layer.
 *
 * Slot (block, choice) lives at index block * choicesPerBlock +
 * choice, so a lookup is one multiply-add instead of a tree walk, and
 * visiting the slots in index order visits ascending LayerId::key() —
 * the order every checkpoint stream, hash and export that walks
 * layers emits. The storage is allocated on the first mutable access,
 * not at construction: tables are built during run set-up, and a
 * paper space has thousands of candidate layers, so the slots are
 * paid for only once something is recorded in them.
 *
 * A table built with a space's shape panics on a layer outside it. A
 * default-constructed table has no shape yet and grows to cover the
 * layers it is given, re-laying its slots when a choice index
 * widens the rows.
 */

#ifndef NASPIPE_SUPERNET_LAYER_TABLE_H
#define NASPIPE_SUPERNET_LAYER_TABLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "supernet/layer.h"

namespace naspipe {

/**
 * A T per candidate layer, indexed by LayerId.
 */
template <typename T>
class LayerTable
{
  public:
    /** A table that grows to cover every layer it is given. */
    LayerTable() = default;

    /** A table of a numBlocks x choicesPerBlock space. */
    LayerTable(int numBlocks, int choicesPerBlock)
        : _numBlocks(static_cast<std::uint32_t>(numBlocks)),
          _choices(static_cast<std::uint32_t>(choicesPerBlock)),
          _fixed(true)
    {
    }

    /**
     * A table of a numBlocks x choicesPerBlock space that adopts
     * @p slots, one per layer in ascending key order.
     */
    LayerTable(int numBlocks, int choicesPerBlock, std::vector<T> slots)
        : LayerTable(numBlocks, choicesPerBlock)
    {
        NASPIPE_ASSERT(slots.size() ==
                           static_cast<std::size_t>(_numBlocks) * _choices,
                       "need one slot per layer of the space");
        _slots = std::move(slots);
    }

    /** Whether a mutable access has allocated the slots yet. */
    bool allocated() const { return !_slots.empty(); }

    /** Whether @p layer lies inside the table's current shape. */
    bool contains(const LayerId &layer) const
    {
        return layer.block < _numBlocks && layer.choice < _choices;
    }

    /** The slot of @p layer, allocating the table on first use. */
    T &
    operator[](const LayerId &layer)
    {
        if (!contains(layer)) {
            NASPIPE_ASSERT(!_fixed, "layer (", layer.block, ", ",
                           layer.choice, ") outside the ", _numBlocks,
                           "x", _choices, " space");
            reshape(std::max(_numBlocks, layer.block + 1),
                    std::max(_choices, layer.choice + 1));
        }
        if (_slots.empty())
            _slots.resize(static_cast<std::size_t>(_numBlocks) * _choices);
        return _slots[index(layer)];
    }

    /** The slot of @p layer; nullptr outside the shape or unallocated. */
    const T *
    find(const LayerId &layer) const
    {
        if (_slots.empty() || !contains(layer))
            return nullptr;
        return &_slots[index(layer)];
    }

    /**
     * Call @p visit(LayerId, const T &) for every slot in ascending
     * key order; visits nothing while unallocated.
     */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (std::size_t i = 0; i < _slots.size(); i++) {
            visit(LayerId{static_cast<std::uint32_t>(i / _choices),
                          static_cast<std::uint32_t>(i % _choices)},
                  _slots[i]);
        }
    }

    /** Release every slot; the next mutable access reallocates. */
    void
    clear()
    {
        _slots = std::vector<T>();
    }

  private:
    std::size_t
    index(const LayerId &layer) const
    {
        return static_cast<std::size_t>(layer.block) * _choices +
               layer.choice;
    }

    /** Grow an unshaped table, keeping every slot's contents. */
    void
    reshape(std::uint32_t numBlocks, std::uint32_t choices)
    {
        std::vector<T> grown;
        if (!_slots.empty()) {
            grown.resize(static_cast<std::size_t>(numBlocks) * choices);
            for (std::size_t i = 0; i < _slots.size(); i++) {
                grown[(i / _choices) * choices + i % _choices] =
                    std::move(_slots[i]);
            }
        }
        _slots = std::move(grown);
        _numBlocks = numBlocks;
        _choices = choices;
    }

    std::uint32_t _numBlocks = 0;
    std::uint32_t _choices = 0;
    bool _fixed = false;  ///< built with a space's shape
    std::vector<T> _slots;
};

} // namespace naspipe

#endif // NASPIPE_SUPERNET_LAYER_TABLE_H
