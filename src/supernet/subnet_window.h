/**
 * @file
 * In-flight subnet window: per-subnet state from the elimination
 * frontier up.
 *
 * Subnets enter in sequence-ID order and leave from the front once
 * every earlier one is done — the elimination scheme of §3.2 — so the
 * live IDs always form one contiguous range [frontier, next). The
 * window keeps them in one vector behind a moving head: a lookup is
 * an offset, iteration runs in ascending ID, and the slots of popped
 * entries are reclaimed by a compaction that moves no more entries
 * than were popped since the last one (amortized O(1) per pop).
 * Nothing is allocated before the first push.
 */

#ifndef NASPIPE_SUPERNET_SUBNET_WINDOW_H
#define NASPIPE_SUPERNET_SUBNET_WINDOW_H

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "supernet/subnet.h"

namespace naspipe {

/**
 * A T per live subnet ID, ascending from the frontier.
 */
template <typename T>
class SubnetWindow
{
  public:
    using const_iterator = typename std::vector<T>::const_iterator;

    /** Every ID below this has been popped. */
    SubnetId frontier() const { return _frontier; }

    /** The ID the next push() takes. */
    SubnetId next() const
    {
        return _frontier + static_cast<SubnetId>(size());
    }

    std::size_t size() const { return _items.size() - _head; }
    bool empty() const { return size() == 0; }

    /** Whether a push has allocated storage yet. */
    bool allocated() const { return _items.capacity() > 0; }

    /** Whether @p id is live (pushed and not yet popped). */
    bool contains(SubnetId id) const
    {
        return id >= _frontier && id < next();
    }

    /** Append the entry of subnet next(). */
    T &
    push(T value)
    {
        _items.push_back(std::move(value));
        return _items.back();
    }

    T &
    operator[](SubnetId id)
    {
        return _items[offset(id)];
    }

    const T &
    operator[](SubnetId id) const
    {
        return _items[offset(id)];
    }

    /** The frontier's entry. */
    T &
    front()
    {
        NASPIPE_ASSERT(!empty(), "front() of an empty subnet window");
        return _items[_head];
    }

    /** Drop the frontier's entry; the frontier advances by one. */
    void
    pop()
    {
        NASPIPE_ASSERT(!empty(), "pop() of an empty subnet window");
        _items[_head] = T();  // release what the entry holds now
        _head++;
        _frontier++;
        if (_head >= _items.size() - _head) {
            _items.erase(_items.begin(),
                         _items.begin() +
                             static_cast<std::ptrdiff_t>(_head));
            _head = 0;
        }
    }

    /** Drop every entry; the next push() is subnet @p frontier. */
    void
    reset(SubnetId frontier = 0)
    {
        _items.clear();
        _head = 0;
        _frontier = frontier;
    }

    /** Live entries in ascending ID. */
    const_iterator begin() const
    {
        return _items.begin() + static_cast<std::ptrdiff_t>(_head);
    }
    const_iterator end() const { return _items.end(); }

  private:
    std::size_t
    offset(SubnetId id) const
    {
        NASPIPE_ASSERT(contains(id), "subnet SN", id,
                       " outside the window [", _frontier, ", ",
                       next(), ")");
        return _head + static_cast<std::size_t>(id - _frontier);
    }

    std::vector<T> _items;
    std::size_t _head = 0;  ///< index of the frontier's entry
    SubnetId _frontier = 0;
};

} // namespace naspipe

#endif // NASPIPE_SUPERNET_SUBNET_WINDOW_H
