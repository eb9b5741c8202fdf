/**
 * @file
 * Per-stage causal dependency tracking (the core of Algorithm 2).
 *
 * Each stage keeps a registry of the subnets it knows (L_SN), which
 * of them already ran their backward pass on this stage (L_f), and a
 * frontier implementing the paper's elimination scheme: "when
 * subnets before a seq ID are all finished, we remove them both from
 * the finished list and the dependencies check" (§3.2). Both lists
 * live in one SubnetWindow of {subnet, finished} entries starting at
 * the frontier, so the check walks a contiguous array in ID order.
 *
 * satisfied(y, lo, hi) answers Algorithm 2's inner loops: is any
 * layer y picks in blocks [lo, hi] (the stage's partition of y) also
 * picked by an *unfinished* earlier subnet?
 */

#ifndef NASPIPE_SCHEDULE_DEPENDENCY_H
#define NASPIPE_SCHEDULE_DEPENDENCY_H

#include <cstdint>

#include "supernet/subnet.h"
#include "supernet/subnet_window.h"

namespace naspipe {

/**
 * Tracks which earlier subnets still block a candidate on one stage.
 */
class DependencyTracker
{
  public:
    /**
     * @param space when given, parameter-free candidates (skip /
     *        identity layers, which hold no trainable state) are
     *        exempt from dependency checks; without a space every
     *        equal choice counts.
     */
    explicit DependencyTracker(const SearchSpace *space = nullptr)
        : _space(space)
    {
    }

    /**
     * Register a subnet (stages retrieve subnets in sequence order
     * from the frontend; IDs must arrive consecutively).
     */
    void registerSubnet(const Subnet &subnet);

    /** Whether subnet @p id is known (registered, not eliminated). */
    bool knows(SubnetId id) const;

    /** Access a registered subnet. */
    const Subnet &subnet(SubnetId id) const;

    /**
     * Record that @p id's backward pass finished on this stage
     * (Algorithm 1 line 10, L_f.append). Advances the frontier and
     * garbage-collects fully-ordered prefixes.
     */
    void markFinished(SubnetId id);

    /** Whether @p id is finished on this stage. */
    bool finished(SubnetId id) const;

    /**
     * Algorithm 2's check for one candidate: true iff no unfinished
     * subnet with a smaller sequence ID shares a layer with the
     * candidate's blocks [firstBlock, lastBlock].
     *
     * @param candidate subnet being considered for a forward pass
     * @param firstBlock first block of the stage's partition of it
     * @param lastBlock last block (inclusive) of that partition
     */
    bool satisfied(const Subnet &candidate, int firstBlock,
                   int lastBlock) const;

    /**
     * The blocking subnet with the smallest ID, or -1 if satisfied.
     * Used by the predictor to propagate pending-backward metadata.
     */
    SubnetId firstBlocker(const Subnet &candidate, int firstBlock,
                          int lastBlock) const;

    /**
     * Variant of satisfied() that pretends @p hypothetical is already
     * finished — Algorithm 3 lines 5-6 pre-add the just-received
     * backward to L_f before re-running SCHEDULE().
     */
    bool satisfiedAssuming(const Subnet &candidate, int firstBlock,
                           int lastBlock, SubnetId hypothetical) const;

    /**
     * SSP variant: blockers within sequence distance @p staleness of
     * the candidate are tolerated (their writes may be read stale).
     * staleness == 0 is satisfied().
     */
    bool satisfiedWithStaleness(const Subnet &candidate,
                                int firstBlock, int lastBlock,
                                SubnetId staleness) const;

    /** All IDs below this are finished and eliminated. */
    SubnetId frontier() const { return _window.frontier(); }

    /** Number of retained (non-eliminated) subnets. */
    std::size_t retained() const { return _window.size(); }

    /** Size of the finished list (after elimination). */
    std::size_t finishedCount() const { return _finishedCount; }

    void reset();

  private:
    /** One retained subnet: an L_SN entry and its L_f flag. */
    struct Entry {
        Subnet subnet;
        bool finished = false;
    };

    /**
     * The unfinished subnet with the smallest ID below @p limit that
     * shares a layer with the candidate's blocks, skipping
     * @p hypothetical; -1 if there is none.
     */
    SubnetId scan(const Subnet &candidate, int firstBlock,
                  int lastBlock, SubnetId limit,
                  SubnetId hypothetical) const;

    bool blockedBy(const Subnet &candidate, int firstBlock,
                   int lastBlock, const Subnet &earlier) const;

    const SearchSpace *_space = nullptr;
    SubnetWindow<Entry> _window;    ///< L_SN and L_f (frontier-trimmed)
    std::size_t _finishedCount = 0; ///< finished entries in the window
};

} // namespace naspipe

#endif // NASPIPE_SCHEDULE_DEPENDENCY_H
