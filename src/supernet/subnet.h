/**
 * @file
 * Subnet representation: one sampled architecture.
 *
 * A subnet is an m-sized list of layer choices, one per choice block,
 * carrying the sequence ID the exploration algorithm assigned to it
 * (paper §3, Preliminaries). Causal dependencies between subnets are
 * decided purely from choice overlap.
 */

#ifndef NASPIPE_SUPERNET_SUBNET_H
#define NASPIPE_SUPERNET_SUBNET_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "supernet/layer.h"
#include "supernet/search_space.h"

namespace naspipe {

/** Sequence ID of a subnet in the exploration order. */
using SubnetId = std::int64_t;

/**
 * One sampled subnet: a choice per block plus its sequence ID.
 */
class Subnet
{
  public:
    Subnet() = default;

    /**
     * @param id sequence ID assigned by the exploration algorithm
     * @param choices layer choice per block
     */
    Subnet(SubnetId id, std::vector<std::uint16_t> choices);

    SubnetId id() const { return _id; }

    /** Number of blocks (m). */
    int size() const { return static_cast<int>(_choices.size()); }

    /** Choice in block @p block. */
    int
    choice(int block) const
    {
        NASPIPE_ASSERT(block >= 0 && block < size(),
                       "block ", block, " out of range");
        return _choices[static_cast<std::size_t>(block)];
    }

    /** All choices. */
    const std::vector<std::uint16_t> &choices() const { return _choices; }

    /** LayerId of the activated layer in @p block. */
    LayerId
    layer(int block) const
    {
        return LayerId{static_cast<std::uint32_t>(block),
                       static_cast<std::uint32_t>(choice(block))};
    }

    /**
     * Whether this subnet activates the same layer as @p other in any
     * block, i.e. whether a causal dependency exists between them.
     */
    bool sharesLayerWith(const Subnet &other) const;

    /** Blocks in which this subnet and @p other pick the same layer. */
    std::vector<int> sharedBlocks(const Subnet &other) const;

    /**
     * Whether any block in [firstBlock, lastBlock] of this subnet
     * activates the same layer as @p other picks in that block. This
     * is the stage-local dependency test of Algorithm 2 (the blocks
     * of one pipeline stage against the whole earlier subnet).
     */
    bool sharesLayerInRange(const Subnet &other, int firstBlock,
                            int lastBlock) const;

    /** Total parameter bytes of the activated layers. */
    std::uint64_t paramBytes(const SearchSpace &space) const;

    /** Sum of forward times at @p batch over all activated layers. */
    double fwdMs(const SearchSpace &space, int batch) const;

    /** Sum of backward times at @p batch over all activated layers. */
    double bwdMs(const SearchSpace &space, int batch) const;

    /** Compact display string ("SN3[0,2,1,1]"). */
    std::string toString() const;

    bool operator==(const Subnet &) const = default;

  private:
    SubnetId _id = -1;
    std::vector<std::uint16_t> _choices;
};

} // namespace naspipe

#endif // NASPIPE_SUPERNET_SUBNET_H
