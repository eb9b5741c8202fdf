/**
 * @file
 * Subnet stage partitioning.
 *
 * NASPipe splits each subnet's sequential layer list into D
 * contiguous partitions "with each partition having roughly the same
 * execution time, according to pre-profiled statistics of each layer"
 * (§3.2). This module computes that balanced min-max partition with
 * dynamic programming and also provides the *static even* partition
 * baseline systems use (operators fixed to stages regardless of which
 * subnet runs), whose imbalance is a key source of their slowdown
 * (§5.1, Exec. column of Table 2).
 */

#ifndef NASPIPE_PARTITION_PARTITIONER_H
#define NASPIPE_PARTITION_PARTITIONER_H

#include <span>
#include <vector>

#include "supernet/search_space.h"
#include "supernet/subnet.h"

namespace naspipe {

/**
 * A D-partition of a subnet's m blocks into contiguous stage ranges.
 */
class SubnetPartition
{
  public:
    SubnetPartition() = default;

    /**
     * @param firstBlock for each stage, the first block it owns;
     *        stage s owns [firstBlock[s], firstBlock[s+1]) and the
     *        last stage owns through @p numBlocks - 1.
     * @param numBlocks total number of blocks (m)
     */
    SubnetPartition(std::vector<int> firstBlock, int numBlocks);

    /** Number of stages (D). */
    int numStages() const
    {
        return static_cast<int>(_firstBlock.size());
    }

    int numBlocks() const { return _numBlocks; }

    /** First block owned by @p stage. */
    int firstBlock(int stage) const;

    /** Last block owned by @p stage (inclusive). */
    int lastBlock(int stage) const;

    /** Number of blocks owned by @p stage (may be zero). */
    int blockCount(int stage) const;

    /** Stage that owns @p block. */
    int stageOf(int block) const;

    /** Whether @p stage owns at least one block. */
    bool stageNonEmpty(int stage) const { return blockCount(stage) > 0; }

    bool operator==(const SubnetPartition &) const = default;

  private:
    std::vector<int> _firstBlock;
    int _numBlocks = 0;
};

/** Per-stage cost report of a partition. */
struct PartitionCost {
    std::vector<double> stageMs;  ///< fwd+bwd ms per stage
    double maxMs = 0.0;           ///< bottleneck stage cost
    double totalMs = 0.0;         ///< sum over stages
    /** Imbalance: maxMs / (totalMs / D); 1.0 means perfectly even. */
    double imbalance() const;
};

/**
 * Computes partitions and their costs for subnets of one space.
 */
class Partitioner
{
  public:
    /**
     * @param space the search space supplying layer profiles
     * @param batch batch size the costs are evaluated at
     */
    Partitioner(const SearchSpace &space, int batch);

    /** Per-block fwd+bwd cost of @p subnet at this batch size. */
    std::vector<double> blockCosts(const Subnet &subnet) const;

    /**
     * Balanced min-max contiguous D-partition of @p subnet (the
     * per-subnet partition NASPipe executes under).
     */
    SubnetPartition balanced(const Subnet &subnet, int numStages) const;

    /**
     * The contiguous D-partition of blocks with these non-negative
     * @p costs whose most expensive stage is cheapest; among equal
     * bottlenecks each stage starts at the earliest block that
     * reaches it. O(D * m * log m) at worst: for a fixed end block
     * the bottleneck is the max of a non-decreasing and a
     * non-increasing function of the cut, so its minimum sits where
     * the two cross; one sweep per stage finds every crossing and a
     * bisection finds the earliest cut under ties.
     */
    static SubnetPartition minMaxPartition(std::span<const double> costs,
                                           int numStages);

    /**
     * Static even partition: blocks split into D equal-count ranges
     * independent of the subnet (what static-placement baselines use).
     */
    static SubnetPartition even(int numBlocks, int numStages);

    /** Evaluate @p partition for @p subnet. */
    PartitionCost cost(const Subnet &subnet,
                       const SubnetPartition &partition) const;

    int batch() const { return _batch; }

  private:
    const SearchSpace &_space;
    int _batch;
};

} // namespace naspipe

#endif // NASPIPE_PARTITION_PARTITIONER_H
