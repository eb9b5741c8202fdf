/**
 * @file
 * Deterministic pseudo-random number generators.
 *
 * NASPipe's reproducibility guarantee (paper Definition 1) requires a
 * fully deterministic random source that behaves identically across
 * platforms and standard-library implementations, so nothing here uses
 * std::mt19937 or std::uniform_int_distribution (whose outputs are not
 * pinned down by the standard for all uses). Three generators are
 * provided:
 *
 *  - SplitMix64: seed expander, used to derive independent streams.
 *  - Xoshiro256StarStar: fast general-purpose stream generator.
 *  - Philox4x32: counter-based generator; random access by (key,
 *    counter), mirroring the counter-based RNGs used by CUDA and
 *    deterministic ML frameworks.
 */

#ifndef NASPIPE_COMMON_RNG_H
#define NASPIPE_COMMON_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace naspipe {

/** SplitMix64 seed expander (Steele, Lea and Flood). */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : _state(seed) {}

    /** Produce the next 64-bit value. */
    std::uint64_t next();

  private:
    std::uint64_t _state;
};

/**
 * xoshiro256** by Blackman and Vigna: the workhorse stream generator.
 * All naspipe components derive their streams from a user seed plus a
 * component-specific tag so that adding a consumer never perturbs the
 * draws seen by existing consumers.
 */
class Xoshiro256StarStar
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Xoshiro256StarStar(std::uint64_t seed = 1);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) via unbiased rejection. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1) with 53 bits of entropy. */
    double nextDouble();

    /** Uniform float in [0, 1) with 24 bits of entropy. */
    float nextFloat();

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p = 0.5);

    /**
     * Standard-normal draw (deterministic polar Box-Muller with an
     * explicitly specified evaluation order).
     */
    double nextGaussian();

    /** Jump function: advance 2^128 steps to split parallel streams. */
    void jump();

    /** Expose state for checkpoint tests. */
    std::array<std::uint64_t, 4> state() const { return _state; }

  private:
    std::array<std::uint64_t, 4> _state;
    bool _haveSpare = false;
    double _spare = 0.0;
};

/**
 * Philox4x32-10 counter-based generator (Salmon et al., SC'11).
 *
 * Given the same key and counter the output block is identical on any
 * platform, which lets the numeric training engine draw "per (layer,
 * step)" randomness without threading generator state through the
 * scheduler — exactly the property deterministic GPU kernels rely on.
 */
class Philox4x32
{
  public:
    using Block = std::array<std::uint32_t, 4>;

    /** Round multipliers and Weyl key increments of Philox4x32. */
    static constexpr std::uint32_t kM0 = 0xD2511F53u;
    static constexpr std::uint32_t kM1 = 0xCD9E8D57u;
    static constexpr std::uint32_t kW0 = 0x9E3779B9u;
    static constexpr std::uint32_t kW1 = 0xBB67AE85u;

    /** Construct with a 64-bit key. */
    explicit Philox4x32(std::uint64_t key) : _key(key) {}

    /** Generate the 128-bit block for @p counter. */
    Block block(std::uint64_t counter) const;

    /** First 32-bit word of the block for @p counter. */
    std::uint32_t word(std::uint64_t counter) const;

    /** Uniform float in [0,1) derived from (counter, lane). */
    float uniformFloat(std::uint64_t counter, unsigned lane = 0) const;

    /**
     * All four lane floats of one block: element k equals
     * uniformFloat(counter, k), at the cost of a single block().
     */
    std::array<float, 4> uniformFloats(std::uint64_t counter) const;

    /**
     * Lanes 0 and 1 of the blocks for counters first … first+n-1:
     * lane0[i] = uniformFloat(first + i, 0) and, unless @p lane1 is
     * null, lane1[i] = uniformFloat(first + i, 1). Runs in vector
     * lanes (tensor/kernels/philox.h) with the same bits.
     */
    void uniformFloats(std::uint64_t first, std::size_t n, float *lane0,
                       float *lane1) const;

  private:
    std::uint64_t _key;
};

/**
 * Derive a child seed from a parent seed and a stream tag. Used to
 * give every component (sampler, data loader, init, jitter model) an
 * independent deterministic stream, mirroring how NASPipe fixes the
 * seeds of PyTorch, Python, and the DataLoader separately (§4.1).
 */
std::uint64_t deriveSeed(std::uint64_t parent, std::uint64_t tag);

/** Derive a seed from a string tag (FNV-1a hash of the tag). */
std::uint64_t deriveSeed(std::uint64_t parent, const char *tag);

/**
 * FNV-1a hash of an arbitrary byte range. Used as the payload
 * checksum in checkpoint file formats: cheap, dependency-free, and
 * identical on every platform (detection of corruption, not a MAC).
 */
std::uint64_t hashBytes(const void *data, std::size_t size,
                        std::uint64_t seed = 0xcbf29ce484222325ULL);

} // namespace naspipe

#endif // NASPIPE_COMMON_RNG_H
