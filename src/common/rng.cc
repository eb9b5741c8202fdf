#include "common/rng.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/kernels/philox.h"

namespace naspipe {

namespace {

inline std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : _state)
        word = sm.next();
    // An all-zero state would be absorbing; SplitMix64 cannot produce
    // four consecutive zeros, but guard anyway for safety.
    if (_state[0] == 0 && _state[1] == 0 && _state[2] == 0 &&
        _state[3] == 0) {
        _state[0] = 0x9e3779b97f4a7c15ULL;
    }
}

std::uint64_t
Xoshiro256StarStar::next()
{
    const std::uint64_t result = rotl64(_state[1] * 5, 7) * 9;
    const std::uint64_t t = _state[1] << 17;

    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl64(_state[3], 45);

    return result;
}

std::uint64_t
Xoshiro256StarStar::nextBelow(std::uint64_t bound)
{
    NASPIPE_ASSERT(bound > 0, "nextBelow bound must be positive");
    // Lemire-style rejection: draw until the value falls inside the
    // largest multiple of bound, guaranteeing a uniform result.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Xoshiro256StarStar::nextInRange(std::int64_t lo, std::int64_t hi)
{
    NASPIPE_ASSERT(lo <= hi, "nextInRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Xoshiro256StarStar::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

float
Xoshiro256StarStar::nextFloat()
{
    return static_cast<float>(next() >> 40) * 0x1.0p-24f;
}

bool
Xoshiro256StarStar::nextBool(double p)
{
    return nextDouble() < p;
}

double
Xoshiro256StarStar::nextGaussian()
{
    if (_haveSpare) {
        _haveSpare = false;
        return _spare;
    }
    // Polar Box-Muller with a fixed draw order: u is always drawn
    // before v so the stream consumption is deterministic.
    for (;;) {
        double u = 2.0 * nextDouble() - 1.0;
        double v = 2.0 * nextDouble() - 1.0;
        double s = u * u + v * v;
        if (s > 0.0 && s < 1.0) {
            double scale = std::sqrt(-2.0 * std::log(s) / s);
            _spare = v * scale;
            _haveSpare = true;
            return u * scale;
        }
    }
}

void
Xoshiro256StarStar::jump()
{
    static const std::uint64_t kJump[] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL,
    };

    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t word : kJump) {
        for (int b = 0; b < 64; b++) {
            if (word & (1ULL << b)) {
                s0 ^= _state[0];
                s1 ^= _state[1];
                s2 ^= _state[2];
                s3 ^= _state[3];
            }
            next();
        }
    }
    _state = {s0, s1, s2, s3};
}

namespace {

inline void
philoxRound(std::array<std::uint32_t, 4> &ctr, std::uint32_t k0,
            std::uint32_t k1)
{
    std::uint64_t p0 =
        static_cast<std::uint64_t>(Philox4x32::kM0) * ctr[0];
    std::uint64_t p1 =
        static_cast<std::uint64_t>(Philox4x32::kM1) * ctr[2];
    std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
    std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
    std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
    std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
    ctr = {hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0};
}

/** 24 high bits of a Philox word as a float in [0,1). */
inline float
laneFloat(std::uint32_t word)
{
    return static_cast<float>(word >> 8) * 0x1.0p-24f;
}

} // namespace

Philox4x32::Block
Philox4x32::block(std::uint64_t counter) const
{
    Block ctr = {
        static_cast<std::uint32_t>(counter),
        static_cast<std::uint32_t>(counter >> 32),
        0u,
        0u,
    };
    std::uint32_t k0 = static_cast<std::uint32_t>(_key);
    std::uint32_t k1 = static_cast<std::uint32_t>(_key >> 32);
    for (int round = 0; round < 10; round++) {
        philoxRound(ctr, k0, k1);
        k0 += kW0;
        k1 += kW1;
    }
    return ctr;
}

std::uint32_t
Philox4x32::word(std::uint64_t counter) const
{
    return block(counter)[0];
}

float
Philox4x32::uniformFloat(std::uint64_t counter, unsigned lane) const
{
    NASPIPE_ASSERT(lane < 4, "Philox lane out of range");
    return laneFloat(block(counter)[lane]);
}

std::array<float, 4>
Philox4x32::uniformFloats(std::uint64_t counter) const
{
    Block words = block(counter);
    return {laneFloat(words[0]), laneFloat(words[1]), laneFloat(words[2]),
            laneFloat(words[3])};
}

void
Philox4x32::uniformFloats(std::uint64_t first, std::size_t n,
                          float *lane0, float *lane1) const
{
    kernels::philoxUniformFloats(_key, first, n, lane0, lane1);
}

std::uint64_t
deriveSeed(std::uint64_t parent, std::uint64_t tag)
{
    SplitMix64 sm(parent ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f491ULL));
    // Burn one draw so tag=0 does not collapse to the parent stream.
    sm.next();
    return sm.next();
}

std::uint64_t
deriveSeed(std::uint64_t parent, const char *tag)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char *p = tag; *p; ++p) {
        hash ^= static_cast<unsigned char>(*p);
        hash *= 0x100000001b3ULL;
    }
    return deriveSeed(parent, hash);
}

std::uint64_t
hashBytes(const void *data, std::size_t size, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; i++) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace naspipe
