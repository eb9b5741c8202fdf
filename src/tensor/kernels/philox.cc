#include "tensor/kernels/philox.h"

#include <array>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define NASPIPE_PHILOX_LANES 1
#endif

namespace naspipe {
namespace kernels {

namespace {

void
scalarUniformFloats(std::uint64_t key, std::uint64_t first,
                    std::size_t n, float *lane0, float *lane1)
{
    const Philox4x32 philox(key);
    for (std::size_t i = 0; i < n; i++) {
        std::array<float, 4> u = philox.uniformFloats(first + i);
        lane0[i] = u[0];
        if (lane1)
            lane1[i] = u[1];
    }
}

#ifdef NASPIPE_PHILOX_LANES

constexpr int kRounds = 10;

/** The per-round key halves: round r uses key + r * (W0, W1). */
struct RoundKeys {
    std::array<std::uint32_t, kRounds> k0;
    std::array<std::uint32_t, kRounds> k1;
};

RoundKeys
roundKeys(std::uint64_t key)
{
    RoundKeys keys;
    std::uint32_t k0 = static_cast<std::uint32_t>(key);
    std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
    for (int r = 0; r < kRounds; r++) {
        keys.k0[r] = k0;
        keys.k1[r] = k1;
        k0 += Philox4x32::kW0;
        k1 += Philox4x32::kW1;
    }
    return keys;
}

/**
 * Counters first … first+lanes-1 in one vector call: the lane floats
 * into lane0 and lane1, a full vector each.
 */
using BlockFn = void (*)(const RoundKeys &keys, std::uint64_t first,
                         float *lane0, float *lane1);

/**
 * One BlockFn call per @p lanes counters over [first, first + n). A
 * partial last vector, and lane 1 when @p lane1 is null, land in a
 * local buffer, so nothing is written past n.
 */
void
runBlocks(BlockFn fn, std::size_t lanes, std::uint64_t key,
          std::uint64_t first, std::size_t n, float *lane0, float *lane1)
{
    const RoundKeys keys = roundKeys(key);
    float tail0[8];
    float tail1[8];
    for (std::size_t i = 0; i < n; i += lanes) {
        const bool full = n - i >= lanes;
        fn(keys, first + i, full ? lane0 + i : tail0,
           full && lane1 ? lane1 + i : tail1);
        if (!full) {
            std::memcpy(lane0 + i, tail0, (n - i) * sizeof(float));
            if (lane1)
                std::memcpy(lane1 + i, tail1, (n - i) * sizeof(float));
        }
    }
}

// Both widths below are the scalar philoxRound of common/rng.cc, one
// counter per 32-bit lane. _mm*_mul_epu32 multiplies the even 32-bit
// lanes into full 64-bit products; the odd lanes are shifted down
// for a second multiply, and the high and low words are put back in
// lane order. The counter's low word carries into its high word
// where first + j wraps 2^32 (an unsigned compare: both sides offset
// by 2^31, then a signed compare). A word's top 24 bits convert to
// float exactly, and the 2^-24 scale is exact.

/** 32x32 -> 64-bit products of 4 lanes: high and low words. */
inline void
mulHiLo(__m128i a, __m128i m, __m128i &hi, __m128i &lo)
{
    const __m128i lowWords = _mm_set1_epi64x(0xffffffff);
    __m128i even = _mm_mul_epu32(a, m);
    __m128i odd = _mm_mul_epu32(_mm_srli_epi64(a, 32), m);
    hi = _mm_srli_epi64(even, 32) | _mm_andnot_si128(lowWords, odd);
    lo = (even & lowWords) | _mm_slli_epi64(odd, 32);
}

void
philoxBlock4(const RoundKeys &keys, std::uint64_t first, float *lane0,
             float *lane1)
{
    const __m128i sign = _mm_set1_epi32(INT32_MIN);
    const __m128i base = _mm_set1_epi32(static_cast<int>(first));
    __m128i c0 = _mm_add_epi32(base, _mm_setr_epi32(0, 1, 2, 3));
    __m128i carry = _mm_cmpgt_epi32(base ^ sign, c0 ^ sign);
    __m128i c1 = _mm_sub_epi32(
        _mm_set1_epi32(static_cast<int>(first >> 32)), carry);
    __m128i c2 = _mm_setzero_si128();
    __m128i c3 = _mm_setzero_si128();
    const __m128i m0 =
        _mm_set1_epi32(static_cast<int>(Philox4x32::kM0));
    const __m128i m1 =
        _mm_set1_epi32(static_cast<int>(Philox4x32::kM1));
    for (int r = 0; r < kRounds; r++) {
        __m128i hi0, lo0, hi1, lo1;
        mulHiLo(c0, m0, hi0, lo0);
        mulHiLo(c2, m1, hi1, lo1);
        c0 = hi1 ^ c1 ^ _mm_set1_epi32(static_cast<int>(keys.k0[r]));
        c1 = lo1;
        c2 = hi0 ^ c3 ^ _mm_set1_epi32(static_cast<int>(keys.k1[r]));
        c3 = lo0;
    }
    const __m128 scale = _mm_set1_ps(0x1.0p-24f);
    __m128 u0 = _mm_cvtepi32_ps(_mm_srli_epi32(c0, 8)) * scale;
    __m128 u1 = _mm_cvtepi32_ps(_mm_srli_epi32(c1, 8)) * scale;
    _mm_storeu_ps(lane0, u0);
    _mm_storeu_ps(lane1, u1);
}

[[gnu::target("avx2")]] inline void
mulHiLo(__m256i a, __m256i m, __m256i &hi, __m256i &lo)
{
    __m256i even = _mm256_mul_epu32(a, m);
    __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
    hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xaa);
    lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xaa);
}

[[gnu::target("avx2")]] void
philoxBlock8(const RoundKeys &keys, std::uint64_t first, float *lane0,
             float *lane1)
{
    const __m256i sign = _mm256_set1_epi32(INT32_MIN);
    const __m256i base = _mm256_set1_epi32(static_cast<int>(first));
    __m256i c0 = _mm256_add_epi32(
        base, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256i carry = _mm256_cmpgt_epi32(base ^ sign, c0 ^ sign);
    __m256i c1 = _mm256_sub_epi32(
        _mm256_set1_epi32(static_cast<int>(first >> 32)), carry);
    __m256i c2 = _mm256_setzero_si256();
    __m256i c3 = _mm256_setzero_si256();
    const __m256i m0 =
        _mm256_set1_epi32(static_cast<int>(Philox4x32::kM0));
    const __m256i m1 =
        _mm256_set1_epi32(static_cast<int>(Philox4x32::kM1));
    for (int r = 0; r < kRounds; r++) {
        __m256i hi0, lo0, hi1, lo1;
        mulHiLo(c0, m0, hi0, lo0);
        mulHiLo(c2, m1, hi1, lo1);
        c0 = hi1 ^ c1 ^
             _mm256_set1_epi32(static_cast<int>(keys.k0[r]));
        c1 = lo1;
        c2 = hi0 ^ c3 ^
             _mm256_set1_epi32(static_cast<int>(keys.k1[r]));
        c3 = lo0;
    }
    const __m256 scale = _mm256_set1_ps(0x1.0p-24f);
    __m256 u0 = _mm256_cvtepi32_ps(_mm256_srli_epi32(c0, 8)) * scale;
    __m256 u1 = _mm256_cvtepi32_ps(_mm256_srli_epi32(c1, 8)) * scale;
    _mm256_storeu_ps(lane0, u0);
    _mm256_storeu_ps(lane1, u1);
}

#endif // NASPIPE_PHILOX_LANES

} // namespace

void
philoxUniformFloats(std::uint64_t key, std::uint64_t first,
                    std::size_t n, float *lane0, float *lane1)
{
    philoxAtWidth(philoxLaneWidth(), key, first, n, lane0, lane1);
}

int
philoxLaneWidth()
{
    // The widest lane count this CPU runs, chosen on first use.
    static const int lanes = [] {
#ifdef NASPIPE_PHILOX_LANES
        return __builtin_cpu_supports("avx2") ? 8 : 4;
#else
        return 1;
#endif
    }();
    return lanes;
}

void
philoxAtWidth(int lanes, std::uint64_t key, std::uint64_t first,
              std::size_t n, float *lane0, float *lane1)
{
    NASPIPE_ASSERT(lanes == 1 || ((lanes == 4 || lanes == 8) &&
                                  lanes <= philoxLaneWidth()),
                   "philox: this host cannot run ", lanes, " lanes");
#ifdef NASPIPE_PHILOX_LANES
    if (lanes == 8) {
        runBlocks(&philoxBlock8, 8, key, first, n, lane0, lane1);
        return;
    }
    if (lanes == 4) {
        runBlocks(&philoxBlock4, 4, key, first, n, lane0, lane1);
        return;
    }
#endif
    scalarUniformFloats(key, first, n, lane0, lane1);
}

} // namespace kernels
} // namespace naspipe
