/**
 * @file
 * Batched Philox4x32-10 draws in vector lanes.
 *
 * The numeric plane draws one Philox block per element for its
 * digests, eval inputs, layer init and gradient noise, and uses lanes
 * 0 and 1 of each block as floats in [0,1). philoxUniformFloats runs
 * one counter per vector lane: 8 lanes in an AVX2 function when the
 * CPU has AVX2, 4 SSE2 lanes on any other x86-64, and the scalar
 * Philox4x32::block() elsewhere. Philox is 32-bit integer arithmetic
 * only (products, xors and key additions, all modulo 2^32), and the
 * float conversion takes 24 bits, which binary32 holds exactly, so
 * every width gives the scalar code's bits
 * (tests/common/test_rng.cc). The choice changes speed only.
 */

#ifndef NASPIPE_TENSOR_KERNELS_PHILOX_H
#define NASPIPE_TENSOR_KERNELS_PHILOX_H

#include <cstddef>
#include <cstdint>

namespace naspipe {
namespace kernels {

/**
 * For i < n: lane0[i] = Philox4x32(key).uniformFloat(first + i, 0)
 * and, when @p lane1 is not null, lane1[i] = the same for lane 1.
 * Counters wrap modulo 2^64. The outputs must not overlap.
 */
void philoxUniformFloats(std::uint64_t key, std::uint64_t first,
                         std::size_t n, float *lane0, float *lane1);

/** Lane width philoxUniformFloats runs at on this host: 8, 4 or 1. */
int philoxLaneWidth();

/**
 * philoxUniformFloats pinned to @p lanes: 1 (the scalar block()
 * loop), or 4 or 8 when they do not exceed philoxLaneWidth(), so
 * tests can check every width the host can run.
 */
void philoxAtWidth(int lanes, std::uint64_t key, std::uint64_t first,
                   std::size_t n, float *lane0, float *lane1);

} // namespace kernels
} // namespace naspipe

#endif // NASPIPE_TENSOR_KERNELS_PHILOX_H
