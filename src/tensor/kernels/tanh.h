/**
 * @file
 * Bit-exact vector tanh: the numeric plane's only transcendental.
 *
 * kernels::tanh is glibc's fdlibm float tanh (s_tanhf.c over
 * s_expm1f.c) evaluated in GCC vector lanes. Every branch of the
 * scalar code becomes a lane select, so each lane runs exactly the
 * scalar operation sequence and rounds exactly as it does: the
 * result is bitwise equal to tanhReference() — and to that libm's
 * tanhf — for every one of the 2^32 float inputs, at every lane
 * width (tests/tensor/test_tanh_kernel.cc; the full sweep is its
 * opt-in DISABLED_ExhaustiveAllBitPatterns). Trained weights
 * therefore depend on this file, not on the host's math library.
 *
 * Bit-exactness holds only without floating-point contraction: a
 * fused a*b+c rounds once where the transcription rounds twice. The
 * library is compiled with -ffp-contract=off (src/CMakeLists.txt).
 *
 * The lane width is picked once per process: 8 lanes in an AVX2
 * function when the CPU has AVX2, 4 lanes at the baseline ISA
 * otherwise. The choice changes speed only, never a bit.
 */

#ifndef NASPIPE_TENSOR_KERNELS_TANH_H
#define NASPIPE_TENSOR_KERNELS_TANH_H

#include <cstddef>

namespace naspipe {
namespace kernels {

/** Scalar reference: the fdlibm tanhf transcription, one element. */
float tanhReference(float x);

/**
 * out[i] = tanh(in[i]) for i < n, bitwise equal to tanhReference.
 * @p out may be @p in (in place) but must not otherwise overlap it;
 * neither pointer needs any alignment and n need not be a multiple
 * of the lane width.
 */
void tanh(const float *in, float *out, std::size_t n);

/** Lane width kernels::tanh runs at on this host: 8 or 4. */
int tanhLaneWidth();

/**
 * kernels::tanh pinned to @p lanes (4, or 8 when tanhLaneWidth() is
 * 8), so tests can check every width the host can run.
 */
void tanhAtWidth(int lanes, const float *in, float *out,
                 std::size_t n);

} // namespace kernels
} // namespace naspipe

#endif // NASPIPE_TENSOR_KERNELS_TANH_H
