#include "tensor/kernels/tanh.h"

#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace naspipe {
namespace kernels {

namespace {

// s_expm1f.c's constants.
constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

// Bit-pattern thresholds on |x| (sign bit cleared).
constexpr std::int32_t kHalfLn2 = 0x3eb17218;    // expm1: 0.5 ln2
constexpr std::int32_t kThreeHalfLn2 = 0x3f851592;  // expm1: 1.5 ln2
constexpr std::int32_t kExpm1Tiny = 0x33000000;  // expm1: 2^-25
constexpr std::int32_t kTanhTiny = 0x24000000;   // tanh: 2^-55
constexpr std::int32_t kOne = 0x3f800000;        // tanh: 1
constexpr std::int32_t kTwentyTwo = 0x41b00000;  // tanh: 22
constexpr std::int32_t kInf = 0x7f800000;

std::int32_t
bitsOf(float f)
{
    std::int32_t i;
    std::memcpy(&i, &f, sizeof i);
    return i;
}

float
floatOf(std::int32_t i)
{
    float f;
    std::memcpy(&f, &i, sizeof f);
    return f;
}

/**
 * s_expm1f.c for the arguments tanhf passes it: 2|x| in [2, 44) or
 * -2|x| in (-2, -2^-54]. That range never reaches the k = 1
 * reduction or the overflow, NaN and "return -1" branches, so they
 * are left out; every other line is the fdlibm code.
 */
float
expm1Reference(float x)
{
    std::int32_t hx = bitsOf(x) & 0x7fffffff;
    bool negative = bitsOf(x) < 0;
    float c = 0.0f;
    int k = 0;
    if (hx > kHalfLn2) {
        float hi, lo;
        if (hx < kThreeHalfLn2) {
            hi = x + kLn2Hi;
            lo = -kLn2Lo;
            k = -1;
        } else {
            k = static_cast<int>(kInvLn2 * x +
                                 (negative ? -0.5f : 0.5f));
            float t = static_cast<float>(k);
            hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
            lo = t * kLn2Lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < kExpm1Tiny) {
        return x;
    }

    float hfx = 0.5f * x;
    float hxs = x * hfx;
    float r1 =
        1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 +
                                                          hxs * kQ5))));
    float t = 3.0f - r1 * hfx;
    float e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0)
        return x - (x * e - hxs);
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    float y;
    if (k <= -2 || k > 56) {
        y = 1.0f - (e - x);
        return floatOf(bitsOf(y) + (k << 23)) - 1.0f;
    }
    if (k < 23) {
        t = floatOf(0x3f800000 - (0x1000000 >> k));  // 1 - 2^-k
        y = t - (e - x);
    } else {
        t = floatOf((0x7f - k) << 23);  // 2^-k
        y = x - (e + t);
        y += 1.0f;
    }
    return floatOf(bitsOf(y) + (k << 23));  // y * 2^k
}

// GCC vector extensions: (I)v and (F)v reinterpret the bits,
// c ? a : b selects per lane, a scalar operand is broadcast.
typedef float F4 __attribute__((vector_size(16)));
typedef std::int32_t I4 __attribute__((vector_size(16)));
typedef float F8 __attribute__((vector_size(32)));
typedef std::int32_t I8 __attribute__((vector_size(32)));

/**
 * s_tanhf.c over one vector F of float lanes (I: its int32 twin).
 * Lane for lane it performs the scalar reference's operations in
 * the same order; where the scalar code branches, every arm is
 * computed and a select keeps one.
 * Three rewrites keep the lanes uniform without moving a bit:
 *
 *  - the k = 0 and k = -1 reductions are the general one,
 *    hi = x - k*ln2_hi, lo = k*ln2_lo, since k*ln2 is exact;
 *  - k = 0 then takes the k < 23 arm, as (1 - 2^-0) - (e - x) is
 *    0 - (e - x), which rounds to the bits of x - e;
 *  - 0x3f800000 - (0x1000000 >> k) is computed as 1 - 2^-k, with
 *    2^-k built from the exponent field, so no lane needs a
 *    variable shift.
 *
 * Lanes outside |x| < 22 (and NaN, inf) run the arithmetic on 0 so
 * the float-to-int conversion never sees an out-of-range value; the
 * final select gives them ±1, or x + x, which is the quieted NaN
 * that 1/x ± 1 returns.
 *
 * Inlined into each width's entry point, so the 32-byte vectors of
 * the AVX2 build never cross a baseline-ABI call.
 */
template <typename F, typename I>
[[gnu::always_inline]] inline void
tanhBlock(const float *in, float *out)
{
    const F zero = {};
    const F one = zero + 1.0f;
    const F two = zero + 2.0f;
    const I intZero = {};

    F x;
    std::memcpy(&x, in, sizeof x);
    I jx = (I)x;
    I ix = jx & 0x7fffffff;
    I mid = ix < kTwentyTwo;
    I big = ix >= kOne;
    F ax = mid ? (F)ix : zero;

    // expm1f(a) with a = 2|x| for |x| >= 1, else a = -2|x|.
    F a = big ? 2.0f * ax : -2.0f * ax;
    I ha = (I)a & 0x7fffffff;
    F half = (I)a < 0 ? zero - 0.5f : zero + 0.5f;
    I kGeneral = __builtin_convertvector(kInvLn2 * a + half, I);
    // Only a < 0 reaches (0.5 ln2, 1.5 ln2): positive a is >= 2.
    I k = ha < kThreeHalfLn2 ? intZero - 1 : kGeneral;
    k = ha > kHalfLn2 ? k : intZero;
    F tk = __builtin_convertvector(k, F);
    F hi = a - tk * kLn2Hi;
    F lo = tk * kLn2Lo;
    F r = hi - lo;
    F c = (hi - r) - lo;

    F hfx = 0.5f * r;
    F hxs = r * hfx;
    F r1 = one + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 +
                                                             hxs * kQ5))));
    F t = 3.0f - r1 * hfx;
    F e = hxs * ((r1 - t) / (6.0f - r * t));
    e = (r * (e - c) - c);
    e -= hxs;

    I wrap = (k <= -2) | (k > 56);
    F pow2NegK = (F)((0x7f - k) << 23);
    F y = k < 23 ? (one - pow2NegK) - (e - r)       // k in [0, 23)
                 : (r - (e + pow2NegK)) + 1.0f;     // k in [23, 56]
    y = wrap ? one - (e - r) : y;
    y = (F)((I)y + (k << 23));                      // y * 2^k
    y = wrap ? y - 1.0f : y;
    y = k == -1 ? 0.5f * (r - e) - 0.5f : y;
    F em1 = ha < kExpm1Tiny ? a : y;

    // tanhf: one - two/(t+two) for |x| >= 1, else -t/(t+two).
    F q = (big ? two : -em1) / (em1 + 2.0f);
    F z = big ? one - q : q;
    z = jx < 0 ? -z : z;
    z = ix < kTanhTiny ? x * (one + x) : z;
    F outside = jx < 0 ? -one : one;
    outside = ix > kInf ? x + x : outside;
    z = mid ? z : outside;
    std::memcpy(out, &z, sizeof z);
}

/** tanhBlock over [0, n), the tail padded to a whole block. */
template <typename F, typename I>
[[gnu::always_inline]] inline void
tanhLoop(const float *in, float *out, std::size_t n)
{
    constexpr std::size_t kLanes = sizeof(F) / sizeof(float);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        tanhBlock<F, I>(in + i, out + i);
    if (i < n) {
        float tail[kLanes] = {};
        std::memcpy(tail, in + i, (n - i) * sizeof(float));
        tanhBlock<F, I>(tail, tail);
        std::memcpy(out + i, tail, (n - i) * sizeof(float));
    }
}

void
tanhLanes4(const float *in, float *out, std::size_t n)
{
    tanhLoop<F4, I4>(in, out, n);
}

#if defined(__x86_64__) || defined(__i386__)
#define NASPIPE_TANH_AVX2 1

[[gnu::target("avx2")]] void
tanhLanes8(const float *in, float *out, std::size_t n)
{
    tanhLoop<F8, I8>(in, out, n);
}
#endif

using TanhFn = void (*)(const float *, float *, std::size_t);

/** The widest entry point this CPU runs, chosen on first use. */
TanhFn
widestTanh()
{
    static const TanhFn fn = [] {
#ifdef NASPIPE_TANH_AVX2
        if (__builtin_cpu_supports("avx2"))
            return &tanhLanes8;
#endif
        return &tanhLanes4;
    }();
    return fn;
}

} // namespace

float
tanhReference(float x)
{
    std::int32_t jx = bitsOf(x);
    std::int32_t ix = jx & 0x7fffffff;
    if (ix >= kInf)
        return jx >= 0 ? 1.0f / x + 1.0f : 1.0f / x - 1.0f;
    float z;
    if (ix < kTwentyTwo) {
        if (ix == 0)
            return x;
        if (ix < kTanhTiny)
            return x * (1.0f + x);
        float ax = floatOf(ix);
        if (ix >= kOne) {
            float t = expm1Reference(2.0f * ax);
            z = 1.0f - 2.0f / (t + 2.0f);
        } else {
            float t = expm1Reference(-2.0f * ax);
            z = -t / (t + 2.0f);
        }
    } else {
        z = 1.0f - 1.0e-30f;  // rounds to 1
    }
    return jx >= 0 ? z : -z;
}

void
tanh(const float *in, float *out, std::size_t n)
{
    widestTanh()(in, out, n);
}

int
tanhLaneWidth()
{
    return widestTanh() == &tanhLanes4 ? 4 : 8;
}

void
tanhAtWidth(int lanes, const float *in, float *out, std::size_t n)
{
    NASPIPE_ASSERT(lanes == 4 || lanes == tanhLaneWidth(),
                   "tanh: this host cannot run ", lanes, " lanes");
    if (lanes == 4)
        tanhLanes4(in, out, n);
    else
        widestTanh()(in, out, n);
}

} // namespace kernels
} // namespace naspipe
