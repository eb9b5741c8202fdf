/**
 * @file
 * The tanh kernel (tensor/kernels/tanh.h) against its scalar fdlibm
 * reference and the platform's std::tanh, bit for bit, at every lane
 * width the host runs: on a strided sweep of all 2^32 bit patterns,
 * a dense sweep of |z| < 22, and around every branch edge of
 * s_tanhf.c / s_expm1f.c; with lengths that are not a multiple of
 * the width, unaligned pointers and in-place calls.
 *
 * The full 2^32 sweep is opt-in (about 40 s on 4 threads):
 *
 *     test_tanh_kernel --gtest_also_run_disabled_tests \
 *         --gtest_filter='*Exhaustive*'
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "tensor/kernels/tanh.h"

namespace naspipe {
namespace {

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

float
floatOf(std::uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof f);
    return f;
}

std::string
hex(std::uint32_t u)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", u);
    return buf;
}

/**
 * Mismatches of the kernel at @p lanes over @p xs against the scalar
 * reference and std::tanh. Reports the first few by bit pattern.
 */
std::size_t
mismatches(int lanes, const std::vector<float> &xs)
{
    std::vector<float> out(xs.size());
    kernels::tanhAtWidth(lanes, xs.data(), out.data(), xs.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < xs.size(); i++) {
        std::uint32_t ref = bitsOf(kernels::tanhReference(xs[i]));
        std::uint32_t lib = bitsOf(std::tanh(xs[i]));
        std::uint32_t got = bitsOf(out[i]);
        if (got == ref && ref == lib)
            continue;
        if (++bad <= 5) {
            ADD_FAILURE() << lanes << " lanes, x=" << hex(bitsOf(xs[i]))
                          << ": kernel " << hex(got) << " reference "
                          << hex(ref) << " std::tanh " << hex(lib);
        }
    }
    return bad;
}

/** Both signs of every pattern within @p radius ulps of |v|. */
void
addNeighbourhood(std::vector<float> &xs, float v, int radius)
{
    std::int64_t mid = bitsOf(std::fabs(v));
    for (std::int64_t u = mid - radius; u <= mid + radius; u++) {
        if (u < 0 || u > 0x7fffffff)
            continue;
        xs.push_back(floatOf(static_cast<std::uint32_t>(u)));
        xs.push_back(-floatOf(static_cast<std::uint32_t>(u)));
    }
}

class TanhKernelWidth : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override
    {
        if (GetParam() > kernels::tanhLaneWidth())
            GTEST_SKIP() << "host has no AVX2: 8 lanes not runnable";
    }
};

TEST_P(TanhKernelWidth, StridedSweepOfAllBitPatterns)
{
    // A prime stride visits every exponent and both signs.
    std::vector<float> xs;
    for (std::uint64_t u = 0; u < (1ULL << 32); u += 1021)
        xs.push_back(floatOf(static_cast<std::uint32_t>(u)));
    EXPECT_EQ(mismatches(GetParam(), xs), 0u);
}

TEST_P(TanhKernelWidth, DenseSweepBelowTwentyTwo)
{
    // 2^20 evenly spaced arguments over (-22, 22): every reduction
    // k from -3 to 63 and both tanh formulas, many times each.
    constexpr int kPoints = 1 << 20;
    std::vector<float> xs;
    xs.reserve(kPoints);
    for (int i = 0; i < kPoints; i++) {
        xs.push_back(-22.0f +
                     44.0f * static_cast<float>(i) / kPoints);
    }
    EXPECT_EQ(mismatches(GetParam(), xs), 0u);
}

TEST_P(TanhKernelWidth, BranchEdges)
{
    const float ln2 = 0.6931471805599453f;
    std::vector<float> xs;
    // tanh: ±0 and the subnormals at both ends, the 2^-55 and 1
    // thresholds, 22.
    addNeighbourhood(xs, 0.0f, 64);
    addNeighbourhood(xs, std::numeric_limits<float>::min(), 64);
    addNeighbourhood(xs, 0x1.0p-55f, 64);
    addNeighbourhood(xs, 1.0f, 64);
    addNeighbourhood(xs, 22.0f, 64);
    // expm1's thresholds on its argument a = ±2|x|: 2^-25, 0.5 ln2,
    // 1.5 ln2, and the k = 23 and k = 57 arm switches.
    for (float a : {0x1.0p-25f, 0.5f * ln2, 1.5f * ln2, 22.5f * ln2,
                    56.5f * ln2})
        addNeighbourhood(xs, 0.5f * a, 64);
    // Non-finite inputs: ±inf and NaNs with payloads, quiet and
    // signalling, both signs.
    for (std::uint32_t u : {0x7f800000u, 0x7f800001u, 0x7fa00000u,
                            0x7fc00000u, 0x7fc12345u, 0x7fffffffu}) {
        xs.push_back(floatOf(u));
        xs.push_back(floatOf(u | 0x80000000u));
    }
    EXPECT_EQ(mismatches(GetParam(), xs), 0u);
}

TEST_P(TanhKernelWidth, TailsUnalignedPointersAndInPlace)
{
    // Every length 0..19 from every offset 0..3 into a buffer:
    // partial trailing blocks and pointers off any vector alignment.
    std::vector<float> src(32);
    for (std::size_t i = 0; i < src.size(); i++)
        src[i] = -3.0f + 0.37f * static_cast<float>(i);
    for (std::size_t offset = 0; offset < 4; offset++) {
        for (std::size_t n = 0; n < 20; n++) {
            std::vector<float> out(32, 7.0f);
            kernels::tanhAtWidth(GetParam(), src.data() + offset,
                                 out.data() + offset, n);
            std::vector<float> inPlace = src;
            kernels::tanhAtWidth(GetParam(), inPlace.data() + offset,
                                 inPlace.data() + offset, n);
            for (std::size_t i = 0; i < 32; i++) {
                bool inside = i >= offset && i < offset + n;
                float want = inside ? kernels::tanhReference(src[i])
                                    : 7.0f;
                EXPECT_EQ(bitsOf(out[i]), bitsOf(want))
                    << "offset " << offset << " n " << n << " i " << i;
                EXPECT_EQ(bitsOf(inPlace[i]),
                          bitsOf(inside ? want : src[i]))
                    << "in place, offset " << offset << " n " << n;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Lanes, TanhKernelWidth,
                         ::testing::Values(4, 8),
                         [](const auto &info) {
                             return std::to_string(info.param);
                         });

TEST(TanhKernel, DispatchRunsTheWidestWidth)
{
    std::vector<float> xs;
    for (int i = 0; i < 100; i++)
        xs.push_back(-5.0f + 0.1f * static_cast<float>(i));
    std::vector<float> a(xs.size()), b(xs.size());
    kernels::tanh(xs.data(), a.data(), xs.size());
    kernels::tanhAtWidth(kernels::tanhLaneWidth(), xs.data(), b.data(),
                         xs.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
              0);
    EXPECT_TRUE(kernels::tanhLaneWidth() == 4 ||
                kernels::tanhLaneWidth() == 8);
    EXPECT_THROW(kernels::tanhAtWidth(16, xs.data(), a.data(), 1),
                 std::logic_error);
}

/**
 * Every float bit pattern, at every width the host runs, against the
 * reference and std::tanh. Opt-in (see the file comment).
 */
TEST(TanhKernel, DISABLED_ExhaustiveAllBitPatterns)
{
    constexpr int kThreads = 4;
    constexpr std::uint64_t kChunk = 1 << 16;
    std::vector<int> widths = {4};
    if (kernels::tanhLaneWidth() == 8)
        widths.push_back(8);
    std::vector<std::uint64_t> bad(kThreads * widths.size(), 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            std::vector<float> in(kChunk), out(kChunk);
            for (std::uint64_t base = t * kChunk; base < (1ULL << 32);
                 base += kThreads * kChunk) {
                for (std::uint64_t i = 0; i < kChunk; i++)
                    in[i] = floatOf(static_cast<std::uint32_t>(base + i));
                for (std::size_t w = 0; w < widths.size(); w++) {
                    kernels::tanhAtWidth(widths[w], in.data(),
                                         out.data(), kChunk);
                    for (std::uint64_t i = 0; i < kChunk; i++) {
                        std::uint32_t lib = bitsOf(std::tanh(in[i]));
                        if (bitsOf(out[i]) != lib ||
                            bitsOf(kernels::tanhReference(in[i])) != lib)
                            bad[t * widths.size() + w]++;
                    }
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (std::size_t w = 0; w < widths.size(); w++) {
        std::uint64_t total = 0;
        for (int t = 0; t < kThreads; t++)
            total += bad[t * widths.size() + w];
        EXPECT_EQ(total, 0u) << widths[w] << " lanes";
        std::printf("%d lanes: %llu mismatches over 2^32 inputs\n",
                    widths[w], static_cast<unsigned long long>(total));
    }
}

} // namespace
} // namespace naspipe
