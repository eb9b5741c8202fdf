/**
 * @file
 * Unit tests of the naspipe_lint engine (tools/lint_rules.h): each
 * rule fires on its minimal hazard, stays quiet on the clean variant
 * and on comment/string occurrences, respects reasoned allow()
 * suppressions, and the baseline keys are line-number-independent.
 *
 * Every hazard snippet lives in a string literal, which the scanner's
 * code view blanks — so the lint run over tests/ never flags this
 * file's own test data.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint_rules.h"

using namespace naspipe::lint;
namespace analysis = naspipe::analysis;

namespace {

std::vector<std::string>
rulesOf(const std::vector<Finding> &findings)
{
    std::vector<std::string> rules;
    for (const Finding &f : findings)
        rules.push_back(f.rule);
    return rules;
}

} // namespace

TEST(LintRules, TableListsEveryRule)
{
    std::vector<std::string> names;
    for (const RuleInfo &rule : ruleTable())
        names.push_back(rule.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "unordered-iteration", "raw-random",
                  "pointer-key-container", "det-suppression",
                  "wall-clock", "float-reduce-outside-kernels",
                  "libm-transcendental-outside-kernels",
                  "simd-intrinsics-outside-kernels",
                  "relaxed-memory-order", "raw-mutex",
                  "lock-rank-order", "lock-cycle",
                  "blocking-under-lock", "unknown-lock-rank",
                  "ambiguous-lock-name"}));
}

TEST(LintRules, WallClockFiresOutsideObs)
{
    std::string src =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(rulesOf(scanSource("src/exec/worker.cc", src)),
              std::vector<std::string>{"wall-clock"});
    EXPECT_EQ(rulesOf(scanSource(
                  "tools/some_tool.cc",
                  "std::chrono::system_clock::now();\n")),
              std::vector<std::string>{"wall-clock"});
    EXPECT_EQ(rulesOf(scanSource(
                  "tests/t.cc",
                  "using C = std::chrono::high_resolution_clock;\n")),
              std::vector<std::string>{"wall-clock"});
}

TEST(LintRules, WallClockSkipsObsAndBench)
{
    std::string src =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(scanSource("src/obs/wall_clock.cc", src).empty());
    EXPECT_TRUE(scanSource("bench/micro_numeric.cc", src).empty());
    // Mentions in comments or strings never fire.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "// steady_clock is banned here\n"
                           "const char *s = \"steady_clock\";\n")
                    .empty());
    // Durations without a clock are fine.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "std::chrono::duration<double> d{};\n")
                    .empty());
}

TEST(LintRules, UnorderedIterationFires)
{
    std::string src = "#include <unordered_map>\n"
                      "void f() {\n"
                      "    std::unordered_map<int, int> sched;\n"
                      "    for (auto &kv : sched) { (void)kv; }\n"
                      "}\n";
    std::vector<Finding> findings = scanSource("src/a.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered-iteration");
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_EQ(findings[0].excerpt,
              "for (auto &kv : sched) { (void)kv; }");
}

TEST(LintRules, UnorderedLookupIsClean)
{
    // Point lookups are order-independent; only iteration is a hazard.
    std::string src = "std::unordered_map<int, int> sched;\n"
                      "int g(int k) { return sched.at(k); }\n";
    EXPECT_TRUE(scanSource("src/a.cc", src).empty());
}

TEST(LintRules, OrderedIterationIsClean)
{
    std::string src = "std::map<int, int> sched;\n"
                      "void f() { for (auto &kv : sched) (void)kv; }\n";
    EXPECT_TRUE(scanSource("src/a.cc", src).empty());
}

TEST(LintRules, RawRandomFires)
{
    EXPECT_EQ(rulesOf(scanSource("src/a.cc", "int x = rand();\n")),
              std::vector<std::string>{"raw-random"});
    EXPECT_EQ(rulesOf(scanSource("src/a.cc", "srand(42);\n")),
              std::vector<std::string>{"raw-random"});
    EXPECT_EQ(rulesOf(scanSource("src/a.cc",
                                 "std::random_device rd;\n")),
              std::vector<std::string>{"raw-random"});
    EXPECT_EQ(rulesOf(scanSource("src/a.cc",
                                 "long t = time(nullptr);\n")),
              std::vector<std::string>{"raw-random"});
}

TEST(LintRules, RawRandomSkipsMembersAndRngHome)
{
    // Member functions named time() are not the C library clock.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "double t = sim.time();\n")
                    .empty());
    EXPECT_TRUE(scanSource("src/a.cc",
                           "double t = clock->time();\n")
                    .empty());
    // Identifiers merely containing the substrings are clean.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "int wallTime(int operand);\n")
                    .empty());
    // The seeded RNG implementation is the one sanctioned home.
    EXPECT_TRUE(scanSource("src/common/rng.cc",
                           "std::random_device entropy;\n")
                    .empty());
}

TEST(LintRules, PointerKeyContainerFires)
{
    std::string src = "std::map<void *, int> byAddr;\n";
    std::vector<Finding> findings = scanSource("src/a.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "pointer-key-container");
    EXPECT_EQ(rulesOf(scanSource(
                  "src/b.cc", "std::set<Layer *> live;\n")),
              std::vector<std::string>{"pointer-key-container"});
    // Value-typed maps and pointer *values* are fine.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "std::map<int, Layer *> byId;\n")
                    .empty());
}

TEST(LintRules, FloatReduceFiresOnAccumulatorLoops)
{
    std::string src = "float total = 0.0f;\n"
                      "void f(const float *a, int n) {\n"
                      "    for (int i = 0; i < n; i++)\n"
                      "        total += a[i];\n"
                      "}\n";
    std::vector<Finding> findings = scanSource("src/a.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "float-reduce-outside-kernels");
    EXPECT_EQ(findings[0].line, 4);

    // All three zero-initializer spellings seed an accumulator.
    EXPECT_EQ(rulesOf(scanSource("src/b.cc",
                                 "float s = 0;\ns += x;\n")),
              std::vector<std::string>{
                  "float-reduce-outside-kernels"});
    EXPECT_EQ(rulesOf(scanSource("src/b.cc",
                                 "float s = 0.f;\ns += x;\n")),
              std::vector<std::string>{
                  "float-reduce-outside-kernels"});
}

TEST(LintRules, FloatReduceFiresOnStdAccumulate)
{
    EXPECT_EQ(rulesOf(scanSource(
                  "src/a.cc",
                  "float s = std::accumulate(v.begin(), v.end(), "
                  "1.0f);\n")),
              std::vector<std::string>{
                  "float-reduce-outside-kernels"});
}

TEST(LintRules, LibmTranscendentalFiresInSrcOutsideKernels)
{
    const std::vector<std::string> rule = {
        "libm-transcendental-outside-kernels"};
    EXPECT_EQ(rulesOf(scanSource("src/tensor/layer_math.cc",
                                 "float t = std::tanh(z);\n")),
              rule);
    EXPECT_EQ(rulesOf(scanSource("src/train/x.cc",
                                 "out[i] = tanhf(a * x + b);\n")),
              rule);
    EXPECT_EQ(rulesOf(scanSource("src/a.cc",
                                 "double g = std :: exp(-x);\n")),
              rule);
    EXPECT_EQ(rulesOf(scanSource("src/a.cc", "float e = expf(x);\n")),
              rule);
}

TEST(LintRules, LibmTranscendentalSkipsKernelsAndOtherTrees)
{
    std::string src = "float t = std::tanh(z);\n";
    // The kernel layer owns the transcendentals; tests compare
    // against libm on purpose; tools are outside the numeric plane.
    EXPECT_TRUE(scanSource("src/tensor/kernels/tanh.cc", src).empty());
    EXPECT_TRUE(
        scanSource("tests/tensor/test_tanh_kernel.cc", src).empty());
    EXPECT_TRUE(scanSource("tools/some_tool.cc", src).empty());
    // Comments, strings, kernels::tanh and longer names never fire.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "// std::tanh is banned here\n"
                           "const char *s = \"expf\";\n"
                           "kernels::tanh(z, z, n);\n"
                           "std::exponential_distribution<> d;\n"
                           "double e = std::expm1(x);\n")
                    .empty());
}

TEST(LintRules, SimdIntrinsicsFireInSrcOutsideKernels)
{
    const std::vector<std::string> rule = {
        "simd-intrinsics-outside-kernels"};
    EXPECT_EQ(rulesOf(scanSource("src/common/rng.cc",
                                 "#include <immintrin.h>\n")),
              rule);
    EXPECT_EQ(rulesOf(scanSource("src/train/x.cc",
                                 "# include <emmintrin.h>\n")),
              rule);
    EXPECT_EQ(rulesOf(scanSource(
                  "src/train/x.cc",
                  "__m256i p = _mm256_mul_epu32(a, b);\n")),
              rule);
    EXPECT_EQ(rulesOf(scanSource("src/a.cc",
                                 "auto s = _mm_add_epi32 (a, b);\n")),
              rule);
}

TEST(LintRules, SimdIntrinsicsSkipKernelsAndOtherTrees)
{
    std::string src = "#include <immintrin.h>\n"
                      "__m128i p = _mm_mul_epu32(a, b);\n";
    // The kernel layer owns the vector code; tests and tools are
    // outside the numeric plane.
    EXPECT_TRUE(
        scanSource("src/tensor/kernels/philox.cc", src).empty());
    EXPECT_TRUE(scanSource("tests/common/test_rng.cc", src).empty());
    EXPECT_TRUE(scanSource("tools/some_tool.cc", src).empty());
    // Comments, strings, other headers and names that only contain
    // "_mm" never fire.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "// _mm_mul_epu32 and <immintrin.h>\n"
                           "const char *s = \"_mm256_add_ps(\";\n"
                           "#include <cstdint>\n"
                           "int comm_mm_size = x_mm_add(a);\n"
                           "kernels::philoxUniformFloats(k, 0, n, u, v);\n")
                    .empty());
}

TEST(LintRules, FloatReduceSkipsKernelsAndNonReductions)
{
    // The kernel layer is the sanctioned home of reduction loops.
    EXPECT_TRUE(scanSource("src/tensor/kernels/reduce.cc",
                           "float s = 0.0f;\ns += a[i];\n")
                    .empty());
    // A zero-initialized float that is only ever assigned is a
    // running value, not a reduction.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "float loss = 0.0f;\nloss = next();\n")
                    .empty());
    // A nonzero initializer is not a reduction seed.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "float gain = 0.5f;\ngain += bump;\n")
                    .empty());
    // Integer accumulators carry no rounding order.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "int count = 0;\ncount += n;\n")
                    .empty());
}

TEST(LintRules, RelaxedMemoryOrderFiresRepoWideUnderSrc)
{
    // Originally restricted to src/exec/; the atomics pass now holds
    // every subsystem to the same reviewed-ordering bar.
    std::string src = "n.load(std::memory_order_relaxed);\n";
    EXPECT_EQ(rulesOf(scanSource("src/exec/gate.cc", src)),
              std::vector<std::string>{"relaxed-memory-order"});
    EXPECT_EQ(rulesOf(scanSource("src/common/stats.cc", src)),
              std::vector<std::string>{"relaxed-memory-order"});
    EXPECT_EQ(rulesOf(scanSource("src/serve/pool.cc", src)),
              std::vector<std::string>{"relaxed-memory-order"});
    // Non-src trees (tools, tests) stay out of scope.
    EXPECT_TRUE(scanSource("tools/naspipe_serve.cc", src).empty());
}

TEST(LintRules, DetSuppressionFiresEvenInComments)
{
    // Built by concatenation so this test file's own raw lines never
    // contain the marker the rule scans for.
    std::string src = std::string("// TO") + "DO(det): revisit\n";
    std::vector<Finding> findings = scanSource("src/a.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "det-suppression");
}

TEST(LintRules, CommentsAndStringsDoNotFire)
{
    std::string src = "// calls rand() in hash order\n"
                      "const char *msg = \"rand() time()\";\n"
                      "/* std::map<void *, int> */\n";
    EXPECT_TRUE(scanSource("src/a.cc", src).empty());
}

TEST(LintRules, AllowWithReasonSuppresses)
{
    std::string allow =
        "// naspipe-lint: allow(raw-random) seeding the demo only\n";
    EXPECT_TRUE(
        scanSource("src/a.cc", allow + "int x = rand();\n").empty());
    // Same-line form.
    EXPECT_TRUE(scanSource("src/a.cc",
                           "int x = rand();  "
                           "// naspipe-lint: allow(raw-random) demo\n")
                    .empty());
}

TEST(LintRules, BareAllowDoesNotSuppress)
{
    std::string src = "// naspipe-lint: allow(raw-random)\n"
                      "int x = rand();\n";
    EXPECT_EQ(rulesOf(scanSource("src/a.cc", src)),
              std::vector<std::string>{"raw-random"});
}

TEST(LintRules, AllowOnlyCoversItsOwnRule)
{
    std::string src =
        "// naspipe-lint: allow(unordered-iteration) wrong rule\n"
        "int x = rand();\n";
    EXPECT_EQ(rulesOf(scanSource("src/a.cc", src)),
              std::vector<std::string>{"raw-random"});
}

TEST(LintRules, BaselineKeyIgnoresLineNumbers)
{
    std::string hazard = "int x = rand();\n";
    Finding atTop = scanSource("src/a.cc", hazard).front();
    Finding shifted =
        scanSource("src/a.cc", "\n\n\n" + hazard).front();
    EXPECT_NE(atTop.line, shifted.line);
    EXPECT_EQ(analysis::baselineKey(atTop), analysis::baselineKey(shifted));
}

TEST(LintRules, ApplyBaselineCountsOnlyFreshFindings)
{
    std::vector<Finding> findings =
        scanSource("src/a.cc", "int x = rand();\nsrand(9);\n");
    ASSERT_EQ(findings.size(), 2u);
    std::set<std::string> baseline{analysis::baselineKey(findings[0])};
    EXPECT_EQ(analysis::applyBaseline(findings, baseline), 1u);
    EXPECT_TRUE(findings[0].baselined);
    EXPECT_FALSE(findings[1].baselined);
}

TEST(LintRules, RenderedBaselineRoundTrips)
{
    std::vector<Finding> findings =
        scanSource("src/a.cc", "int x = rand();\n");
    std::string rendered = analysis::renderBaseline(findings);
    // Comments and the finding key survive a parse of the rendering.
    EXPECT_NE(rendered.find(analysis::baselineKey(findings[0])),
              std::string::npos);
}

TEST(LintRules, MissingBaselineFileIsEmptyNotError)
{
    std::set<std::string> baseline;
    std::string error;
    EXPECT_TRUE(loadBaseline("does/not/exist.txt", baseline, &error));
    EXPECT_TRUE(baseline.empty());
}

TEST(LintRules, DescribeNamesFileLineAndRule)
{
    Finding f = scanSource("src/a.cc", "int x = rand();\n").front();
    EXPECT_EQ(f.describe(), "src/a.cc:1: [raw-random] int x = rand();");
}
