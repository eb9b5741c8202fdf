/**
 * @file
 * Per-file line rules: the original nondeterminism hazards.
 *
 * These are the failure modes the CSP papers and this repo's own
 * history show corrupt results without crashing: hash-order iteration
 * feeding schedule/commit decisions, ambient randomness outside the
 * seeded RNG, address-ordered containers, wall-clock reads outside
 * the observability layer, catch-all determinism deferral
 * comments, and the numeric plane's two kernel-only disciplines
 * (tree reductions, and no libm transcendental outside the kernels). Each rule is a pure function of one SourceFile; the
 * whole-program passes live in atomics_pass.* and lock_pass.*.
 */

#ifndef NASPIPE_TOOLS_ANALYSIS_LINE_RULES_H
#define NASPIPE_TOOLS_ANALYSIS_LINE_RULES_H

#include <vector>

#include "analysis/finding.h"
#include "analysis/source_model.h"

namespace naspipe {
namespace analysis {

/** The line-rule table, in documentation order. */
const std::vector<RuleInfo> &lineRuleTable();

/** Run every line rule over @p file. */
std::vector<Finding> runLineRules(const SourceFile &file);

} // namespace analysis
} // namespace naspipe

#endif // NASPIPE_TOOLS_ANALYSIS_LINE_RULES_H
