#ifndef MDDC_MDQL_REWRITE_H_
#define MDDC_MDQL_REWRITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mdql/plan.h"

namespace mddc {

struct ExecContext;  // engine/executor.h

namespace mdql {

/// The logical rewrite rules (docs/mdql_compiler.md). Each bit gates one
/// rule so tests and the bench ablation can run any subset.
inline constexpr std::uint32_t kRuleHoistTimeslice = 1u << 0;
inline constexpr std::uint32_t kRuleMergeSiblingAggregates = 1u << 1;
inline constexpr std::uint32_t kRuleSelectBelowAggregate = 1u << 2;
inline constexpr std::uint32_t kRuleSelectBelowJoin = 1u << 3;
inline constexpr std::uint32_t kRuleCollapseRollup = 1u << 4;
inline constexpr std::uint32_t kAllRules = (1u << 5) - 1;

struct RewriteOptions {
  std::uint32_t rule_mask = kAllRules;
};

/// Compiler configuration carried by a Session. The defaults are the
/// production setting: compile every SELECT, run every rule, and walk
/// the rewritten plan. Turning `enable_compiler` off pins the session to
/// the tree-walk interpreter (the stress oracle's replay side does this,
/// making the oracle a live compiled-vs-interpreted differential);
/// masking rules changes the plan that runs — an unmerged SELECT list
/// runs one stream per aggregate.
struct CompileOptions {
  bool enable_compiler = true;
  RewriteOptions rewrites;
};

/// The rewritten plan plus one entry per rule application, in firing
/// order (EXPLAIN prints them; tests assert on them).
struct RewriteOutcome {
  PlanRef plan;
  std::vector<std::string> fired;
};

/// Runs the enabled rules to a fixpoint over the plan DAG. Nodes are
/// rewritten in place (plans are single-statement values); the returned
/// root may differ from the input when a root-level pattern fired.
/// `exec` (optional) advances stats.rewrites_applied by the number of
/// applications — EXPLAIN passes a scratch context so plan display never
/// perturbs the caller's counters.
RewriteOutcome Rewrite(PlanRef plan, const RewriteOptions& options,
                       ExecContext* exec = nullptr);

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_REWRITE_H_
