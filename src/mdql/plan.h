#ifndef MDDC_MDQL_PLAN_H_
#define MDDC_MDQL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "core/md_object.h"
#include "mdql/ast.h"

namespace mddc {
namespace mdql {

/// The logical algebra IR behind compiled MDQL (docs/mdql_compiler.md).
/// A plan is a DAG of shared nodes: lowering gives every SELECT-list
/// aggregate its own operator chain over one shared Scan, the rewriter
/// (mdql/rewrite.h) hoists the common prefixes back together and merges
/// the sibling aggregates, and the physical layer (mdql/physical.h)
/// walks the result. Nodes are mutable by the rewriter only; a rewritten
/// plan is immutable and is what the session's plan cache holds. Scan
/// borrows the session's catalog MO; every other field is owned.
enum class PlanKind { kScan, kTimeslice, kSelect, kAggregate, kMerge, kJoin };

struct PlanNode;
using PlanRef = std::shared_ptr<PlanNode>;

struct PlanNode {
  PlanKind kind = PlanKind::kScan;
  std::vector<PlanRef> children;

  /// kScan: the named source, bound to the session catalog entry (not
  /// owned; valid for the statement's lifetime).
  Name mo_name;
  const MdObject* mo = nullptr;

  /// kTimeslice: the ASOF literal ('NOW' or a date).
  std::string as_of;

  /// kSelect: the WHERE tree, shared with the statement AST so a cached
  /// plan outlives the statement it was compiled from.
  std::shared_ptr<const WhereExpr> where;

  /// kAggregate: the functions folded over one grouping.
  std::vector<AggRef> aggregates;
  std::vector<GroupRef> group_by;

  /// kJoin.
  JoinPredicate join_predicate = JoinPredicate::kEqual;
};

PlanRef MakeScan(Name mo_name, const MdObject* mo);
PlanRef MakeTimeslice(PlanRef child, std::string as_of);
PlanRef MakeSelect(PlanRef child, std::shared_ptr<const WhereExpr> where);
PlanRef MakeAggregate(PlanRef child, std::vector<AggRef> aggregates,
                      std::vector<GroupRef> group_by);
PlanRef MakeMerge(std::vector<PlanRef> children);
PlanRef MakeJoin(PlanRef left, PlanRef right, JoinPredicate predicate);

/// Naive lowering of a SELECT: one branch per SELECT-list aggregate,
/// each a full Aggregate → [Select] → [Timeslice] → Scan chain (chain
/// nodes duplicated per branch, Scan shared), merged at the top. The
/// duplication is deliberate: it hands the rewriter the raw material for
/// timeslice hoisting and sibling-aggregate fusion, so EXPLAIN shows the
/// rules earning their keep on every multi-aggregate statement.
PlanRef LowerSelect(Name mo_name, const MdObject* mo,
                    const SelectStatement& select);

/// The scan MO below `node` through Select nodes, and through Timeslice
/// nodes too when `through_timeslice`; null when another node intervenes.
/// Rules whose soundness rests on hierarchy properties must not look
/// through a timeslice: it can cut hierarchy edges, invalidating
/// strictness/partitioning conclusions drawn from the scan MO.
const MdObject* ScanMoBelow(const PlanNode& node, bool through_timeslice);

/// True when two aggregates group by the same columns (level and
/// representation, in order) — the rows they produce line up.
bool SameGroupBy(const std::vector<GroupRef>& a,
                 const std::vector<GroupRef>& b);

/// The WHERE tree in MDQL surface syntax (for plan printing).
std::string RenderWhere(const WhereExpr& expr);

/// Multi-line indented rendering of the plan DAG. Nodes with several
/// parents print their subtree once, tagged "[shared #k]", and later
/// references print "^ shared #k" — the sharing the rewriter introduced
/// is visible in EXPLAIN output.
std::string PrintPlan(const PlanRef& plan);

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_PLAN_H_
