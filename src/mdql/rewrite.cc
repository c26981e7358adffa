#include "mdql/rewrite.h"

#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "core/properties.h"
#include "engine/executor.h"
#include "mdql/bind.h"

namespace mddc {
namespace mdql {
namespace {

AggregateFunctionKind KindOf(AggRef::Fn fn) {
  switch (fn) {
    case AggRef::Fn::kSetCount: return AggregateFunctionKind::kSetCount;
    case AggRef::Fn::kCount: return AggregateFunctionKind::kCount;
    case AggRef::Fn::kSum: return AggregateFunctionKind::kSum;
    case AggRef::Fn::kAvg: return AggregateFunctionKind::kAvg;
    case AggRef::Fn::kMin: return AggregateFunctionKind::kMin;
    case AggRef::Fn::kMax: return AggregateFunctionKind::kMax;
  }
  return AggregateFunctionKind::kSetCount;
}

// ---- hoist-timeslice: CSE of the duplicated scan prefixes ------------------

/// Lowering gives every merge branch its own Timeslice/Select chain over
/// the shared scan; this pass unifies structurally identical chain nodes
/// bottom-up, hoisting the shared timeslice (and the selection riding on
/// it) out of the branches so one sliced/filtered stream feeds them all.
std::size_t CsePrefixChains(const PlanRef& root,
                            std::vector<std::string>& fired) {
  std::size_t count = 0;
  std::map<std::tuple<int, const PlanNode*, std::string, const WhereExpr*>,
           PlanRef>
      canon;
  std::set<const PlanNode*> visited;
  std::function<void(const PlanRef&)> walk = [&](const PlanRef& node) {
    if (!visited.insert(node.get()).second) return;
    for (PlanRef& child : node->children) {
      walk(child);
      if (child->kind != PlanKind::kTimeslice &&
          child->kind != PlanKind::kSelect) {
        continue;
      }
      auto key = std::make_tuple(static_cast<int>(child->kind),
                                 child->children[0].get(), child->as_of,
                                 child->where.get());
      auto [it, inserted] = canon.try_emplace(key, child);
      if (!inserted && it->second.get() != child.get()) {
        child = it->second;
        fired.push_back("hoist-timeslice");
        ++count;
      }
    }
  };
  walk(root);
  return count;
}

// ---- merge-sibling-aggregates ----------------------------------------------

/// Absorbs aggregate siblings of a merge that share their input node and
/// grouping into one multi-function aggregate — the shape the fused
/// stream executes in a single scan.
std::size_t MergeSiblings(const PlanRef& root,
                          std::vector<std::string>& fired) {
  std::size_t count = 0;
  std::set<const PlanNode*> visited;
  std::function<void(const PlanRef&)> walk = [&](const PlanRef& node) {
    if (!visited.insert(node.get()).second) return;
    for (const PlanRef& child : node->children) walk(child);
    if (node->kind != PlanKind::kMerge) return;
    for (std::size_t i = 0; i < node->children.size(); ++i) {
      const PlanRef& a = node->children[i];
      if (a->kind != PlanKind::kAggregate) continue;
      for (std::size_t j = i + 1; j < node->children.size();) {
        const PlanRef& b = node->children[j];
        if (b->kind == PlanKind::kAggregate && b.get() != a.get() &&
            a->children[0].get() == b->children[0].get() &&
            SameGroupBy(a->group_by, b->group_by)) {
          a->aggregates.insert(a->aggregates.end(), b->aggregates.begin(),
                               b->aggregates.end());
          node->children.erase(node->children.begin() +
                               static_cast<std::ptrdiff_t>(j));
          fired.push_back("merge-sibling-aggregates");
          ++count;
        } else {
          ++j;
        }
      }
    }
  };
  walk(root);
  return count;
}

// ---- pattern transforms (post-order, DAG-memoized) -------------------------

using TransformFn = std::function<PlanRef(const PlanRef&)>;

PlanRef TransformDag(const PlanRef& node,
                     std::map<const PlanNode*, PlanRef>& memo,
                     const TransformFn& fn) {
  auto it = memo.find(node.get());
  if (it != memo.end()) return it->second;
  for (PlanRef& child : node->children) {
    child = TransformDag(child, memo, fn);
  }
  PlanRef replaced = fn(node);
  memo.emplace(node.get(), replaced);
  return replaced;
}

PlanRef RunTransform(PlanRef root, const TransformFn& fn) {
  std::map<const PlanNode*, PlanRef> memo;
  return TransformDag(root, memo, fn);
}

/// Gate for select-below-aggregate (Theorem 2's sigma/roll-up
/// commutation): every atom must be a name-equality on a category at or
/// above the aggregate's grouping category of a *grouped* dimension with
/// a strict, partitioning path — then a fact satisfies the predicate
/// exactly when its (unique) group does, on either side of the
/// aggregation.
bool PushableBelowAggregate(const WhereExpr& expr, const MdObject& mo,
                            const std::vector<CategoryTypeIndex>& grouping,
                            const SummarizabilityReport& report) {
  switch (expr.kind) {
    case WhereExpr::Kind::kAtom: {
      const WhereAtom& atom = expr.atom;
      if (atom.kind != WhereAtom::Kind::kNameEquals) return false;
      auto level = Resolve(mo, atom.level);
      if (!level.ok()) return false;
      const DimensionType& type = mo.dimension(level->dim).type();
      const CategoryTypeIndex g = grouping[level->dim];
      if (g == type.top()) return false;
      if (!type.LessEq(g, level->category)) return false;
      return report.strict_path[level->dim] && report.partitioning[level->dim];
    }
    case WhereExpr::Kind::kAnd:
    case WhereExpr::Kind::kOr:
      return PushableBelowAggregate(*expr.left, mo, grouping, report) &&
             PushableBelowAggregate(*expr.right, mo, grouping, report);
  }
  return false;
}

PlanRef SelectBelowAggregate(PlanRef root, std::vector<std::string>& fired) {
  return RunTransform(std::move(root), [&fired](const PlanRef& node) {
    if (node->kind != PlanKind::kSelect || node->where == nullptr ||
        node->children[0]->kind != PlanKind::kAggregate) {
      return node;
    }
    const PlanRef& agg = node->children[0];
    const MdObject* mo =
        ScanMoBelow(*agg->children[0], /*through_timeslice=*/false);
    if (mo == nullptr) return node;
    auto grouping = ResolveGrouping(*mo, agg->group_by);
    if (!grouping.ok()) return node;
    // Only the strict/partitioning flags matter here; the kind argument
    // feeds the distributivity flag, which this rule does not read.
    const SummarizabilityReport report =
        CheckSummarizability(*mo, AggregateFunctionKind::kSum, *grouping);
    if (!PushableBelowAggregate(*node->where, *mo, *grouping, report)) {
      return node;
    }
    auto clone = std::make_shared<PlanNode>(*agg);
    clone->children = {MakeSelect(agg->children[0], node->where)};
    fired.push_back("select-below-aggregate");
    return PlanRef(clone);
  });
}

/// The dimension a WHERE atom references.
Name AtomDimension(const WhereAtom& atom) {
  if (atom.kind == WhereAtom::Kind::kNumericCompare) return atom.dimension;
  return atom.level.dimension;
}

/// -1 when every atom resolves only in `left`, +1 only in `right`,
/// 0 otherwise (mixed sides, or a name in neither schema).
int SideOf(const WhereExpr& expr, const MdObject& left,
           const MdObject& right) {
  switch (expr.kind) {
    case WhereExpr::Kind::kAtom: {
      const Name dim = AtomDimension(expr.atom);
      const bool in_left = left.FindDimension(dim.view()).ok();
      const bool in_right = right.FindDimension(dim.view()).ok();
      if (in_left && !in_right) return -1;
      if (in_right && !in_left) return 1;
      return 0;
    }
    case WhereExpr::Kind::kAnd:
    case WhereExpr::Kind::kOr: {
      const int l = SideOf(*expr.left, left, right);
      const int r = SideOf(*expr.right, left, right);
      return l == r ? l : 0;
    }
  }
  return 0;
}

PlanRef SelectBelowJoin(PlanRef root, std::vector<std::string>& fired) {
  return RunTransform(std::move(root), [&fired](const PlanRef& node) {
    if (node->kind != PlanKind::kSelect || node->where == nullptr ||
        node->children[0]->kind != PlanKind::kJoin) {
      return node;
    }
    const PlanRef& join = node->children[0];
    // Both inputs must expose their scan schema unchanged (select and
    // timeslice preserve it); the join's dimension names are disjoint by
    // the operator's contract, so an atom resolves on exactly one side.
    const MdObject* left =
        ScanMoBelow(*join->children[0], /*through_timeslice=*/true);
    const MdObject* right =
        ScanMoBelow(*join->children[1], /*through_timeslice=*/true);
    if (left == nullptr || right == nullptr) return node;
    const int side = SideOf(*node->where, *left, *right);
    if (side == 0) return node;
    const std::size_t index = side < 0 ? 0 : 1;
    auto clone = std::make_shared<PlanNode>(*join);
    clone->children[index] = MakeSelect(join->children[index], node->where);
    fired.push_back("select-below-join");
    return PlanRef(clone);
  });
}

/// The Kuijpers-Vaisman Theorem-2 roll-up collapse: re-aggregating an
/// aggregate's auto result dimension at a coarser level of the same
/// grouping dimensions is the coarser aggregation of the base data, for
/// the function pairs where regrouping distributes exactly. (Sum o Sum)
/// is deliberately absent: collapsing reorders floating-point addition,
/// and compiled plans promise byte-identical output.
bool SafeRollupPair(AggRef::Fn outer, AggRef::Fn inner) {
  if (outer == AggRef::Fn::kSum) {
    return inner == AggRef::Fn::kCount || inner == AggRef::Fn::kSetCount;
  }
  if (outer == AggRef::Fn::kMin) return inner == AggRef::Fn::kMin;
  if (outer == AggRef::Fn::kMax) return inner == AggRef::Fn::kMax;
  return false;
}

PlanRef CollapseRollup(PlanRef root, std::vector<std::string>& fired) {
  return RunTransform(std::move(root), [&fired](const PlanRef& node) {
    if (node->kind != PlanKind::kAggregate ||
        node->children[0]->kind != PlanKind::kAggregate) {
      return node;
    }
    const PlanRef& inner = node->children[0];
    if (node->aggregates.size() != 1 || inner->aggregates.size() != 1) {
      return node;
    }
    const AggRef& outer_agg = node->aggregates[0];
    const AggRef& inner_agg = inner->aggregates[0];
    // The outer function must consume the inner's auto result dimension.
    if (outer_agg.dimension != std::string_view("Result")) return node;
    if (!SafeRollupPair(outer_agg.fn, inner_agg.fn)) return node;
    const MdObject* mo =
        ScanMoBelow(*inner->children[0], /*through_timeslice=*/false);
    if (mo == nullptr) return node;
    // Same grouping dimensions, each outer category at or above the
    // inner one in the scan MO's lattice.
    if (node->group_by.size() != inner->group_by.size()) return node;
    for (std::size_t i = 0; i < node->group_by.size(); ++i) {
      if (node->group_by[i].level.dimension !=
          inner->group_by[i].level.dimension) {
        return node;
      }
      auto outer_level = Resolve(*mo, node->group_by[i].level);
      auto inner_level = Resolve(*mo, inner->group_by[i].level);
      if (!outer_level.ok() || !inner_level.ok()) return node;
      if (!mo->dimension(outer_level->dim)
               .type()
               .LessEq(inner_level->category, outer_level->category)) {
        return node;
      }
    }
    auto grouping = ResolveGrouping(*mo, node->group_by);
    if (!grouping.ok() ||
        !CheckSummarizability(*mo, KindOf(inner_agg.fn), *grouping)
             .summarizable) {
      return node;
    }
    AggRef collapsed = inner_agg;
    collapsed.label = outer_agg.label;
    fired.push_back("collapse-rollup");
    return MakeAggregate(inner->children[0], {collapsed}, node->group_by);
  });
}

}  // namespace

RewriteOutcome Rewrite(PlanRef plan, const RewriteOptions& options,
                       ExecContext* exec) {
  DefaultContext scope(exec);
  RewriteOutcome out;
  out.plan = std::move(plan);
  if (out.plan == nullptr) return out;
  const std::uint32_t mask = options.rule_mask;
  // The rules enable each other (hoisting makes siblings mergeable,
  // pushing a select down can expose a collapsible roll-up), so run to a
  // fixpoint; the cap only bounds pathological hand-built plans.
  for (int pass = 0; pass < 8; ++pass) {
    const std::size_t before = out.fired.size();
    if ((mask & kRuleHoistTimeslice) != 0) {
      CsePrefixChains(out.plan, out.fired);
    }
    if ((mask & kRuleSelectBelowAggregate) != 0) {
      out.plan = SelectBelowAggregate(std::move(out.plan), out.fired);
    }
    if ((mask & kRuleSelectBelowJoin) != 0) {
      out.plan = SelectBelowJoin(std::move(out.plan), out.fired);
    }
    if ((mask & kRuleCollapseRollup) != 0) {
      out.plan = CollapseRollup(std::move(out.plan), out.fired);
    }
    if ((mask & kRuleMergeSiblingAggregates) != 0) {
      MergeSiblings(out.plan, out.fired);
    }
    if (out.fired.size() == before) break;
  }
  exec->stats.rewrites_applied += static_cast<std::uint64_t>(out.fired.size());
  return out;
}

}  // namespace mdql
}  // namespace mddc
