#include "mdql/physical.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/derived.h"
#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "mdql/bind.h"

namespace mddc {
namespace mdql {
namespace {

using MoRef = std::shared_ptr<const MdObject>;

/// The interpreter's row set: group labels -> one value per aggregate of
/// the plan ("-" until that aggregate writes the row).
using MergedRows = std::map<std::vector<std::string>, std::vector<std::string>>;

/// The Aggregate branches of a plan root: a Merge's children, or the root
/// itself. Every branch must group alike, or the merged rows would not
/// line up.
Result<std::vector<const PlanNode*>> Branches(const PlanRef& plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  std::vector<const PlanNode*> branches;
  if (plan->kind == PlanKind::kMerge) {
    for (const PlanRef& child : plan->children) branches.push_back(child.get());
  } else {
    branches.push_back(plan.get());
  }
  if (branches.empty()) return Status::InvalidArgument("merge has no branches");
  for (const PlanNode* branch : branches) {
    if (branch->kind != PlanKind::kAggregate) {
      return Status::InvalidArgument(
          "a plan renders rows only from aggregates (or a merge of them)");
    }
    if (!SameGroupBy(branch->group_by, branches[0]->group_by)) {
      return Status::InvalidArgument("merge branches group differently");
    }
  }
  return branches;
}

/// The Select an Aggregate consumes as its keep mask, or null.
const PlanNode* KeepMaskSelect(const PlanNode& aggregate) {
  const PlanNode* child = aggregate.children[0].get();
  return child->kind == PlanKind::kSelect && child->where != nullptr ? child
                                                                     : nullptr;
}

/// The node whose MO an Aggregate's stream scans (below its keep mask).
const PlanRef& StreamInput(const PlanNode& aggregate) {
  const PlanRef& child = aggregate.children[0];
  return KeepMaskSelect(aggregate) != nullptr ? child->children[0] : child;
}

/// One statement's walk. Interior nodes materialize at most once each
/// (a hoisted chain shared by several branches is sliced and filtered
/// once); the walk counts the streams it runs and the interior nodes
/// other than the timeslice that it materializes.
class PlanWalk {
 public:
  /// `exec` must not be null.
  explicit PlanWalk(ExecContext* exec) : exec_(exec) {}

  Result<MoRef> Input(const PlanRef& node) {
    if (auto it = memo_.find(node.get()); it != memo_.end()) return it->second;
    MDDC_ASSIGN_OR_RETURN(MoRef out, Materialize(*node));
    memo_.emplace(node.get(), out);
    return out;
  }

  /// Streams one Aggregate branch and folds its rows into `merged`, its
  /// functions writing value columns first, first + 1, ... of rows
  /// `width` values wide.
  Status Stream(const PlanNode& aggregate, std::size_t first,
                std::size_t width, MergedRows* merged);

  bool one_scan() const { return streams_ == 1 && interior_ == 0; }

 private:
  Result<MoRef> Materialize(const PlanNode& node);

  ExecContext* exec_;
  std::map<const PlanNode*, MoRef> memo_;
  std::size_t streams_ = 0;
  std::size_t interior_ = 0;
};

Result<MoRef> PlanWalk::Materialize(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      if (node.mo == nullptr) {
        return Status::InvalidArgument(
            StrCat("scan of '", node.mo_name, "' has no bound MO"));
      }
      // Borrowed: an aliasing pointer with no owner, never a copy.
      return MoRef(MoRef(), node.mo);
    case PlanKind::kTimeslice: {
      MDDC_ASSIGN_OR_RETURN(MoRef child, Input(node.children[0]));
      // ASOF 'NOW' slices at the growing NOW sentinel (see
      // ExecuteSelectTreeWalk).
      Chronon day = kNowChronon;
      if (node.as_of != "NOW") {
        MDDC_ASSIGN_OR_RETURN(day, ParseDate(node.as_of));
      }
      MDDC_ASSIGN_OR_RETURN(MdObject sliced,
                            ValidTimeslice(*child, day, exec_));
      return std::make_shared<const MdObject>(std::move(sliced));
    }
    case PlanKind::kSelect: {
      MDDC_ASSIGN_OR_RETURN(MoRef child, Input(node.children[0]));
      if (node.where == nullptr) return child;
      ++interior_;
      MDDC_ASSIGN_OR_RETURN(Predicate predicate,
                            BuildWhere(*child, *node.where, exec_->stats));
      MDDC_ASSIGN_OR_RETURN(MdObject selected, Select(*child, predicate));
      return std::make_shared<const MdObject>(std::move(selected));
    }
    case PlanKind::kAggregate: {
      MDDC_ASSIGN_OR_RETURN(MoRef child, Input(node.children[0]));
      ++interior_;
      if (node.aggregates.size() != 1) {
        return Status::InvalidArgument(
            "an aggregate feeding an operator must fold exactly one "
            "function");
      }
      MDDC_ASSIGN_OR_RETURN(std::vector<CategoryTypeIndex> grouping,
                            ResolveGrouping(*child, node.group_by));
      MDDC_ASSIGN_OR_RETURN(AggFunction function,
                            BuildAggFunction(*child, node.aggregates[0]));
      AggregateSpec spec{std::move(function), std::move(grouping)};
      MDDC_ASSIGN_OR_RETURN(MdObject formed,
                            AggregateFormation(*child, spec, exec_));
      return std::make_shared<const MdObject>(std::move(formed));
    }
    case PlanKind::kMerge:
      if (node.children.size() == 1) return Input(node.children[0]);
      return Status::InvalidArgument(
          "a merge of several branches renders rows; it cannot feed an "
          "operator");
    case PlanKind::kJoin: {
      MDDC_ASSIGN_OR_RETURN(MoRef left, Input(node.children[0]));
      MDDC_ASSIGN_OR_RETURN(MoRef right, Input(node.children[1]));
      ++interior_;
      MDDC_ASSIGN_OR_RETURN(MdObject joined,
                            Join(*left, *right, node.join_predicate, exec_));
      return std::make_shared<const MdObject>(std::move(joined));
    }
  }
  return Status::InvalidArgument("unknown plan node");
}

/// Every step replays the interpreter's operation order (input, WHERE,
/// grouping columns, then bind-and-run per function), so the first error
/// and the rendered bytes match it exactly.
Status PlanWalk::Stream(const PlanNode& aggregate, std::size_t first,
                        std::size_t width, MergedRows* merged) {
  MDDC_ASSIGN_OR_RETURN(MoRef input, Input(StreamInput(aggregate)));
  const MdObject& mo = *input;
  const std::size_t n = mo.dimension_count();

  // Selection pushdown: sigma's fact scan, recorded as a mask instead of
  // a materialized MO (a kept fact's coordinates are identical in both).
  std::vector<bool> keep;
  if (const PlanNode* select = KeepMaskSelect(aggregate)) {
    MDDC_ASSIGN_OR_RETURN(Predicate predicate,
                          BuildWhere(mo, *select->where, exec_->stats));
    MDDC_ASSIGN_OR_RETURN(keep, predicate.EvaluateAll(mo, &exec_->stats));
  }

  MDDC_ASSIGN_OR_RETURN(const std::vector<CategoryTypeIndex> grouping,
                        ResolveGrouping(mo, aggregate.group_by));
  struct Column {
    std::size_t dim;
    std::string representation;
  };
  std::vector<Column> columns;
  columns.reserve(aggregate.group_by.size());
  for (const GroupRef& group : aggregate.group_by) {
    const ResolvedLevel level = *Resolve(mo, group.level);
    columns.push_back(
        Column{level.dim, PickRepresentation(mo, level, group.representation)});
  }

  // The interpreter interleaves bind(a) / run(a); a bind failure
  // therefore surfaces only after every earlier function ran clean — so
  // the bound prefix streams first and the remembered bind error returns
  // only when the stream succeeds.
  StreamSpec spec;
  spec.functions.reserve(aggregate.aggregates.size());
  Status bind_error = Status::OK();
  for (const AggRef& agg : aggregate.aggregates) {
    auto function = BuildAggFunction(mo, agg);
    if (!function.ok()) {
      bind_error = function.status();
      break;
    }
    spec.functions.push_back(*function);
  }
  spec.grouping = grouping;
  spec.prob_at = kNowChronon;
  spec.keep = KeepMaskSelect(aggregate) != nullptr ? &keep : nullptr;
  ++streams_;
  MDDC_ASSIGN_OR_RETURN(std::vector<StreamGroup> groups,
                        AggregateStream(mo, spec, exec_));
  if (!bind_error.ok()) return bind_error;

  // The formation interns every group as a set-fact, so two groups with
  // identical member sets become ONE result fact — related to both key
  // values, rendered once, labeled by the first-added key (the first
  // group in canonical order). Replay that collapse here: keep only the
  // first group per member set. The dropped groups' values are identical
  // by construction (same members, same fold order), so only the row
  // count changes.
  {
    std::set<std::vector<FactId>> seen;
    std::vector<StreamGroup> unique;
    unique.reserve(groups.size());
    for (StreamGroup& group : groups) {
      if (seen.insert(std::move(group.member_facts)).second) {
        unique.push_back(std::move(group));
      }
    }
    groups = std::move(unique);
  }

  std::vector<std::size_t> live_pos(n, 0);
  {
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (grouping[i] != mo.dimension(i).type().top()) live_pos[i] = next++;
    }
  }

  // Group labels, via SqlAggregate's GroupLabel. The stream key value IS
  // the single value the formation relates the group fact to; a
  // dimension grouped at TOP is not scanned, and the formation relates
  // every group to its top value.
  std::vector<std::vector<std::string>> labels(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    labels[g].reserve(columns.size());
    for (const Column& column : columns) {
      const Dimension& dimension = mo.dimension(column.dim);
      const ValueId value = grouping[column.dim] == dimension.type().top()
                                ? dimension.top_value()
                                : groups[g].key[live_pos[column.dim]];
      labels[g].push_back(GroupLabel(dimension, value, column.representation,
                                     kNowChronon));
    }
  }

  // The interpreter merges each aggregate's (label, value) rows — sorted
  // by group labels then value — into the map, overwriting on label ties.
  // Replay that loop verbatim over the streamed values.
  for (std::size_t a = 0; a < spec.functions.size(); ++a) {
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (labels[x] != labels[y]) return labels[x] < labels[y];
      return groups[x].values[a] < groups[y].values[a];
    });
    for (std::size_t g : order) {
      auto [it, inserted] = merged->try_emplace(
          labels[g], std::vector<std::string>(width, "-"));
      it->second[first + a] = FormatDouble(groups[g].values[a]);
    }
  }
  return Status::OK();
}

/// The operator chain the walk runs to produce `node`'s MO, bottom-up;
/// sets `*interior` when it materializes a node other than the
/// timeslice.
std::string DescribeInput(const PlanNode& node, bool* interior) {
  if (node.kind == PlanKind::kScan) return StrCat("scan ", node.mo_name);
  std::vector<std::string> inputs;
  for (const PlanRef& child : node.children) {
    inputs.push_back(DescribeInput(*child, interior));
  }
  if (node.kind == PlanKind::kTimeslice) return inputs[0] + " -> timeslice";
  if (node.kind == PlanKind::kMerge ||
      (node.kind == PlanKind::kSelect && node.where == nullptr)) {
    return Join(inputs, " + ");
  }
  *interior = true;
  if (node.kind == PlanKind::kJoin) {
    return StrCat("join [materialized] (", Join(inputs, ", "), ")");
  }
  return StrCat(inputs[0], node.kind == PlanKind::kSelect ? " -> select"
                                                          : " -> aggregate",
                " [materialized]");
}

}  // namespace

Result<QueryResult> ExecutePlan(const PlanRef& plan, ExecContext* exec) {
  DefaultContext scope(exec);
  MDDC_ASSIGN_OR_RETURN(std::vector<const PlanNode*> branches,
                        Branches(plan));
  QueryResult result;
  for (const GroupRef& group : branches[0]->group_by) {
    result.columns.push_back(
        StrCat(group.level.dimension, ".", group.level.category));
  }
  for (const PlanNode* branch : branches) {
    for (const AggRef& agg : branch->aggregates) {
      result.columns.push_back(agg.label);
    }
  }
  const std::size_t width =
      result.columns.size() - branches[0]->group_by.size();

  PlanWalk walk(exec);
  MergedRows merged;
  std::size_t first = 0;
  for (const PlanNode* branch : branches) {
    MDDC_RETURN_NOT_OK(walk.Stream(*branch, first, width, &merged));
    first += branch->aggregates.size();
  }
  for (const auto& [group, values] : merged) {
    std::vector<std::string> row = group;
    row.insert(row.end(), values.begin(), values.end());
    result.rows.push_back(std::move(row));
  }
  ++(walk.one_scan() ? exec->stats.fused_pipelines
                     : exec->stats.plan_fallbacks);
  return result;
}

Result<std::shared_ptr<const MdObject>> MaterializePlan(const PlanRef& plan,
                                                        ExecContext* exec) {
  DefaultContext scope(exec);
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  PlanWalk walk(exec);
  return walk.Input(plan);
}

Result<QueryResult> ExplainStatement(const MdObject& source,
                                     const Statement& statement,
                                     const CompileOptions& options,
                                     ExecContext* exec) {
  QueryResult result;
  result.columns = {"explain"};
  auto line = [&result](std::string text) {
    result.rows.push_back({std::move(text)});
  };
  if (!statement.select.has_value()) {
    line("direct execution (not compiled)");
    return result;
  }
  const SelectStatement& select = *statement.select;
  auto plan_lines = [&line](const std::string& rendered) {
    std::size_t begin = 0;
    while (begin < rendered.size()) {
      std::size_t end = rendered.find('\n', begin);
      if (end == std::string::npos) end = rendered.size();
      line(StrCat("  ", rendered.substr(begin, end - begin)));
      begin = end + 1;
    }
  };

  PlanRef plan = LowerSelect(select.mo_name, &source, select);
  line("logical plan:");
  plan_lines(PrintPlan(plan));
  // EXPLAIN must not perturb counters: the rewriter counts into a scratch
  // context.
  ExecContext scratch;
  RewriteOutcome rewritten =
      Rewrite(std::move(plan), options.rewrites, &scratch);
  if (rewritten.fired.empty()) {
    line("rewrites: none");
  } else {
    std::vector<std::string> order;
    std::map<std::string, std::size_t> counts;
    for (const std::string& name : rewritten.fired) {
      if (counts[name]++ == 0) order.push_back(name);
    }
    std::vector<std::string> parts;
    for (const std::string& name : order) {
      const std::size_t count = counts[name];
      parts.push_back(count == 1 ? name : StrCat(name, " x", count));
    }
    line(StrCat("rewrites: ", Join(parts, ", ")));
  }
  line("optimized plan:");
  plan_lines(PrintPlan(rewritten.plan));

  line("physical:");
  if (!options.enable_compiler) {
    line("  tree-walk interpreter (compiler disabled)");
    return result;
  }
  MDDC_ASSIGN_OR_RETURN(std::vector<const PlanNode*> branches,
                        Branches(rewritten.plan));
  std::vector<std::string> chains;
  bool interior = false;
  for (const PlanNode* branch : branches) {
    std::string chain = DescribeInput(*StreamInput(*branch), &interior);
    if (KeepMaskSelect(*branch) != nullptr) chain += " -> select [keep mask]";
    chains.push_back(std::move(chain));
  }
  if (branches.size() == 1 && !interior) {
    line("  fused pipeline: one scan");
  } else {
    line(StrCat("  plan walk: ", branches.size(), " stream(s), one per merge "
                "branch", interior ? ", interior nodes materialized" : ""));
  }
  for (std::size_t b = 0; b < branches.size(); ++b) {
    const PlanNode& branch = *branches[b];
    line(StrCat("  branch ", b + 1, "/", branches.size(), ": ", chains[b],
                " -> stream group-by"));
    const MdObject* mo =
        ScanMoBelow(*StreamInput(branch), /*through_timeslice=*/true);
    auto grouping = mo != nullptr ? ResolveGrouping(*mo, branch.group_by)
                                  : Status::NotFound("no scan below");
    if (!grouping.ok()) {
      line(StrCat("    stream: ", branch.aggregates.size(),
                  " function(s), engine chosen at run time"));
      continue;
    }
    const StreamProbe probe = AggregateStreamProbe(*mo, *grouping, exec);
    line(StrCat("    stream: ", branch.aggregates.size(), " function(s), ",
                probe.live.size(), " live dim(s), engine=",
                probe.dense ? "dense-slots" : "flat-hash",
                probe.all_indexed ? "" : " (rollup index unavailable)",
                ", slot product=", probe.slot_product));
  }
  return result;
}

}  // namespace mdql
}  // namespace mddc
