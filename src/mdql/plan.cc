#include "mdql/plan.h"

#include <map>
#include <utility>

#include "common/strings.h"

namespace mddc {
namespace mdql {

PlanRef MakeScan(Name mo_name, const MdObject* mo) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kScan;
  node->mo_name = mo_name;
  node->mo = mo;
  return node;
}

PlanRef MakeTimeslice(PlanRef child, std::string as_of) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kTimeslice;
  node->children.push_back(std::move(child));
  node->as_of = std::move(as_of);
  return node;
}

PlanRef MakeSelect(PlanRef child, std::shared_ptr<const WhereExpr> where) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kSelect;
  node->children.push_back(std::move(child));
  node->where = std::move(where);
  return node;
}

PlanRef MakeAggregate(PlanRef child, std::vector<AggRef> aggregates,
                      std::vector<GroupRef> group_by) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kAggregate;
  node->children.push_back(std::move(child));
  node->aggregates = std::move(aggregates);
  node->group_by = std::move(group_by);
  return node;
}

PlanRef MakeMerge(std::vector<PlanRef> children) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kMerge;
  node->children = std::move(children);
  return node;
}

PlanRef MakeJoin(PlanRef left, PlanRef right, JoinPredicate predicate) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kJoin;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->join_predicate = predicate;
  return node;
}

PlanRef LowerSelect(Name mo_name, const MdObject* mo,
                    const SelectStatement& select) {
  PlanRef scan = MakeScan(mo_name, mo);
  std::vector<PlanRef> branches;
  const std::size_t n =
      select.aggregates.empty() ? 1 : select.aggregates.size();
  for (std::size_t a = 0; a < n; ++a) {
    PlanRef chain = scan;
    if (select.as_of.has_value()) {
      chain = MakeTimeslice(std::move(chain), *select.as_of);
    }
    if (select.where != nullptr) {
      chain = MakeSelect(std::move(chain), select.where);
    }
    std::vector<AggRef> aggregates;
    if (!select.aggregates.empty()) {
      aggregates.push_back(select.aggregates[a]);
    }
    branches.push_back(MakeAggregate(std::move(chain), std::move(aggregates),
                                     select.group_by));
  }
  return MakeMerge(std::move(branches));
}

const MdObject* ScanMoBelow(const PlanNode& node, bool through_timeslice) {
  const PlanNode* cur = &node;
  while (cur->kind == PlanKind::kSelect ||
         (through_timeslice && cur->kind == PlanKind::kTimeslice)) {
    cur = cur->children[0].get();
  }
  return cur->kind == PlanKind::kScan ? cur->mo : nullptr;
}

bool SameGroupBy(const std::vector<GroupRef>& a,
                 const std::vector<GroupRef>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].level.dimension != b[i].level.dimension ||
        a[i].level.category != b[i].level.category ||
        a[i].representation != b[i].representation) {
      return false;
    }
  }
  return true;
}

namespace {

const char* CmpText(WhereAtom::Cmp cmp) {
  switch (cmp) {
    case WhereAtom::Cmp::kLt: return "<";
    case WhereAtom::Cmp::kLe: return "<=";
    case WhereAtom::Cmp::kEq: return "=";
    case WhereAtom::Cmp::kGe: return ">=";
    case WhereAtom::Cmp::kGt: return ">";
    case WhereAtom::Cmp::kNe: return "<>";
  }
  return "?";
}

std::string RenderAtom(const WhereAtom& atom) {
  std::string body;
  switch (atom.kind) {
    case WhereAtom::Kind::kNameEquals:
      body = StrCat(atom.level.dimension, ".\"", atom.level.category, "\" = '",
                    atom.text, "'");
      break;
    case WhereAtom::Kind::kNumericCompare:
      body = StrCat(atom.dimension, " ", CmpText(atom.cmp), " ",
                    FormatDouble(atom.number));
      break;
    case WhereAtom::Kind::kProbAtLeast:
      body = StrCat("PROB(", atom.level.dimension, ".\"", atom.level.category,
                    "\" = '", atom.text, "') >= ", FormatDouble(atom.number));
      break;
  }
  if (atom.negated) return StrCat("NOT ", body);
  return body;
}

}  // namespace

std::string RenderWhere(const WhereExpr& expr) {
  switch (expr.kind) {
    case WhereExpr::Kind::kAtom:
      return RenderAtom(expr.atom);
    case WhereExpr::Kind::kAnd:
      return StrCat("(", RenderWhere(*expr.left), " AND ",
                    RenderWhere(*expr.right), ")");
    case WhereExpr::Kind::kOr:
      return StrCat("(", RenderWhere(*expr.left), " OR ",
                    RenderWhere(*expr.right), ")");
  }
  return "?";
}

namespace {

std::string Describe(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      if (node.mo != nullptr) {
        return StrCat("scan ", node.mo_name, " (", node.mo->facts().size(),
                      " facts, ", node.mo->dimension_count(), " dims)");
      }
      return StrCat("scan ", node.mo_name);
    case PlanKind::kTimeslice:
      return StrCat("timeslice ASOF '", node.as_of, "'");
    case PlanKind::kSelect:
      return StrCat("select ",
                    node.where != nullptr ? RenderWhere(*node.where) : "true");
    case PlanKind::kAggregate: {
      std::vector<std::string> parts;
      for (const AggRef& agg : node.aggregates) parts.push_back(agg.label);
      std::string out = StrCat("aggregate {", Join(parts, ", "), "}");
      if (!node.group_by.empty()) {
        parts.clear();
        for (const GroupRef& group : node.group_by) {
          parts.push_back(StrCat(group.level.dimension, ".\"",
                                 group.level.category, "\""));
        }
        out += StrCat(" by {", Join(parts, ", "), "}");
      }
      return out;
    }
    case PlanKind::kMerge:
      return StrCat("merge (", node.children.size(), " branches)");
    case PlanKind::kJoin:
      switch (node.join_predicate) {
        case JoinPredicate::kEqual: return "join (=)";
        case JoinPredicate::kNotEqual: return "join (<>)";
        case JoinPredicate::kTrue: return "join (x)";
      }
      return "join";
  }
  return "?";
}

void CountParents(const PlanRef& node, std::map<const PlanNode*, int>& refs) {
  if (++refs[node.get()] > 1) return;
  for (const PlanRef& child : node->children) CountParents(child, refs);
}

void PrintNode(const PlanRef& node, int depth,
               const std::map<const PlanNode*, int>& refs,
               std::map<const PlanNode*, int>& shared_ids, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  const bool shared = refs.at(node.get()) > 1;
  auto it = shared_ids.find(node.get());
  if (it != shared_ids.end()) {
    out += StrCat("^ shared #", it->second, "\n");
    return;
  }
  out += Describe(*node);
  if (shared) {
    const int id = static_cast<int>(shared_ids.size()) + 1;
    shared_ids.emplace(node.get(), id);
    out += StrCat(" [shared #", id, "]");
  }
  out += "\n";
  for (const PlanRef& child : node->children) {
    PrintNode(child, depth + 1, refs, shared_ids, out);
  }
}

}  // namespace

std::string PrintPlan(const PlanRef& plan) {
  std::string out;
  if (plan == nullptr) return out;
  std::map<const PlanNode*, int> refs;
  CountParents(plan, refs);
  std::map<const PlanNode*, int> shared_ids;
  PrintNode(plan, 0, refs, shared_ids, out);
  return out;
}

}  // namespace mdql
}  // namespace mddc
