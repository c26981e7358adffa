#include "algebra/predicate.h"

#include "common/strings.h"
#include "engine/rollup_index.h"

namespace mddc {

struct Predicate::Node {
  enum class Kind {
    kTrue,
    kAnd,
    kOr,
    kNot,
    kCharacterizedBy,
    kCharacterizedThroughout,
    kHasValueInCategory,
    kNumericCompare,
    kMinProbability,
    kSameRepresentedValue,
  };

  Kind kind = Kind::kTrue;
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;

  std::size_t dim = 0;
  std::size_t dim_b = 0;
  ValueId value;
  CategoryTypeIndex category = 0;
  TemporalElement element;
  bool any_time = true;          // kCharacterizedBy: no time restriction
  Comparison comparison = Comparison::kEq;
  double bound = 0.0;
  double threshold = 0.0;
  Chronon at = kNowChronon;
  // RepresentationEquals leaves carry the name lookup, resolved against
  // the MO at evaluation time.
  bool needs_rep_resolution = false;
  std::string rep_name;
  std::string rep_text;
};

namespace {

using Node = Predicate::Node;

/// A predicate node bound to one MO. A characterization leaf over an
/// in-range dimension carries the dimension's compiled rollup snapshot
/// and its target resolved against it — a RepresentationEquals name
/// lookup included — so a pass over many facts resolves them once, not
/// once per fact.
struct Bound {
  const Node* node = nullptr;
  std::unique_ptr<Bound> left;
  std::unique_ptr<Bound> right;
  std::shared_ptr<const RollupIndex> index;
  ValueId target;
  /// False when a representation name denotes no value (nothing matches).
  bool resolved = true;
  bool target_is_top = false;
  /// The target's dense id (kNone when it is not in the dimension) and
  /// category in `index`.
  std::uint32_t target_dense = RollupIndex::kNone;
  CategoryTypeIndex target_category = 0;
};

std::unique_ptr<Bound> Bind(const Node& node, const MdObject& mo,
                            ExecStats* stats) {
  auto bound = std::make_unique<Bound>();
  bound->node = &node;
  if (node.left != nullptr) bound->left = Bind(*node.left, mo, stats);
  if (node.right != nullptr) bound->right = Bind(*node.right, mo, stats);
  const bool reads_characterization =
      node.kind == Node::Kind::kCharacterizedBy ||
      node.kind == Node::Kind::kCharacterizedThroughout ||
      node.kind == Node::Kind::kHasValueInCategory ||
      node.kind == Node::Kind::kMinProbability;
  // An out-of-range dimension stays unbound; evaluation reports it.
  if (!reads_characterization || node.dim >= mo.dimension_count()) {
    return bound;
  }
  const Dimension& dimension = mo.dimension(node.dim);
  bound->index = RollupIndex::For(dimension, stats);
  bound->target = node.value;
  if (node.needs_rep_resolution) {
    bound->resolved = false;
    auto rep = dimension.FindRepresentation(node.category, node.rep_name);
    if (rep.ok()) {
      auto resolved = (*rep)->Lookup(node.rep_text, node.at);
      bound->resolved = resolved.ok();
      if (resolved.ok()) bound->target = *resolved;
    }
  }
  bound->target_is_top = bound->target == dimension.top_value();
  bound->target_dense = bound->index->DenseOf(bound->target);
  if (bound->target_dense != RollupIndex::kNone) {
    bound->target_category = bound->index->CategoryOfDense(bound->target_dense);
  }
  return bound;
}

/// One value's entry in a fact's characterization, if `found`.
struct TargetCharacterization {
  bool found = false;
  Lifespan life;
  double prob = 0.0;
};

/// How `fact` is characterized by a bound leaf's one target value: the
/// entry MdObject::CharacterizedBy reports for that value, accumulated
/// over the fact's relation entries and their ancestor runs at the
/// target's category — the same witnesses in the same order, with the
/// same lifespan union and noisy-or — without materializing the rest of
/// the closure. `first_only` stops at the first witness, for leaves that
/// only ask whether one exists.
TargetCharacterization CharacterizeTarget(const Bound& leaf,
                                          const MdObject& mo, FactId fact,
                                          bool first_only) {
  TargetCharacterization result;
  const FactDimRelation& relation = mo.relation(leaf.node->dim);
  const std::vector<std::size_t>& entries = relation.EntryIndexesForFact(fact);
  if (leaf.target_is_top) {
    // Characterization by top is unconditional once the fact has a pair.
    result.found = !entries.empty();
    result.prob = 1.0;
    return result;
  }
  const auto fold = [&](const Lifespan& life, double prob) {
    if (life.Empty()) return;
    if (!result.found) {
      result.found = true;
      result.life = life;
      result.prob = prob;
    } else {
      result.life = result.life.Union(life);
      result.prob = 1.0 - (1.0 - result.prob) * (1.0 - prob);
    }
  };
  const RollupIndex& index = *leaf.index;
  for (std::size_t e : entries) {
    const FactDimRelation::Entry& entry = relation.entries()[e];
    if (entry.value == leaf.target) {
      fold(entry.life, entry.prob);
    } else if (leaf.target_dense != RollupIndex::kNone) {
      const std::uint32_t dense = index.DenseOf(entry.value);
      if (dense == RollupIndex::kNone) continue;
      for (const RollupIndex::RunEntry* c =
               index.RunBegin(dense, leaf.target_category);
           c != index.RunEnd(dense, leaf.target_category); ++c) {
        if (c->ancestor != leaf.target_dense) continue;
        fold(index.RunIntersect(entry.life, *c), entry.prob * c->prob);
        break;  // a closure names each ancestor once
      }
    }
    if (first_only && result.found) break;
  }
  return result;
}

Status DimensionOutOfRange(const Node& node, const MdObject& mo) {
  return Status::InvalidArgument(
      StrCat("predicate references dimension ", node.dim, " of a ",
             mo.dimension_count(), "-dimensional MO"));
}

Result<bool> EvaluateCharacterizedBy(const Bound& leaf, const MdObject& mo,
                                     FactId fact) {
  const Node& node = *leaf.node;
  if (node.dim >= mo.dimension_count()) return DimensionOutOfRange(node, mo);
  if (!leaf.resolved) return false;
  const TargetCharacterization c =
      CharacterizeTarget(leaf, mo, fact, /*first_only=*/node.any_time);
  if (!c.found) return false;
  return node.any_time || c.life.valid.Covers(node.element);
}

Result<bool> EvaluateHasValueInCategory(const Bound& leaf, const MdObject& mo,
                                        FactId fact) {
  const Node& node = *leaf.node;
  if (node.dim >= mo.dimension_count()) return DimensionOutOfRange(node, mo);
  const Dimension& dimension = mo.dimension(node.dim);
  if (node.category >= dimension.type().category_count()) return false;
  // Some non-top value of the category characterizes the fact: an entry
  // value in it, or a containment of an entry's run there, alive at some
  // time. Runs never name top.
  const RollupIndex& index = *leaf.index;
  const FactDimRelation& relation = mo.relation(node.dim);
  for (std::size_t e : relation.EntryIndexesForFact(fact)) {
    const FactDimRelation::Entry& entry = relation.entries()[e];
    const std::uint32_t dense = index.DenseOf(entry.value);
    if (dense == RollupIndex::kNone || entry.life.Empty()) continue;
    if (index.CategoryOfDense(dense) == node.category &&
        entry.value != dimension.top_value()) {
      return true;
    }
    for (const RollupIndex::RunEntry* c = index.RunBegin(dense, node.category);
         c != index.RunEnd(dense, node.category); ++c) {
      if (!index.RunIntersect(entry.life, *c).Empty()) return true;
    }
  }
  return false;
}

Result<bool> EvaluateNumericCompare(const Node& node, const MdObject& mo,
                                    FactId fact) {
  if (node.dim >= mo.dimension_count()) return DimensionOutOfRange(node, mo);
  const Dimension& dimension = mo.dimension(node.dim);
  for (const FactDimRelation::Entry* entry :
       mo.relation(node.dim).ForFact(fact)) {
    if (entry->value == dimension.top_value()) continue;
    auto value = dimension.NumericValueOf(entry->value, node.at);
    if (!value.ok()) continue;  // non-numeric characterizations do not match
    bool matches = false;
    switch (node.comparison) {
      case Predicate::Comparison::kLess:
        matches = *value < node.bound;
        break;
      case Predicate::Comparison::kLessEq:
        matches = *value <= node.bound;
        break;
      case Predicate::Comparison::kEq:
        matches = *value == node.bound;
        break;
      case Predicate::Comparison::kGreaterEq:
        matches = *value >= node.bound;
        break;
      case Predicate::Comparison::kGreater:
        matches = *value > node.bound;
        break;
    }
    if (matches) return true;
  }
  return false;
}

Result<bool> EvaluateMinProbability(const Bound& leaf, const MdObject& mo,
                                    FactId fact) {
  const Node& node = *leaf.node;
  // An out-of-range dimension characterizes nothing: no match.
  if (node.dim >= mo.dimension_count()) return false;
  const TargetCharacterization c =
      CharacterizeTarget(leaf, mo, fact, /*first_only=*/false);
  return c.found && c.prob >= node.threshold && c.life.valid.Contains(node.at);
}

Result<bool> EvaluateSameRepresentedValue(const Node& node,
                                          const MdObject& mo, FactId fact) {
  if (node.dim >= mo.dimension_count() ||
      node.dim_b >= mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("predicate references dimension ", node.dim, " or ",
               node.dim_b, " of a ", mo.dimension_count(),
               "-dimensional MO"));
  }
  auto texts_of = [&](std::size_t dim) {
    std::vector<std::string> texts;
    const Dimension& dimension = mo.dimension(dim);
    for (const FactDimRelation::Entry* entry :
         mo.relation(dim).ForFact(fact)) {
      if (entry->value == dimension.top_value()) continue;
      auto category = dimension.CategoryOf(entry->value);
      if (!category.ok()) continue;
      auto rep = dimension.FindRepresentation(*category, node.rep_name);
      if (!rep.ok()) continue;
      auto text = (*rep)->Get(entry->value, node.at);
      if (text.ok()) texts.push_back(*text);
    }
    return texts;
  };
  std::vector<std::string> left = texts_of(node.dim);
  std::vector<std::string> right = texts_of(node.dim_b);
  for (const std::string& a : left) {
    for (const std::string& b : right) {
      if (a == b) return true;
    }
  }
  return false;
}

Result<bool> EvaluateBound(const Bound& bound, const MdObject& mo,
                           FactId fact) {
  const Node& node = *bound.node;
  switch (node.kind) {
    case Node::Kind::kTrue:
      return true;
    case Node::Kind::kAnd: {
      MDDC_ASSIGN_OR_RETURN(bool left, EvaluateBound(*bound.left, mo, fact));
      if (!left) return false;
      return EvaluateBound(*bound.right, mo, fact);
    }
    case Node::Kind::kOr: {
      MDDC_ASSIGN_OR_RETURN(bool left, EvaluateBound(*bound.left, mo, fact));
      if (left) return true;
      return EvaluateBound(*bound.right, mo, fact);
    }
    case Node::Kind::kNot: {
      MDDC_ASSIGN_OR_RETURN(bool inner, EvaluateBound(*bound.left, mo, fact));
      return !inner;
    }
    case Node::Kind::kCharacterizedBy:
    case Node::Kind::kCharacterizedThroughout:
      return EvaluateCharacterizedBy(bound, mo, fact);
    case Node::Kind::kHasValueInCategory:
      return EvaluateHasValueInCategory(bound, mo, fact);
    case Node::Kind::kNumericCompare:
      return EvaluateNumericCompare(node, mo, fact);
    case Node::Kind::kMinProbability:
      return EvaluateMinProbability(bound, mo, fact);
    case Node::Kind::kSameRepresentedValue:
      return EvaluateSameRepresentedValue(node, mo, fact);
  }
  return Status::InvalidArgument("unknown predicate node kind");
}

std::string NodeToString(const Node& node) {
  switch (node.kind) {
    case Node::Kind::kTrue:
      return "true";
    case Node::Kind::kAnd:
      return StrCat("(", NodeToString(*node.left), " AND ",
                    NodeToString(*node.right), ")");
    case Node::Kind::kOr:
      return StrCat("(", NodeToString(*node.left), " OR ",
                    NodeToString(*node.right), ")");
    case Node::Kind::kNot:
      return StrCat("NOT ", NodeToString(*node.left));
    case Node::Kind::kCharacterizedBy:
      if (node.any_time) return StrCat("char(", node.dim, ",", node.value, ")");
      return StrCat("char(", node.dim, ",", node.value, "@",
                    node.element.ToString(), ")");
    case Node::Kind::kCharacterizedThroughout:
      return StrCat("char(", node.dim, ",", node.value, " throughout ",
                    node.element.ToString(), ")");
    case Node::Kind::kHasValueInCategory:
      return StrCat("incat(", node.dim, ",", node.category, ")");
    case Node::Kind::kNumericCompare: {
      const char* op = "=";
      switch (node.comparison) {
        case Predicate::Comparison::kLess:
          op = "<";
          break;
        case Predicate::Comparison::kLessEq:
          op = "<=";
          break;
        case Predicate::Comparison::kEq:
          op = "=";
          break;
        case Predicate::Comparison::kGreaterEq:
          op = ">=";
          break;
        case Predicate::Comparison::kGreater:
          op = ">";
          break;
      }
      return StrCat("num(", node.dim, " ", op, " ", node.bound, ")");
    }
    case Node::Kind::kMinProbability:
      return StrCat("prob(", node.dim, ",", node.value, " >= ",
                    node.threshold, ")");
    case Node::Kind::kSameRepresentedValue:
      return StrCat("same(", node.dim, ",", node.dim_b, ",", node.rep_name,
                    ")");
  }
  return "?";
}

}  // namespace

Predicate Predicate::True() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kTrue;
  return Predicate(node);
}

Predicate Predicate::CharacterizedBy(std::size_t dim, ValueId value) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedBy;
  node->dim = dim;
  node->value = value;
  node->any_time = true;
  return Predicate(node);
}

Predicate Predicate::CharacterizedByAt(std::size_t dim, ValueId value,
                                       Chronon at) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedBy;
  node->dim = dim;
  node->value = value;
  node->any_time = false;
  node->element = TemporalElement::At(at);
  return Predicate(node);
}

Predicate Predicate::CharacterizedThroughout(std::size_t dim, ValueId value,
                                             TemporalElement element) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedThroughout;
  node->dim = dim;
  node->value = value;
  node->any_time = false;
  node->element = std::move(element);
  return Predicate(node);
}

Predicate Predicate::HasValueInCategory(std::size_t dim,
                                        CategoryTypeIndex category) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kHasValueInCategory;
  node->dim = dim;
  node->category = category;
  return Predicate(node);
}

Predicate Predicate::RepresentationEquals(std::size_t dim,
                                          CategoryTypeIndex category,
                                          std::string rep_name,
                                          std::string text, Chronon at) {
  // The name -> value resolution needs the MO's dimension, so the lookup
  // parameters are stored on the node and resolved at evaluation time.
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCharacterizedBy;
  node->dim = dim;
  node->category = category;
  node->any_time = true;
  // Encode the unresolved name pair in element/value via a sentinel: the
  // value is resolved on first evaluation. Simpler and robust: resolve
  // eagerly is impossible without the MO, so we store the strings.
  node->rep_name = std::move(rep_name);
  node->rep_text = std::move(text);
  node->at = at;
  node->needs_rep_resolution = true;
  return Predicate(node);
}

Predicate Predicate::NumericCompare(std::size_t dim, Comparison comparison,
                                    double bound) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kNumericCompare;
  node->dim = dim;
  node->comparison = comparison;
  node->bound = bound;
  return Predicate(node);
}

Predicate Predicate::MinProbability(std::size_t dim, ValueId value,
                                    double threshold, Chronon at) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kMinProbability;
  node->dim = dim;
  node->value = value;
  node->threshold = threshold;
  node->at = at;
  return Predicate(node);
}

Predicate Predicate::SameRepresentedValue(std::size_t dim_a,
                                          std::size_t dim_b,
                                          std::string rep_name, Chronon at) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kSameRepresentedValue;
  node->dim = dim_a;
  node->dim_b = dim_b;
  node->rep_name = std::move(rep_name);
  node->at = at;
  return Predicate(node);
}

Predicate Predicate::And(Predicate other) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kAnd;
  node->left = root_;
  node->right = other.root_;
  return Predicate(node);
}

Predicate Predicate::Or(Predicate other) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kOr;
  node->left = root_;
  node->right = other.root_;
  return Predicate(node);
}

Predicate Predicate::Not() const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kNot;
  node->left = root_;
  return Predicate(node);
}

Result<bool> Predicate::Evaluate(const MdObject& mo, FactId fact) const {
  return EvaluateBound(*Bind(*root_, mo, nullptr), mo, fact);
}

Result<std::vector<bool>> Predicate::EvaluateAll(const MdObject& mo,
                                                 ExecStats* stats) const {
  const std::unique_ptr<Bound> bound = Bind(*root_, mo, stats);
  std::vector<bool> matches;
  matches.reserve(mo.facts().size());
  for (FactId fact : mo.facts()) {
    MDDC_ASSIGN_OR_RETURN(bool match, EvaluateBound(*bound, mo, fact));
    matches.push_back(match);
  }
  return matches;
}

std::string Predicate::ToString() const { return NodeToString(*root_); }

}  // namespace mddc
