#include "algebra/operators.h"

#include <map>
#include <optional>

#include "algebra/aggregate_assembly.h"
#include "core/properties.h"

namespace mddc {
namespace {

/// A fact's coordinates per dimension: its characterizations in the
/// grouping category (top-grouped dimensions: the top value).
using CoordLists = std::vector<std::vector<MdObject::Characterization>>;

/// The fact's coordinates in every grouping category, or nullopt when
/// some dimension has none (the fact then joins no group).
std::optional<CoordLists> GroupingCoordinates(const MdObject& mo,
                                              const AggregateSpec& spec,
                                              FactId fact) {
  const std::size_t n = mo.dimension_count();
  CoordLists per_dim(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Dimension& dimension = mo.dimension(i);
    if (spec.grouping[i] == dimension.type().top()) {
      per_dim[i].push_back(MdObject::Characterization{
          ValueId(), dimension.top_value(), Lifespan::AlwaysSpan(), 1.0});
      continue;
    }
    for (const MdObject::Characterization& c :
         mo.CharacterizedBy(fact, i, spec.prob_at)) {
      auto category = dimension.CategoryOf(c.value);
      if (category.ok() && *category == spec.grouping[i]) {
        per_dim[i].push_back(c);
      }
    }
    if (per_dim[i].empty()) return std::nullopt;
  }
  return per_dim;
}

/// One group under construction: members ascending, the intersection
/// over members of their characterization spans and the product of their
/// probabilities per dimension, and the expected count — the sum over
/// members of the product of their characterization probabilities.
struct GroupAccum {
  std::vector<FactId> members;
  std::vector<Lifespan> life_per_dim;
  std::vector<double> prob_per_dim;
  double expected = 0.0;
};

using GroupKey = std::vector<ValueId>;
using GroupMap = std::map<GroupKey, GroupAccum>;

/// Folds one fact's coordinate cross product into `groups`.
void AccumulateFact(std::size_t n, FactId fact, const CoordLists& per_dim,
                    GroupMap& groups) {
  std::vector<std::size_t> cursor(n, 0);
  while (true) {
    GroupKey key(n);
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = per_dim[i][cursor[i]].value;
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    GroupAccum& group = it->second;
    if (inserted) {
      group.life_per_dim.assign(n, Lifespan::AlwaysSpan());
      group.prob_per_dim.assign(n, 1.0);
    }
    group.members.push_back(fact);
    double member_prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const MdObject::Characterization& c = per_dim[i][cursor[i]];
      // Intersecting with Always is the identity; skipping it keeps the
      // temporal-element operation sequence the core performs.
      if (!c.life.IsAlways()) {
        group.life_per_dim[i] = group.life_per_dim[i].Intersect(c.life);
      }
      group.prob_per_dim[i] *= c.prob;
      member_prob *= c.prob;
    }
    group.expected += member_prob;
    // Advance the cross-product cursor.
    std::size_t i = 0;
    while (i < n && ++cursor[i] == per_dim[i].size()) {
      cursor[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
}

/// Evaluates one group: expected count or g(group), and the Section 4.2
/// result lifespan — the intersection over the members and g's argument
/// dimensions of the times the member was related to its data (Always
/// for argument-less functions such as set-count).
Result<AssembledGroup> EvaluateGroup(const MdObject& mo,
                                     const AggregateSpec& spec,
                                     const GroupKey& key, GroupAccum& group) {
  AssembledGroup out;
  if (spec.expected_counts &&
      spec.function.kind() == AggregateFunctionKind::kSetCount) {
    out.value = group.expected;
  } else {
    MDDC_ASSIGN_OR_RETURN(
        out.value, spec.function.Evaluate(mo, group.members, spec.prob_at));
  }
  const std::size_t n = mo.dimension_count();
  Lifespan result_life = Lifespan::AlwaysSpan();
  for (std::size_t dim : spec.function.args()) {
    if (dim >= n) continue;
    const FactDimRelation& relation = mo.relation(dim);
    for (FactId member : group.members) {
      TemporalElement member_valid;
      TemporalElement member_transaction;
      for (std::size_t e : relation.EntryIndexesForFact(member)) {
        const FactDimRelation::Entry& entry = relation.entries()[e];
        member_valid = member_valid.Union(entry.life.valid);
        member_transaction =
            member_transaction.Union(entry.life.transaction);
      }
      result_life =
          result_life.Intersect(Lifespan{member_valid, member_transaction});
    }
  }
  out.result_life = std::move(result_life);
  out.key = key;
  out.member_count = group.members.size();
  out.members = std::move(group.members);
  out.life_per_dim = std::move(group.life_per_dim);
  out.prob_per_dim = std::move(group.prob_per_dim);
  return out;
}

}  // namespace

Result<MdObject> ReferenceAggregateFormation(const MdObject& mo,
                                             const AggregateSpec& spec) {
  MDDC_RETURN_NOT_OK(ValidateAggregateSpec(mo, spec));
  const SummarizabilityReport summarizability =
      CheckSummarizability(mo, spec.function.kind(), spec.grouping);
  const std::size_t n = mo.dimension_count();
  GroupMap groups;
  for (FactId fact : mo.facts()) {  // ascending
    std::optional<CoordLists> coords = GroupingCoordinates(mo, spec, fact);
    if (coords.has_value()) AccumulateFact(n, fact, *coords, groups);
  }
  // std::map iterates in canonical lexicographic key order.
  std::vector<AssembledGroup> assembled;
  assembled.reserve(groups.size());
  for (auto& [key, group] : groups) {
    MDDC_ASSIGN_OR_RETURN(AssembledGroup out,
                          EvaluateGroup(mo, spec, key, group));
    assembled.push_back(std::move(out));
  }
  return AssembleAggregateResult(mo, spec, summarizability,
                                 std::move(assembled));
}

}  // namespace mddc
