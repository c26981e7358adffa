#ifndef MDDC_ALGEBRA_AGGREGATE_ASSEMBLY_H_
#define MDDC_ALGEBRA_AGGREGATE_ASSEMBLY_H_

#include <vector>

#include "algebra/operators.h"

namespace mddc {

// Internal to src/algebra: the steps the group-by core, the append fold
// (operators.cc) and the reference evaluator (reference_aggregate.cc)
// share.

/// Checks the grouping against `mo` and, when the spec enforces
/// aggregation types, the function against its argument data.
Status ValidateAggregateSpec(const MdObject& mo, const AggregateSpec& spec);

/// One evaluated group. `group_fact` is set when the group's set-fact is
/// already interned (a captured group an append left untouched);
/// otherwise assembly interns `members`, ascending. Per argument
/// dimension: the grouping value, and the intersection over members of
/// their coordinate lifespans and the product of their probabilities.
struct AssembledGroup {
  std::vector<ValueId> key;
  FactId group_fact;
  std::vector<FactId> members;
  std::size_t member_count = 0;
  std::vector<Lifespan> life_per_dim;
  std::vector<double> prob_per_dim;
  double value = 0.0;      ///< g(group)
  Lifespan result_life;    ///< raw Section 4.2 result lifespan
};

/// Builds the result MO from `groups` in canonical key order (Section 4.1
/// typing, one set-fact per group); records the raw per-group state when
/// spec.capture is set.
Result<MdObject> AssembleAggregateResult(
    const MdObject& mo, const AggregateSpec& spec,
    const SummarizabilityReport& summarizability,
    std::vector<AssembledGroup> groups);

}  // namespace mddc

#endif  // MDDC_ALGEBRA_AGGREGATE_ASSEMBLY_H_
