#include <gtest/gtest.h>

#include <set>
#include <span>

#include "algebra/derived.h"
#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "workload/clinical_generator.h"

// Randomized algebraic-law checks over generated MOs: the paper's
// operators must satisfy the standard set-algebra identities on fact
// sets, and aggregate formation must satisfy its coverage invariants.
// Each TEST_P seed generates a differently shaped workload (varying
// non-strictness, churn, granularity, uncertainty).

namespace mddc {
namespace {

class AlgebraLawsTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ClinicalWorkloadParams params;
    int seed = GetParam();
    params.seed = static_cast<std::uint32_t>(seed * 7919 + 13);
    params.num_patients = 60 + 10 * (seed % 5);
    params.num_groups = 2 + seed % 3;
    params.non_strict_rate = 0.1 * (seed % 4);
    params.reclassified_rate = 0.1 * (seed % 3);
    params.coarse_granularity_rate = 0.15 * (seed % 2);
    params.uncertain_rate = 0.1 * (seed % 2);
    registry_ = std::make_shared<FactRegistry>();
    auto workload = GenerateClinicalWorkload(params, registry_);
    ASSERT_TRUE(workload.ok()) << workload.status();
    workload_ = std::make_unique<ClinicalMo>(*std::move(workload));
  }

  const MdObject& mo() const { return workload_->mo; }

  /// Splits the MO's facts by a region predicate.
  Predicate RegionPredicate() const {
    ValueId region = mo().dimension(workload_->residence_dim)
                         .ValuesIn(workload_->region)
                         .front();
    return Predicate::CharacterizedBy(workload_->residence_dim, region);
  }

  Predicate GroupPredicate() const {
    ValueId group = mo().dimension(workload_->diagnosis_dim)
                        .ValuesIn(workload_->group)
                        .front();
    return Predicate::CharacterizedBy(workload_->diagnosis_dim, group);
  }

  std::shared_ptr<FactRegistry> registry_;
  std::unique_ptr<ClinicalMo> workload_;
};

TEST_P(AlgebraLawsTest, SelectionConjunctionEqualsComposition) {
  Predicate p = RegionPredicate();
  Predicate q = GroupPredicate();
  auto conjunct = Select(mo(), p.And(q));
  auto composed = Select(*Select(mo(), p), q);
  ASSERT_TRUE(conjunct.ok());
  ASSERT_TRUE(composed.ok());
  EXPECT_EQ(conjunct->facts(), composed->facts());
}

TEST_P(AlgebraLawsTest, SelectionCommutes) {
  Predicate p = RegionPredicate();
  Predicate q = GroupPredicate();
  auto pq = Select(*Select(mo(), p), q);
  auto qp = Select(*Select(mo(), q), p);
  EXPECT_EQ(pq->facts(), qp->facts());
}

TEST_P(AlgebraLawsTest, SelectionPartitionsWithNegation) {
  Predicate p = GroupPredicate();
  auto yes = Select(mo(), p);
  auto no = Select(mo(), p.Not());
  ASSERT_TRUE(yes.ok());
  ASSERT_TRUE(no.ok());
  EXPECT_EQ(yes->fact_count() + no->fact_count(), mo().fact_count());
  auto both = Union(*yes, *no);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->facts(), mo().facts());
}

TEST_P(AlgebraLawsTest, UnionLaws) {
  Predicate p = GroupPredicate();
  MdObject a = *Select(mo(), p);
  MdObject b = *Select(mo(), RegionPredicate());
  auto ab = Union(a, b);
  auto ba = Union(b, a);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(ab->facts(), ba->facts());            // commutative
  auto aa = Union(a, a);
  EXPECT_EQ(aa->facts(), a.facts());              // idempotent
  auto assoc1 = Union(*Union(a, b), a);
  auto assoc2 = Union(a, *Union(b, a));
  EXPECT_EQ(assoc1->facts(), assoc2->facts());    // associative
}

TEST_P(AlgebraLawsTest, DifferenceLaws) {
  MdObject a = *Select(mo(), GroupPredicate());
  MdObject b = *Select(mo(), RegionPredicate());
  // Snapshot-style identity checks need snapshot semantics; run them on
  // snapshot copies.
  a.set_temporal_type(TemporalType::kSnapshot);
  b.set_temporal_type(TemporalType::kSnapshot);
  auto self = Difference(a, a);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->fact_count(), 0u);
  auto diff = Difference(a, b);
  ASSERT_TRUE(diff.ok());
  for (FactId fact : diff->facts()) {
    EXPECT_TRUE(a.HasFact(fact));
    EXPECT_FALSE(b.HasFact(fact));
  }
  // (a \ b) u (a n b-ish): (a\b) facts + facts of a in b == a.
  std::size_t in_both = 0;
  for (FactId fact : a.facts()) {
    if (b.HasFact(fact)) ++in_both;
  }
  EXPECT_EQ(diff->fact_count() + in_both, a.fact_count());
}

TEST_P(AlgebraLawsTest, ProjectionPreservesFacts) {
  auto projected = Project(mo(), {workload_->diagnosis_dim});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->facts(), mo().facts());
  EXPECT_EQ(projected->dimension_count(), 1u);
  // Projection then projection == single projection.
  auto twice = Project(*Project(mo(), {0, 1}), {0});
  auto once = Project(mo(), {0});
  EXPECT_EQ(twice->facts(), once->facts());
  EXPECT_TRUE(twice->schema().EquivalentTo(once->schema()));
}

TEST_P(AlgebraLawsTest, RenameRoundTripIsIdentity) {
  auto renamed = Rename(mo(), RenameSpec{"X", {"A", "B"}});
  ASSERT_TRUE(renamed.ok());
  auto back = Rename(*renamed, RenameSpec{"Patient",
                                          {"Diagnosis", "Residence"}});
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->schema().EquivalentTo(mo().schema()));
  EXPECT_EQ(back->facts(), mo().facts());
}

TEST_P(AlgebraLawsTest, CartesianJoinCardinality) {
  MdObject small = *Select(mo(), GroupPredicate());
  if (small.fact_count() == 0 || small.fact_count() > 40) return;
  MdObject renamed =
      *Rename(small, RenameSpec{"Patient2", {"Diagnosis2", "Residence2"}});
  auto joined = Join(small, renamed, JoinPredicate::kTrue);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->fact_count(), small.fact_count() * small.fact_count());
  auto equi = Join(small, renamed, JoinPredicate::kEqual);
  ASSERT_TRUE(equi.ok());
  EXPECT_EQ(equi->fact_count(), small.fact_count());
  auto anti = Join(small, renamed, JoinPredicate::kNotEqual);
  ASSERT_TRUE(anti.ok());
  EXPECT_EQ(anti->fact_count() + equi->fact_count(), joined->fact_count());
}

TEST_P(AlgebraLawsTest, TimesliceDistributesOverUnion) {
  MdObject a = *Select(mo(), GroupPredicate());
  MdObject b = *Select(mo(), RegionPredicate());
  Chronon at = *ParseDate("15/06/85");
  auto slice_of_union = ValidTimeslice(*Union(a, b), at);
  auto union_of_slices =
      Union(*ValidTimeslice(a, at), *ValidTimeslice(b, at));
  ASSERT_TRUE(slice_of_union.ok());
  ASSERT_TRUE(union_of_slices.ok());
  EXPECT_EQ(slice_of_union->facts(), union_of_slices->facts());
}

TEST_P(AlgebraLawsTest, TimesliceIsMonotoneOnSelection) {
  // Slicing a selection == selecting... not in general (characterization
  // windows differ), but slice(mo) facts must be a subset of mo facts.
  Chronon at = *ParseDate("15/06/85");
  auto sliced = ValidTimeslice(mo(), at);
  ASSERT_TRUE(sliced.ok());
  for (FactId fact : sliced->facts()) {
    EXPECT_TRUE(mo().HasFact(fact));
  }
}

TEST_P(AlgebraLawsTest, AggregateGroupInvariants) {
  AggregateSpec spec{AggFunction::SetCount(),
                     {workload_->group,
                      mo().dimension(workload_->residence_dim).type().top()},
                     ResultDimensionSpec::Auto(),
                     kNowChronon,
                     true};
  auto result = AggregateFormation(mo(), spec);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::size_t result_dim = result->dimension_count() - 1;
  for (FactId group : result->facts()) {
    auto term = registry_->Get(group);
    ASSERT_TRUE(term.ok());
    ASSERT_EQ(term->kind, FactTerm::Kind::kSet);
    // Non-empty, within the base population, duplicate-free (canonical).
    EXPECT_FALSE(term->members().empty());
    EXPECT_LE(term->members().size(), mo().fact_count());
    for (std::size_t m = 1; m < term->members().size(); ++m) {
      EXPECT_LT(term->members()[m - 1], term->members()[m]);
    }
    for (FactId member : term->members()) {
      EXPECT_TRUE(mo().HasFact(member));
    }
    // The recorded count equals the set size.
    auto pairs = result->relation(result_dim).ForFact(group);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_DOUBLE_EQ(*result->dimension(result_dim)
                          .NumericValueOf(pairs.front()->value),
                     static_cast<double>(term->members().size()));
  }
}

TEST_P(AlgebraLawsTest, AggregateCoverageMatchesCharacterization) {
  // Every fact characterized by some group value appears in at least one
  // group, and vice versa.
  AggregateSpec spec{AggFunction::SetCount(),
                     {workload_->group,
                      mo().dimension(workload_->residence_dim).type().top()},
                     ResultDimensionSpec::Auto(),
                     kNowChronon,
                     true};
  auto result = AggregateFormation(mo(), spec);
  ASSERT_TRUE(result.ok());
  std::set<FactId> grouped;
  for (FactId group : result->facts()) {
    auto term = registry_->Get(group);
    const std::span<const FactId> members = term->members();
    grouped.insert(members.begin(), members.end());
  }
  std::set<FactId> characterized;
  for (FactId fact : mo().facts()) {
    for (const auto& c :
         mo().CharacterizedBy(fact, workload_->diagnosis_dim)) {
      auto category =
          mo().dimension(workload_->diagnosis_dim).CategoryOf(c.value);
      if (category.ok() && *category == workload_->group) {
        characterized.insert(fact);
        break;
      }
    }
  }
  EXPECT_EQ(grouped, characterized);
}

TEST_P(AlgebraLawsTest, TimesliceFactsAreExactlyThoseCharacterizedAtT) {
  // rho_v(M, t) keeps a fact iff, in every dimension, some pair was
  // current at t with a value that was a member at t.
  Chronon at = *ParseDate("15/06/88");
  auto sliced = ValidTimeslice(mo(), at);
  ASSERT_TRUE(sliced.ok());
  std::set<FactId> expected;
  for (FactId fact : mo().facts()) {
    bool in_all = true;
    for (std::size_t i = 0; i < mo().dimension_count() && in_all; ++i) {
      bool covered = false;
      for (const auto* entry : mo().relation(i).ForFact(fact)) {
        auto membership = mo().dimension(i).MembershipOf(entry->value);
        if (entry->life.valid.Contains(at) && membership.ok() &&
            membership->valid.Contains(at)) {
          covered = true;
          break;
        }
      }
      in_all = covered;
    }
    if (in_all) expected.insert(fact);
  }
  std::set<FactId> actual(sliced->facts().begin(), sliced->facts().end());
  EXPECT_EQ(actual, expected);
}

TEST_P(AlgebraLawsTest, DuplicateRemovalIsIdempotentOnFactCount) {
  auto once = DuplicateRemoval(mo());
  ASSERT_TRUE(once.ok());
  auto twice = DuplicateRemoval(*once);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->fact_count(), once->fact_count());
  EXPECT_LE(once->fact_count(), mo().fact_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraLawsTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace mddc
