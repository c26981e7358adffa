#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "engine/executor.h"
#include "fixtures.h"
#include "io/serialize.h"

namespace mddc {
namespace {

using testing_fixtures::BuildDiagnosisDimension;
using testing_fixtures::Day;
using testing_fixtures::During;

/// Example 7/12's snapshot MO: "Leaving out the temporal aspects", R =
/// {(1,9), (2,3), (2,5), (2,8), (2,9)}.
MdObject BuildSnapshotPatientMo() {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  FactId p1 = registry->Atom(1);
  FactId p2 = registry->Atom(2);
  (void)mo.AddFact(p1);
  (void)mo.AddFact(p2);
  (void)mo.Relate(0, p1, ValueId(9));
  (void)mo.Relate(0, p2, ValueId(3));
  (void)mo.Relate(0, p2, ValueId(5));
  (void)mo.Relate(0, p2, ValueId(8));
  (void)mo.Relate(0, p2, ValueId(9));
  return mo;
}

/// An Age dimension: bottom category "Age" (Sigma) with numeric values,
/// grouped into ten-year groups.
Dimension BuildAgeDimension() {
  DimensionTypeBuilder builder("Age");
  builder.AddCategory("Age", AggregationType::kSum)
      .AddCategory("Ten-year Group", AggregationType::kConstant)
      .AddOrder("Age", "Ten-year Group");
  Dimension dimension(std::move(builder.Build()).ValueOrDie());
  CategoryTypeIndex age = *dimension.type().Find("Age");
  CategoryTypeIndex group = *dimension.type().Find("Ten-year Group");
  // Ages 0..99 and groups 0-9, 10-19, ...
  Representation& value_rep = dimension.RepresentationFor(age, "Value");
  Representation& group_rep = dimension.RepresentationFor(group, "Value");
  for (std::uint64_t g = 0; g < 10; ++g) {
    ValueId group_id(1000 + g);
    (void)dimension.AddValue(group, group_id);
    (void)group_rep.Set(group_id,
                        StrCat(g * 10, "-", g * 10 + 9));
  }
  for (std::uint64_t a = 0; a < 100; ++a) {
    ValueId age_id(a);
    (void)dimension.AddValue(age, age_id);
    (void)value_rep.Set(age_id, std::to_string(a));
    (void)dimension.AddOrder(age_id, ValueId(1000 + a / 10));
  }
  return dimension;
}

MdObject BuildPatientAgeMo() {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension(), BuildAgeDimension()},
              registry);
  FactId p1 = registry->Atom(1);
  FactId p2 = registry->Atom(2);
  (void)mo.AddFact(p1);
  (void)mo.AddFact(p2);
  (void)mo.Relate(0, p1, ValueId(9));
  (void)mo.Relate(0, p2, ValueId(9));
  (void)mo.Relate(1, p1, ValueId(30));  // patient 1 is 30
  (void)mo.Relate(1, p2, ValueId(49));  // patient 2 is 49
  return mo;
}

AggregateSpec GroupByDiagnosisGroup(const MdObject& mo,
                                    AggFunction function) {
  AggregateSpec spec{std::move(function), {}, ResultDimensionSpec::Auto(),
                     kNowChronon, true};
  CategoryTypeIndex group = *mo.dimension(0).type().Find("Diagnosis Group");
  spec.grouping.push_back(group);
  for (std::size_t i = 1; i < mo.dimension_count(); ++i) {
    spec.grouping.push_back(mo.dimension(i).type().top());
  }
  return spec;
}

TEST(AggregateFormationTest, Example12SetCountPerDiagnosisGroup) {
  MdObject mo = BuildSnapshotPatientMo();
  auto result =
      AggregateFormation(mo, GroupByDiagnosisGroup(mo, AggFunction::SetCount()));
  ASSERT_TRUE(result.ok()) << result.status();

  // Two groups: {1,2} -> 11 and {2} -> 12 (Figure 3's R1).
  ASSERT_EQ(result->fact_count(), 2u);
  FactRegistry& registry = *mo.registry();
  FactId p1 = registry.Atom(1);
  FactId p2 = registry.Atom(2);
  FactId both = registry.Set({p1, p2});
  FactId only2 = registry.Set({p2});
  EXPECT_TRUE(result->HasFact(both));
  EXPECT_TRUE(result->HasFact(only2));

  auto find_value = [&](FactId fact, std::size_t dim) {
    auto pairs = result->relation(dim).ForFact(fact);
    EXPECT_EQ(pairs.size(), 1u);
    return pairs.empty() ? ValueId() : pairs.front()->value;
  };
  EXPECT_EQ(find_value(both, 0), ValueId(11));
  EXPECT_EQ(find_value(only2, 0), ValueId(12));

  // Figure 3's R7: counts 2 and 1 — patient 2 counted ONCE for group 11
  // even though it has several diagnoses in the group.
  const std::size_t result_dim = result->dimension_count() - 1;
  const Dimension& counts = result->dimension(result_dim);
  EXPECT_DOUBLE_EQ(*counts.NumericValueOf(find_value(both, result_dim)), 2.0);
  EXPECT_DOUBLE_EQ(*counts.NumericValueOf(find_value(only2, result_dim)),
                   1.0);
}

TEST(AggregateFormationTest, ArgumentDimensionRestrictedAboveGrouping) {
  MdObject mo = BuildSnapshotPatientMo();
  auto result =
      AggregateFormation(mo, GroupByDiagnosisGroup(mo, AggFunction::SetCount()));
  ASSERT_TRUE(result.ok());
  // "The Diagnosis dimension is cut so that only the part from Diagnosis
  // Group and up is kept."
  const DimensionType& type = result->dimension(0).type();
  EXPECT_EQ(type.category(type.bottom()).name, "Diagnosis Group");
  EXPECT_EQ(type.category_count(), 2u);  // Group + TOP
  EXPECT_FALSE(result->dimension(0).HasValue(ValueId(9)));
  EXPECT_TRUE(result->dimension(0).HasValue(ValueId(11)));
}

TEST(AggregateFormationTest, ResultFactTypeIsSetOfArgument) {
  MdObject mo = BuildSnapshotPatientMo();
  auto result =
      AggregateFormation(mo, GroupByDiagnosisGroup(mo, AggFunction::SetCount()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().fact_type(), "Set-of-Patient");
  EXPECT_EQ(result->dimension_count(), 2u);  // Diagnosis + Result
}

TEST(AggregateFormationTest, Figure3ExplicitResultDimension) {
  MdObject mo = BuildSnapshotPatientMo();

  // Figure 3's result dimension: Count values grouped into ranges "0-1"
  // and ">1".
  DimensionTypeBuilder builder("Result");
  builder.AddCategory("Count", AggregationType::kSum)
      .AddCategory("Range", AggregationType::kConstant)
      .AddOrder("Count", "Range");
  Dimension prototype(std::move(builder.Build()).ValueOrDie());
  CategoryTypeIndex count_cat = *prototype.type().Find("Count");
  CategoryTypeIndex range_cat = *prototype.type().Find("Range");
  ValueId range_low(9000);
  ValueId range_high(9001);
  ASSERT_TRUE(prototype.AddValue(range_cat, range_low).ok());
  ASSERT_TRUE(prototype.AddValue(range_cat, range_high).ok());
  Representation& range_rep =
      prototype.RepresentationFor(range_cat, "Value");
  ASSERT_TRUE(range_rep.Set(range_low, "0-1").ok());
  ASSERT_TRUE(range_rep.Set(range_high, ">1").ok());
  Representation& count_rep =
      prototype.RepresentationFor(count_cat, "Value");
  for (std::uint64_t c = 0; c <= 10; ++c) {
    ValueId id(c);
    ASSERT_TRUE(prototype.AddValue(count_cat, id).ok());
    ASSERT_TRUE(count_rep.Set(id, std::to_string(c)).ok());
    ASSERT_TRUE(
        prototype.AddOrder(id, c <= 1 ? range_low : range_high).ok());
  }

  AggregateSpec spec =
      GroupByDiagnosisGroup(mo, AggFunction::SetCount());
  spec.result = ResultDimensionSpec::Explicit(
      std::move(prototype), [](double value) -> Result<ValueId> {
        if (value < 0 || value > 10) {
          return Status::InvalidArgument("count out of prototype range");
        }
        return ValueId(static_cast<std::uint64_t>(value));
      });
  auto result = AggregateFormation(mo, spec);
  ASSERT_TRUE(result.ok()) << result.status();

  // The counts roll up into the ranges: count 2 is in ">1", count 1 in
  // "0-1".
  const std::size_t result_dim = result->dimension_count() - 1;
  const Dimension& counts = result->dimension(result_dim);
  FactId both = mo.registry()->Set({mo.registry()->Atom(1),
                                    mo.registry()->Atom(2)});
  auto pairs = result->relation(result_dim).ForFact(both);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs.front()->value, ValueId(2));
  EXPECT_TRUE(counts.LessEqAt(ValueId(2), range_high));
  EXPECT_TRUE(counts.LessEqAt(ValueId(1), range_low));
}

TEST(AggregateFormationTest, NonSummarizableResultIsConstantTyped) {
  // The diagnosis hierarchy is non-strict (patient 2 in both groups), so
  // the result's bottom aggregation type must degrade to c, preventing
  // double-counting in further aggregation.
  MdObject mo = BuildSnapshotPatientMo();
  auto result =
      AggregateFormation(mo, GroupByDiagnosisGroup(mo, AggFunction::SetCount()));
  ASSERT_TRUE(result.ok());
  const DimensionType& type =
      result->dimension(result->dimension_count() - 1).type();
  EXPECT_EQ(type.AggType(type.bottom()), AggregationType::kConstant);
}

TEST(AggregateFormationTest, SummarizableResultKeepsArgumentType) {
  // Group patients by ten-year age group and SUM their ages: the Age
  // hierarchy is strict and partitioning and SUM is distributive, so the
  // result stays Sigma-typed.
  MdObject mo = BuildPatientAgeMo();
  AggregateSpec spec{AggFunction::Sum(1),
                     {mo.dimension(0).type().top(),
                      *mo.dimension(1).type().Find("Ten-year Group")},
                     ResultDimensionSpec::Auto("TotalAge"),
                     kNowChronon,
                     true};
  auto result = AggregateFormation(mo, spec);
  ASSERT_TRUE(result.ok()) << result.status();
  const DimensionType& type =
      result->dimension(result->dimension_count() - 1).type();
  EXPECT_EQ(type.AggType(type.bottom()), AggregationType::kSum);

  // Patient 1 (30) is alone in 30-39; patient 2 (49) alone in 40-49.
  ASSERT_EQ(result->fact_count(), 2u);
  const std::size_t result_dim = result->dimension_count() - 1;
  const Dimension& totals = result->dimension(result_dim);
  std::vector<double> sums;
  for (FactId fact : result->facts()) {
    auto pairs = result->relation(result_dim).ForFact(fact);
    ASSERT_EQ(pairs.size(), 1u);
    sums.push_back(*totals.NumericValueOf(pairs.front()->value));
  }
  std::sort(sums.begin(), sums.end());
  EXPECT_EQ(sums, (std::vector<double>{30.0, 49.0}));
}

TEST(AggregateFormationTest, AvgMinMaxOverAges) {
  MdObject mo = BuildPatientAgeMo();
  // Group everything together (top in both dimensions).
  AggregateSpec spec{AggFunction::Avg(1),
                     {mo.dimension(0).type().top(),
                      mo.dimension(1).type().top()},
                     ResultDimensionSpec::Auto("AvgAge"),
                     kNowChronon,
                     true};
  auto avg = AggregateFormation(mo, spec);
  ASSERT_TRUE(avg.ok());
  ASSERT_EQ(avg->fact_count(), 1u);
  const std::size_t rd = avg->dimension_count() - 1;
  auto pairs = avg->relation(rd).ForFact(avg->facts()[0]);
  EXPECT_DOUBLE_EQ(*avg->dimension(rd).NumericValueOf(pairs.front()->value),
                   39.5);

  spec.function = AggFunction::Min(1);
  auto min_result = AggregateFormation(mo, spec);
  ASSERT_TRUE(min_result.ok());
  pairs = min_result->relation(rd).ForFact(min_result->facts()[0]);
  EXPECT_DOUBLE_EQ(
      *min_result->dimension(rd).NumericValueOf(pairs.front()->value), 30.0);

  spec.function = AggFunction::Max(1);
  auto max_result = AggregateFormation(mo, spec);
  ASSERT_TRUE(max_result.ok());
  pairs = max_result->relation(rd).ForFact(max_result->facts()[0]);
  EXPECT_DOUBLE_EQ(
      *max_result->dimension(rd).NumericValueOf(pairs.front()->value), 49.0);
}

TEST(AggregateFormationTest, AvgIsNotSummarizableSoResultIsConstant) {
  MdObject mo = BuildPatientAgeMo();
  AggregateSpec spec{AggFunction::Avg(1),
                     {mo.dimension(0).type().top(),
                      *mo.dimension(1).type().Find("Ten-year Group")},
                     ResultDimensionSpec::Auto("AvgAge"),
                     kNowChronon,
                     true};
  auto result = AggregateFormation(mo, spec);
  ASSERT_TRUE(result.ok());
  const DimensionType& type =
      result->dimension(result->dimension_count() - 1).type();
  // AVG is not distributive: the result cannot be safely re-aggregated.
  EXPECT_EQ(type.AggType(type.bottom()), AggregationType::kConstant);
}

TEST(AggregateFormationTest, IllegalAggregationRejected) {
  // SUM over diagnoses (aggregation type c) must be refused.
  MdObject mo = BuildSnapshotPatientMo();
  AggregateSpec spec = GroupByDiagnosisGroup(mo, AggFunction::Sum(0));
  auto result = AggregateFormation(mo, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIllegalAggregation);
  // With enforcement off (the paper's "warn the user" mode), it runs.
  spec.enforce_aggregation_types = false;
  EXPECT_FALSE(AggregateFormation(mo, spec).ok())
      << "diagnoses have no numeric interpretation, so SUM still fails";
}

TEST(AggregateFormationTest, CountCountsPairsNotFacts) {
  // COUNT_0 counts diagnosis pairs; SetCount counts patients. Patient 2
  // has 4 diagnoses.
  MdObject mo = BuildSnapshotPatientMo();
  AggregateSpec spec{AggFunction::Count(0),
                     {mo.dimension(0).type().top()},
                     ResultDimensionSpec::Auto("DiagnosisCount"),
                     kNowChronon,
                     true};
  auto result = AggregateFormation(mo, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->fact_count(), 1u);
  const std::size_t rd = result->dimension_count() - 1;
  auto pairs = result->relation(rd).ForFact(result->facts()[0]);
  EXPECT_DOUBLE_EQ(
      *result->dimension(rd).NumericValueOf(pairs.front()->value), 5.0);
}

TEST(AggregateFormationTest, FactWithoutGroupValueFallsOutOfAllGroups) {
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  FactId p1 = registry->Atom(1);
  FactId p3 = registry->Atom(3);
  (void)mo.AddFact(p1);
  (void)mo.AddFact(p3);
  (void)mo.Relate(0, p1, ValueId(9));
  // Patient 3's diagnosis is unknown: related to top only, which is not
  // contained in any diagnosis group.
  (void)mo.Relate(0, p3, mo.dimension(0).top_value());

  auto result = AggregateFormation(
      mo, GroupByDiagnosisGroup(mo, AggFunction::SetCount()));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->fact_count(), 1u);
  FactId group_fact = result->facts()[0];
  auto term = registry->Get(group_fact);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(std::vector<FactId>(term->members().begin(),
                                term->members().end()),
            std::vector<FactId>{p1});
}

TEST(AggregateFormationTest, TemporalGroupLinkIntersectsMemberSpans) {
  // Two facts characterized by family 9 during different periods: the
  // group's link to 9 carries the intersection of the members'
  // characterization times.
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry,
              TemporalType::kValidTime);
  FactId p1 = registry->Atom(1);
  FactId p2 = registry->Atom(2);
  (void)mo.AddFact(p1);
  (void)mo.AddFact(p2);
  (void)mo.Relate(0, p1, ValueId(9), During("[01/01/82-31/12/94]"));
  (void)mo.Relate(0, p2, ValueId(9), During("[01/01/90-NOW]"));

  CategoryTypeIndex family = *mo.dimension(0).type().Find("Diagnosis Family");
  AggregateSpec spec{AggFunction::SetCount(),
                     {family},
                     ResultDimensionSpec::Auto(),
                     kNowChronon,
                     true};
  auto result = AggregateFormation(mo, spec);
  ASSERT_TRUE(result.ok());
  FactId group = registry->Set({p1, p2});
  ASSERT_TRUE(result->HasFact(group));
  auto pairs = result->relation(0).ForFact(group);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs.front()->life.valid.Contains(Day("15/06/92")));
  EXPECT_FALSE(pairs.front()->life.valid.Contains(Day("15/06/85")));
}

TEST(AggregateFormationTest, ResultLinkTimeIntersectsArgumentPairTimes) {
  // Section 4.2: the time on (Group, g(Group)) is the intersection over
  // members and Args(g) of the members' data times. Two patients whose
  // Age pairs hold over different periods yield a SUM link valid only in
  // the overlap.
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension(), BuildAgeDimension()},
              registry, TemporalType::kValidTime);
  FactId p1 = registry->Atom(1);
  FactId p2 = registry->Atom(2);
  (void)mo.AddFact(p1);
  (void)mo.AddFact(p2);
  (void)mo.Relate(0, p1, ValueId(9));
  (void)mo.Relate(0, p2, ValueId(9));
  (void)mo.Relate(1, p1, ValueId(30), During("[01/01/80-31/12/89]"));
  (void)mo.Relate(1, p2, ValueId(40), During("[01/01/85-NOW]"));

  CategoryTypeIndex family = *mo.dimension(0).type().Find("Diagnosis Family");
  AggregateSpec spec{AggFunction::Sum(1),
                     {family, mo.dimension(1).type().top()},
                     ResultDimensionSpec::Auto(),
                     kNowChronon,
                     true};
  auto result = AggregateFormation(mo, spec);
  ASSERT_TRUE(result.ok()) << result.status();
  FactId group = registry->Set({p1, p2});
  ASSERT_TRUE(result->HasFact(group));
  const std::size_t result_dim = result->dimension_count() - 1;
  auto pairs = result->relation(result_dim).ForFact(group);
  ASSERT_EQ(pairs.size(), 1u);
  // Overlap of [80-89] and [85-NOW] is [85-89].
  EXPECT_TRUE(pairs.front()->life.valid.Contains(Day("15/06/87")));
  EXPECT_FALSE(pairs.front()->life.valid.Contains(Day("15/06/82")));
  EXPECT_FALSE(pairs.front()->life.valid.Contains(Day("15/06/95")));
}

TEST(AggregateFormationTest, ExpectedCountsUnderUncertainty) {
  // Two certain patients and one 50%-certain patient in family 9: the
  // crisp count is 3, the expected count 2.5.
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {BuildDiagnosisDimension()}, registry);
  for (std::uint64_t p : {1, 2}) {
    FactId fact = registry->Atom(p);
    (void)mo.AddFact(fact);
    (void)mo.Relate(0, fact, ValueId(9));
  }
  FactId maybe = registry->Atom(3);
  (void)mo.AddFact(maybe);
  (void)mo.Relate(0, maybe, ValueId(9), Lifespan::AlwaysSpan(), 0.5);

  CategoryTypeIndex family = *mo.dimension(0).type().Find("Diagnosis Family");
  AggregateSpec spec{AggFunction::SetCount(),
                     {family},
                     ResultDimensionSpec::Auto(),
                     kNowChronon,
                     true};
  auto read_count = [&](const MdObject& result) {
    const std::size_t rd = result.dimension_count() - 1;
    auto pairs = result.relation(rd).ForFact(result.facts()[0]);
    return *result.dimension(rd).NumericValueOf(pairs.front()->value);
  };

  auto crisp = AggregateFormation(mo, spec);
  ASSERT_TRUE(crisp.ok());
  ASSERT_EQ(crisp->fact_count(), 1u);
  EXPECT_DOUBLE_EQ(read_count(*crisp), 3.0);

  spec.expected_counts = true;
  auto expected = AggregateFormation(mo, spec);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->fact_count(), 1u);
  EXPECT_DOUBLE_EQ(read_count(*expected), 2.5);

  // expected_counts is a no-op for other functions.
  spec.function = AggFunction::Count(0);
  auto counted = AggregateFormation(mo, spec);
  ASSERT_TRUE(counted.ok());
  EXPECT_DOUBLE_EQ(read_count(*counted), 3.0);
}

TEST(AggregateFormationTest, ExpectedCountCompoundsContainmentProbability) {
  // An uncertain containment edge (0.8) under an uncertain pair (0.5):
  // group membership probability 0.4.
  auto registry = std::make_shared<FactRegistry>();
  Dimension diagnosis(testing_fixtures::DiagnosisType());
  CategoryTypeIndex low = *diagnosis.type().Find("Low-level Diagnosis");
  CategoryTypeIndex family = *diagnosis.type().Find("Diagnosis Family");
  ASSERT_TRUE(diagnosis.AddValue(low, ValueId(1)).ok());
  ASSERT_TRUE(diagnosis.AddValue(family, ValueId(2)).ok());
  ASSERT_TRUE(
      diagnosis.AddOrder(ValueId(1), ValueId(2), Lifespan{}, 0.8).ok());
  MdObject mo("Patient", {std::move(diagnosis)}, registry);
  FactId fact = registry->Atom(1);
  ASSERT_TRUE(mo.AddFact(fact).ok());
  ASSERT_TRUE(mo.Relate(0, fact, ValueId(1), Lifespan{}, 0.5).ok());

  AggregateSpec spec{AggFunction::SetCount(),
                     {family},
                     ResultDimensionSpec::Auto(),
                     kNowChronon,
                     true};
  spec.expected_counts = true;
  auto result = AggregateFormation(mo, spec);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->fact_count(), 1u);
  const std::size_t rd = result->dimension_count() - 1;
  auto pairs = result->relation(rd).ForFact(result->facts()[0]);
  EXPECT_DOUBLE_EQ(
      *result->dimension(rd).NumericValueOf(pairs.front()->value), 0.4);
}

TEST(AggregateFormationTest, GroupingArityValidated) {
  MdObject mo = BuildSnapshotPatientMo();
  AggregateSpec spec{AggFunction::SetCount(), {0, 0},
                     ResultDimensionSpec::Auto(), kNowChronon, true};
  EXPECT_FALSE(AggregateFormation(mo, spec).ok());
}

// ---- FoldAggregateAppend ---------------------------------------------------

/// Valid during `valid`, recorded from `recorded` on.
Lifespan Bitemporal(const std::string& valid, const std::string& recorded) {
  return Lifespan{TemporalElement(*Interval::Parse(valid)),
                  TemporalElement(Interval(Day(recorded), kNowChronon))};
}

/// A bitemporal Patient MO over the case-study Diagnosis dimension and
/// the Age dimension, with no patients yet. Diagnosis is non-strict
/// (low-level 3, 5 and 6 each roll up to two families) and patients
/// relate to several diagnoses, some registered at family granularity.
MdObject BuildBitemporalPatientMo() {
  return MdObject("Patient", {BuildDiagnosisDimension(), BuildAgeDimension()},
                  std::make_shared<FactRegistry>(), TemporalType::kBitemporal);
}

/// Appends patient `id` with `diagnoses` and one age reading — two, under
/// different transaction times, for every third patient. Later patients'
/// ages are valid for shorter periods, so every appended member narrows
/// the Section 4.2 result lifespan of the groups it joins.
FactId AddPatient(MdObject& mo, std::uint64_t id,
                  const std::vector<std::uint64_t>& diagnoses) {
  const FactId patient = mo.registry()->Atom(id);
  EXPECT_TRUE(mo.AddFact(patient).ok());
  for (std::size_t d = 0; d < diagnoses.size(); ++d) {
    const std::string recorded = StrCat("0", 1 + (id + d) % 9, "/01/9", d);
    EXPECT_TRUE(mo.Relate(0, patient, ValueId(diagnoses[d]),
                          Bitemporal(d % 2 == 0 ? "[01/01/80-NOW]"
                                                : "[01/06/82-31/12/95]",
                                     recorded))
                    .ok());
  }
  const std::uint64_t age = 20 + (id * 7) % 60;
  const std::string valid = StrCat("[01/01/80-31/12/", 99 - id, "]");
  EXPECT_TRUE(mo.Relate(1, patient, ValueId(age), Bitemporal(valid, "01/01/90"))
                  .ok());
  if (id % 3 == 0) {
    EXPECT_TRUE(
        mo.Relate(1, patient, ValueId(age + 1), Bitemporal(valid, "01/01/95"))
            .ok());
  }
  return patient;
}

std::string Bytes(const Result<MdObject>& result) {
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return "";
  auto bytes = io::WriteMo(*result);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : "";
}

AggregateSpec FoldSpec(const MdObject& mo, AggFunction function,
                       const char* diagnosis_category,
                       const char* age_category) {
  AggregateSpec spec{std::move(function), {}, ResultDimensionSpec::Auto(),
                     kNowChronon, true};
  spec.grouping = {*mo.dimension(0).type().Find(diagnosis_category),
                   *mo.dimension(1).type().Find(age_category)};
  return spec;
}

TEST(FoldAggregateAppendTest, FoldsMatchFromScratchFormationBytes) {
  MdObject mo = BuildBitemporalPatientMo();
  // Diagnosis 6 (families 4 and 10) and the fact-less ages 90+ appear
  // only in the deltas, so they create groups; families 7 and 8 (via 3
  // and 8) appear only in the captured run, so those groups stay
  // untouched; families 4 and 9 are extended.
  const std::vector<std::vector<std::uint64_t>> initial = {
      {3}, {5, 9}, {3, 8}, {9}, {5}, {8, 9}, {3, 5}, {9}, {5, 3}};
  for (std::uint64_t p = 0; p < initial.size(); ++p) {
    AddPatient(mo, p + 1, initial[p]);
  }
  const std::vector<std::vector<std::vector<std::uint64_t>>> deltas = {
      {{6}, {9}, {5, 6}}, {{9, 6}, {}, {5}}};

  const std::vector<AggFunction> functions = {
      AggFunction::Sum(1), AggFunction::Count(1), AggFunction::Min(1),
      AggFunction::Max(1), AggFunction::SetCount()};
  const std::vector<std::pair<const char*, const char*>> groupings = {
      {"Diagnosis Family", "Age"},
      {"Diagnosis Family", "Ten-year Group"},
      {"Diagnosis Group", "Ten-year Group"}};
  struct Entry {
    AggregateSpec spec;
    AggregateFoldState state;  // context-free fold chain
    AggregateFoldState exec_state;  // fold chain under an ExecContext
  };
  std::vector<Entry> entries;
  for (const AggFunction& function : functions) {
    for (const auto& [diagnosis, age] : groupings) {
      Entry entry{FoldSpec(mo, function, diagnosis, age), {}, {}};
      AggregateSpec capture = entry.spec;
      capture.capture = &entry.state;
      ASSERT_TRUE(AggregateFormation(mo, capture).ok());
      ASSERT_TRUE(entry.state.valid);
      entry.exec_state = entry.state;
      entries.push_back(std::move(entry));
    }
  }

  std::uint64_t next_id = initial.size() + 1;
  for (const auto& delta : deltas) {
    std::size_t created = 0;
    std::size_t extended = 0;
    std::size_t untouched = 0;
    std::vector<FactId> delta_facts;
    for (const std::vector<std::uint64_t>& diagnoses : delta) {
      delta_facts.push_back(AddPatient(mo, next_id++, diagnoses));
    }
    for (Entry& entry : entries) {
      SCOPED_TRACE(entry.spec.function.name());
      const std::string scratch =
          Bytes(ReferenceAggregateFormation(mo, entry.spec));
      ASSERT_FALSE(scratch.empty());

      AggregateFoldState refreshed;
      AggregateSpec spec = entry.spec;
      spec.capture = &refreshed;
      EXPECT_EQ(Bytes(FoldAggregateAppend(mo, spec, entry.state, delta_facts)),
                scratch);
      ASSERT_TRUE(refreshed.valid);
      for (const AggregateFoldState::Group& group : refreshed.groups) {
        auto old = std::find_if(
            entry.state.groups.begin(), entry.state.groups.end(),
            [&](const auto& g) { return g.key == group.key; });
        if (old == entry.state.groups.end()) {
          ++created;
        } else if (old->member_count < group.member_count) {
          ++extended;
        } else {
          ++untouched;
        }
      }
      entry.state = std::move(refreshed);

      ExecContext ctx(2, /*min_facts=*/1);
      AggregateFoldState exec_refreshed;
      spec.capture = &exec_refreshed;
      EXPECT_EQ(Bytes(FoldAggregateAppend(mo, spec, entry.exec_state,
                                          delta_facts, &ctx)),
                scratch);
      EXPECT_EQ(ctx.stats.aggregate_folds, 1u);
      entry.exec_state = std::move(exec_refreshed);
    }
    EXPECT_GT(created, 0u);
    EXPECT_GT(extended, 0u);
    EXPECT_GT(untouched, 0u);
  }
}

/// A many-to-many Patient MO over a non-strict Diagnosis hierarchy with
/// non-dyadic containment probabilities (low-level 11 and 12 each roll
/// up to families 21 and 22) and a Dose dimension with non-dyadic
/// numbers. The test's values are chosen so that the probability
/// products and the SUM totals of the extended families change in their
/// last bits when the delta is folded as a separate partial instead of
/// member by member.
MdObject BuildProbabilisticDoseMo() {
  DimensionTypeBuilder diagnosis_type("Diagnosis");
  diagnosis_type.AddCategory("Low-level", AggregationType::kConstant);
  diagnosis_type.AddCategory("Family", AggregationType::kConstant);
  diagnosis_type.AddOrder("Low-level", "Family");
  Dimension diagnosis(std::move(diagnosis_type.Build()).ValueOrDie());
  const CategoryTypeIndex low = *diagnosis.type().Find("Low-level");
  const CategoryTypeIndex family = *diagnosis.type().Find("Family");
  for (std::uint64_t v : {11, 12, 13, 14}) {
    EXPECT_TRUE(diagnosis.AddValue(low, ValueId(v)).ok());
  }
  for (std::uint64_t v : {21, 22, 23}) {
    EXPECT_TRUE(diagnosis.AddValue(family, ValueId(v)).ok());
  }
  const Lifespan always = Lifespan::AlwaysSpan();
  EXPECT_TRUE(diagnosis.AddOrder(ValueId(11), ValueId(21), always, 0.1).ok());
  EXPECT_TRUE(diagnosis.AddOrder(ValueId(11), ValueId(22), always, 0.7).ok());
  EXPECT_TRUE(diagnosis.AddOrder(ValueId(12), ValueId(21), always, 0.3).ok());
  EXPECT_TRUE(diagnosis.AddOrder(ValueId(12), ValueId(22), always, 0.7).ok());
  EXPECT_TRUE(diagnosis.AddOrder(ValueId(13), ValueId(22), always, 0.3).ok());
  EXPECT_TRUE(diagnosis.AddOrder(ValueId(14), ValueId(23), always, 0.7).ok());

  DimensionTypeBuilder dose_type("Dose");
  dose_type.AddCategory("Dose", AggregationType::kSum);
  Dimension dose(std::move(dose_type.Build()).ValueOrDie());
  const CategoryTypeIndex bottom = dose.type().bottom();
  Representation& rep = dose.RepresentationFor(bottom, "Value");
  const std::vector<std::pair<std::uint64_t, const char*>> doses = {
      {31, "0.1"}, {32, "0.2"}, {33, "0.7"}, {34, "1.3"}};
  for (const auto& [id, text] : doses) {
    EXPECT_TRUE(dose.AddValue(bottom, ValueId(id)).ok());
    EXPECT_TRUE(rep.Set(ValueId(id), text).ok());
  }
  return MdObject("Patient", {std::move(diagnosis), std::move(dose)},
                  std::make_shared<FactRegistry>());
}

/// Appends patient `id` with (diagnosis, probability) pairs and doses.
FactId AddDosedPatient(
    MdObject& mo, std::uint64_t id,
    const std::vector<std::pair<std::uint64_t, double>>& diagnoses,
    const std::vector<std::uint64_t>& doses) {
  const FactId patient = mo.registry()->Atom(id);
  EXPECT_TRUE(mo.AddFact(patient).ok());
  for (const auto& [diagnosis, prob] : diagnoses) {
    EXPECT_TRUE(mo.Relate(0, patient, ValueId(diagnosis),
                          Lifespan::AlwaysSpan(), prob)
                    .ok());
  }
  for (std::uint64_t dose : doses) {
    EXPECT_TRUE(mo.Relate(1, patient, ValueId(dose)).ok());
  }
  return patient;
}

TEST(FoldAggregateAppendTest, ProbabilisticFoldMatchesTheReference) {
  const std::vector<AggFunction> functions = {
      AggFunction::Sum(1), AggFunction::Count(1), AggFunction::Min(1),
      AggFunction::Max(1), AggFunction::SetCount()};
  for (const AggFunction& function : functions) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(StrCat(function.name(), " captured at threads=", threads));
      MdObject mo = BuildProbabilisticDoseMo();
      AddDosedPatient(mo, 1, {{11, 0.7}, {12, 0.3}}, {31});
      AddDosedPatient(mo, 2, {{12, 1.0}}, {32, 33});
      AddDosedPatient(mo, 3, {{13, 0.1}}, {33});
      AddDosedPatient(mo, 4, {{11, 1.0}}, {34});
      AggregateSpec spec{function, {}, ResultDimensionSpec::Auto(),
                         kNowChronon, true};
      spec.grouping = {*mo.dimension(0).type().Find("Family"),
                       mo.dimension(1).type().top()};
      AggregateFoldState state;
      AggregateSpec capture = spec;
      capture.capture = &state;
      ExecContext ctx(threads, /*min_facts=*/1);
      ASSERT_TRUE(AggregateFormation(mo, capture, &ctx).ok());
      ASSERT_TRUE(state.valid);

      // Patients 5 and 6 both join captured family 21 (and 22); patient 7
      // opens family 23.
      const std::vector<FactId> delta = {
          AddDosedPatient(mo, 5, {{11, 0.3}}, {32}),
          AddDosedPatient(mo, 6, {{12, 0.7}}, {31, 34}),
          AddDosedPatient(mo, 7, {{14, 0.3}}, {33})};
      AggregateFoldState refreshed;
      AggregateSpec fold = spec;
      fold.capture = &refreshed;
      const std::string folded =
          Bytes(FoldAggregateAppend(mo, fold, state, delta));
      EXPECT_EQ(folded, Bytes(ReferenceAggregateFormation(mo, spec)));
      ASSERT_EQ(refreshed.groups.size(), state.groups.size() + 1);
      const auto family_21 = [](const AggregateFoldState& s) {
        return std::find_if(s.groups.begin(), s.groups.end(),
                            [](const AggregateFoldState::Group& g) {
                              return g.key[0] == ValueId(21);
                            })
            ->member_count;
      };
      EXPECT_EQ(family_21(refreshed), family_21(state) + 2);
    }
  }
}

TEST(FoldAggregateAppendTest, UnfoldableRequestsReturnErrors) {
  MdObject mo = BuildBitemporalPatientMo();
  for (std::uint64_t p = 1; p <= 6; ++p) AddPatient(mo, p, {5, 9});
  const auto capture = [&](AggregateSpec spec, AggregateFoldState* state) {
    spec.capture = state;
    ASSERT_TRUE(AggregateFormation(mo, spec).ok());
    ASSERT_TRUE(state->valid);
  };
  const AggregateSpec sum = FoldSpec(mo, AggFunction::Sum(1),
                                     "Diagnosis Family", "Ten-year Group");
  AggregateSpec avg = sum;
  avg.function = AggFunction::Avg(1);
  AggregateSpec expected = sum;
  expected.function = AggFunction::SetCount();
  expected.expected_counts = true;
  AggregateFoldState sum_state;
  AggregateFoldState avg_state;
  AggregateFoldState expected_state;
  capture(sum, &sum_state);
  capture(avg, &avg_state);
  capture(expected, &expected_state);

  const FactId f7 = AddPatient(mo, 7, {9});
  const FactId f8 = AddPatient(mo, 8, {6});
  ASSERT_TRUE(FoldAggregateAppend(mo, sum, sum_state, {f7, f8}).ok());
  // AVG re-divides and expected counts re-weigh every member.
  EXPECT_FALSE(FoldAggregateAppend(mo, avg, avg_state, {f7, f8}).ok());
  EXPECT_FALSE(
      FoldAggregateAppend(mo, expected, expected_state, {f7, f8}).ok());
  // The delta must ascend.
  EXPECT_FALSE(FoldAggregateAppend(mo, sum, sum_state, {f8, f7}).ok());
  // An edge from a pre-existing child changes existing closures.
  Dimension& diagnosis = mo.dimension_mutable(0);
  const std::uint64_t structural = diagnosis.structural_version();
  ASSERT_TRUE(diagnosis
                  .AddOrder(ValueId(5), ValueId(10),
                            During("[01/01/80-NOW]"))
                  .ok());
  ASSERT_NE(diagnosis.structural_version(), structural);
  EXPECT_FALSE(FoldAggregateAppend(mo, sum, sum_state, {f7, f8}).ok());
}

TEST(FoldAggregateAppendTest, EdgeUnderACapturedValueRefusesTheFold) {
  // A hierarchy built by appends only: every value is past the append
  // watermark, so a later edge under the captured leaf still classes as
  // an append and leaves the structural version alone.
  DimensionTypeBuilder builder("Code");
  builder.AddCategory("Leaf", AggregationType::kConstant)
      .AddCategory("Family", AggregationType::kConstant)
      .AddOrder("Leaf", "Family");
  Dimension dimension(std::move(builder.Build()).ValueOrDie());
  const CategoryTypeIndex leaf = *dimension.type().Find("Leaf");
  const CategoryTypeIndex family = *dimension.type().Find("Family");
  ASSERT_TRUE(dimension.AddValue(leaf, ValueId(1)).ok());
  ASSERT_TRUE(dimension.AddValue(family, ValueId(10)).ok());
  ASSERT_TRUE(dimension.AddValue(family, ValueId(11)).ok());
  ASSERT_TRUE(dimension.AddOrder(ValueId(1), ValueId(10)).ok());
  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Patient", {std::move(dimension)}, registry);
  const FactId patient = registry->Atom(1);
  ASSERT_TRUE(mo.AddFact(patient).ok());
  ASSERT_TRUE(mo.Relate(0, patient, ValueId(1)).ok());

  AggregateSpec spec{AggFunction::SetCount(), {family},
                     ResultDimensionSpec::Auto(), kNowChronon, true};
  AggregateFoldState state;
  AggregateSpec capture = spec;
  capture.capture = &state;
  ASSERT_TRUE(AggregateFormation(mo, capture).ok());
  ASSERT_TRUE(state.valid);

  Dimension& codes = mo.dimension_mutable(0);
  const std::uint64_t structural = codes.structural_version();
  ASSERT_TRUE(codes.AddOrder(ValueId(1), ValueId(11)).ok());
  ASSERT_EQ(codes.structural_version(), structural);

  // The old fact now also joins family 11. A fold that cannot see it
  // must refuse, and the caller's rescan gives the formation's bytes.
  const std::string scratch = Bytes(ReferenceAggregateFormation(mo, spec));
  Result<MdObject> folded = FoldAggregateAppend(mo, spec, state, {});
  EXPECT_FALSE(folded.ok());
  EXPECT_EQ(Bytes(folded.ok() ? std::move(folded)
                              : AggregateFormation(mo, spec)),
            scratch);

  // A leaf added after the capture may gain its edges in the same
  // batch that appends its fact: the old facts keep their coordinates,
  // so that still folds.
  AggregateFoldState fresh_state;
  capture.capture = &fresh_state;
  ASSERT_TRUE(AggregateFormation(mo, capture).ok());
  const ValueId fresh = *codes.AddValueAuto(leaf);
  ASSERT_TRUE(codes.AddOrder(fresh, ValueId(11)).ok());
  ASSERT_EQ(codes.structural_version(), structural);
  const FactId newcomer = registry->Atom(2);
  ASSERT_TRUE(mo.AddFact(newcomer).ok());
  ASSERT_TRUE(mo.Relate(0, newcomer, fresh).ok());
  EXPECT_EQ(Bytes(FoldAggregateAppend(mo, spec, fresh_state, {newcomer})),
            Bytes(ReferenceAggregateFormation(mo, spec)));
}

}  // namespace
}  // namespace mddc
