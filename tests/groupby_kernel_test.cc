#include "engine/groupby_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "algebra/predicate.h"
#include "common/strings.h"
#include "core/properties.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "relational/algebra.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for the dense-slot / flat-hash group-by kernels
// (docs/groupby_kernel.md): differential proof against the context-free
// ordered-map baseline over schemas forcing each rung of the fallback
// ladder, exact behaviour at the slot-threshold boundary, 50x
// byte-identity at 1/2/8 threads through the dense kernel, the fused
// multi-function AggregateStream against one baseline formation per
// function, parallel runs of the shapes Section 3.4 rejects (and of a
// fold-state capture), the per-version numeric argument column, the one
// coordinate path (ancestor runs) and the target-only WHERE leaves
// against MdObject::CharacterizedBy, the NaN-payload result-interning
// regression, and the relational flat-hash engine against its own
// baseline.

namespace mddc {
namespace {

using testing_fixtures::BuildDiagnosisDimension;
using testing_fixtures::BuildReclassifiedDiagnosisDimension;
using testing_fixtures::Day;
using testing_fixtures::During;

RetailMo BuildRetail(std::uint32_t seed = 7, std::size_t purchases = 300) {
  RetailWorkloadParams params;
  params.seed = seed;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

ClinicalMo BuildClinical(std::uint32_t seed = 42,
                         std::size_t patients = 150) {
  ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = patients;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

std::vector<CategoryTypeIndex> GroupingAt(const MdObject& mo,
                                          std::size_t dim,
                                          CategoryTypeIndex category) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(i == dim ? category : mo.dimension(i).type().top());
  }
  return grouping;
}

AggregateSpec SpecFor(const AggFunction& function,
                      std::vector<CategoryTypeIndex> grouping) {
  return AggregateSpec{function, std::move(grouping),
                       ResultDimensionSpec::Auto(), kNowChronon,
                       /*enforce_aggregation_types=*/true};
}

std::string BaselineBytes(const MdObject& mo, const AggregateSpec& spec) {
  auto baseline = ReferenceAggregateFormation(mo, spec);
  EXPECT_TRUE(baseline.ok()) << baseline.status();
  auto bytes = io::WriteMo(*baseline);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

// ---- Engine-selection ladder, differential against the baseline -----------

TEST(GroupByKernelTest, StrictSchemaRunsDenseAndMatchesBaseline) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(retail.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  // Strict, non-temporal product hierarchy: every grouping dimension is
  // flat-table covered (or at top) and the slot space is tiny.
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 1u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 0u);
  EXPECT_EQ(ctx.stats.dense_slot_fallbacks, 0u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

TEST(GroupByKernelTest, NonStrictSchemaUsesFlatHashAndMatchesBaseline) {
  ClinicalMo clinical = BuildClinical();
  AggregateSpec spec = SpecFor(
      AggFunction::SetCount(),
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family));
  const std::string baseline = BaselineBytes(clinical.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(clinical.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  // The non-strict, temporal diagnosis hierarchy fails the flat-table
  // gate, so the dense engine cannot compose slots.
  EXPECT_GT(ctx.stats.index_fallbacks, 0u);
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  EXPECT_EQ(ctx.stats.dense_slot_fallbacks, 0u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

TEST(GroupByKernelTest, TemporalEdgeForcesFlatHashAndMatchesBaseline) {
  // One temporal containment edge in an otherwise strict hierarchy fails
  // the snapshot's flat-table gate — a different fallback cause than
  // non-strictness, same flat-hash rung.
  RetailMo retail = BuildRetail();
  Dimension& products = retail.mo.dimension_mutable(retail.product_dim);
  const ValueId category_value = products.ValuesIn(retail.category).front();
  ASSERT_TRUE(products.AddValue(retail.product, ValueId(999983)).ok());
  ASSERT_TRUE(products
                  .AddOrder(ValueId(999983), category_value,
                            During("[01/01/80-NOW]"))
                  .ok());
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(retail.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(ctx.stats.index_fallbacks, 0u);
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

// ---- Slot-threshold boundary ----------------------------------------------

TEST(GroupByKernelTest, ThresholdBoundaryExactFitStaysDense) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);
  // Only the product dimension contributes digits (the rest group at
  // top), so the slot space is exactly the category's cardinality.
  const std::uint64_t slots = retail.mo.dimension(retail.product_dim)
                                  .ValuesIn(retail.category)
                                  .size();
  ASSERT_GT(slots, 1u);

  ExecContext exact(2, /*min_facts=*/1);
  exact.max_dense_groupby_slots = slots;
  auto at_limit = AggregateFormation(retail.mo, spec, &exact);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(exact.stats.dense_groupby_runs, 1u);
  EXPECT_EQ(exact.stats.dense_slot_fallbacks, 0u);
  auto exact_bytes = io::WriteMo(*at_limit);
  ASSERT_TRUE(exact_bytes.ok());
  EXPECT_EQ(*exact_bytes, baseline);

  ExecContext over(2, /*min_facts=*/1);
  over.max_dense_groupby_slots = slots - 1;
  auto one_over = AggregateFormation(retail.mo, spec, &over);
  ASSERT_TRUE(one_over.ok()) << one_over.status();
  EXPECT_EQ(over.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(over.stats.dense_slot_fallbacks, 1u);
  EXPECT_EQ(over.stats.flat_hash_runs, 1u);
  auto over_bytes = io::WriteMo(*one_over);
  ASSERT_TRUE(over_bytes.ok());
  EXPECT_EQ(*over_bytes, baseline);
}

// ---- Repeated-run byte-identity across thread counts ----------------------

TEST(GroupByKernelTest, FiftyDenseRunsAreByteIdenticalAcrossThreads) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.price_dim),
              GroupingAt(retail.mo, retail.store_dim, retail.city));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (int run = 0; run < 50; ++run) {
      ExecContext ctx(threads, /*min_facts=*/1);
      auto result = AggregateFormation(retail.mo, spec, &ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(ctx.stats.dense_groupby_runs, 1u);
      auto bytes = io::WriteMo(*result);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(*bytes, baseline)
          << "dense kernel diverged at threads=" << threads
          << " run=" << run;
    }
  }
}

TEST(GroupByKernelTest, FiftyFlatHashRunsAreByteIdenticalAcrossThreads) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (int run = 0; run < 50; ++run) {
      ExecContext ctx(threads, /*min_facts=*/1);
      ctx.max_dense_groupby_slots = 0;  // force the flat-hash engine
      auto result = AggregateFormation(retail.mo, spec, &ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(ctx.stats.flat_hash_runs, 1u);
      ASSERT_EQ(ctx.stats.dense_slot_fallbacks, 1u);
      auto bytes = io::WriteMo(*result);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(*bytes, baseline)
          << "flat-hash kernel diverged at threads=" << threads
          << " run=" << run;
    }
  }
}

// ---- Fused multi-function stream ------------------------------------------

/// Per distinct member set: the grouping values of every live dimension
/// and the result text of one function. AggregateFormation interns each
/// group as a set-fact, so groups sharing a member set are one result
/// fact there and merge here.
using RenderedGroups =
    std::map<std::vector<FactId>,
             std::pair<std::vector<std::set<ValueId>>, std::string>>;

std::vector<std::size_t> LiveDims(const MdObject& mo,
                                  const std::vector<CategoryTypeIndex>& g) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    if (g[i] != mo.dimension(i).type().top()) live.push_back(i);
  }
  return live;
}

RenderedGroups RenderStream(const std::vector<StreamGroup>& groups,
                            std::size_t live_count, std::size_t function) {
  RenderedGroups rendered;
  for (const StreamGroup& group : groups) {
    EXPECT_TRUE(std::is_sorted(group.member_facts.begin(),
                               group.member_facts.end()));
    auto& [keys, text] = rendered[group.member_facts];
    keys.resize(live_count);
    for (std::size_t j = 0; j < live_count; ++j) keys[j].insert(group.key[j]);
    text = FormatDouble(group.values[function]);
  }
  return rendered;
}

RenderedGroups RenderFormation(const MdObject& result,
                               const std::vector<std::size_t>& live) {
  RenderedGroups rendered;
  const std::size_t n = result.dimension_count() - 1;
  const Dimension& result_dim = result.dimension(n);
  const Representation* rep =
      *result_dim.FindRepresentation(result_dim.type().bottom(), "Value");
  for (FactId fact : result.facts()) {
    auto term = result.registry()->Get(fact);
    EXPECT_TRUE(term.ok()) << term.status();
    const std::span<const FactId> members = term->members();
    auto& [keys, text] =
        rendered[std::vector<FactId>(members.begin(), members.end())];
    keys.resize(live.size());
    for (std::size_t j = 0; j < live.size(); ++j) {
      const FactDimRelation& relation = result.relation(live[j]);
      for (std::size_t e : relation.EntryIndexesForFact(fact)) {
        keys[j].insert(relation.entries()[e].value);
      }
    }
    const FactDimRelation& values = result.relation(n);
    for (std::size_t e : values.EntryIndexesForFact(fact)) {
      text = *rep->Get(values.entries()[e].value);
    }
  }
  return rendered;
}

/// `mo` with only the facts `keep` marks — what a materialized Select
/// would hand the formation.
MdObject Kept(const MdObject& mo, const std::vector<bool>* keep) {
  MdObject kept = mo;
  if (keep == nullptr) return kept;
  for (std::size_t f = 0; f < mo.facts().size(); ++f) {
    if (!(*keep)[f]) {
      EXPECT_TRUE(kept.RemoveFact(mo.facts()[f]).ok());
    }
  }
  return kept;
}

/// Runs `spec` through AggregateStream at 1, 2 and 8 threads and checks
/// every function against one context-free AggregateFormation per
/// function over the kept facts. `configure` adjusts each context;
/// `check_stats` inspects it after the run.
template <typename Configure, typename CheckStats>
void ExpectStreamMatchesBaseline(const MdObject& mo, const StreamSpec& spec,
                                 Configure configure,
                                 CheckStats check_stats) {
  const MdObject kept = Kept(mo, spec.keep);
  const std::vector<std::size_t> live = LiveDims(mo, spec.grouping);
  std::vector<RenderedGroups> baseline;
  for (const AggFunction& function : spec.functions) {
    AggregateSpec one{function, spec.grouping, ResultDimensionSpec::Auto(),
                      spec.prob_at, spec.enforce_aggregation_types};
    auto result = ReferenceAggregateFormation(kept, one);
    ASSERT_TRUE(result.ok()) << result.status();
    baseline.push_back(RenderFormation(*result, live));
    ASSERT_FALSE(baseline.back().empty());
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    configure(ctx);
    auto groups = AggregateStream(mo, spec, &ctx);
    ASSERT_TRUE(groups.ok()) << groups.status();
    check_stats(ctx.stats, threads);
    for (std::size_t k = 0; k < spec.functions.size(); ++k) {
      EXPECT_EQ(RenderStream(*groups, live.size(), k), baseline[k])
          << spec.functions[k].name() << " diverged at threads=" << threads;
    }
  }
}

/// SUM/MIN/MAX share one accumulator class on the amount dimension,
/// COUNT reads pairs on it, SUM(price) is a second value class and
/// SetCount needs none — all distributive, so the parallel path runs.
std::vector<AggFunction> RetailFunctions(const RetailMo& retail) {
  return {AggFunction::Sum(retail.amount_dim),
          AggFunction::Count(retail.amount_dim),
          AggFunction::SetCount(),
          AggFunction::Min(retail.amount_dim),
          AggFunction::Sum(retail.price_dim),
          AggFunction::Max(retail.amount_dim)};
}

/// Two live axes (the rest grouped at top) over `keep`.
StreamSpec RetailStream(const RetailMo& retail, const std::vector<bool>* keep) {
  StreamSpec spec;
  spec.functions = RetailFunctions(retail);
  spec.grouping = GroupingAt(retail.mo, retail.product_dim, retail.category);
  spec.grouping[retail.store_dim] = retail.city;
  spec.keep = keep;
  return spec;
}

std::vector<bool> EveryThirdDropped(const MdObject& mo) {
  std::vector<bool> keep(mo.facts().size());
  for (std::size_t f = 0; f < keep.size(); ++f) keep[f] = f % 3 != 0;
  return keep;
}

TEST(GroupByKernelTest, StreamOnStrictSchemaRunsDenseAndMatchesBaseline) {
  RetailMo retail = BuildRetail();
  const std::vector<bool> keep = EveryThirdDropped(retail.mo);
  for (const std::vector<bool>* mask :
       {static_cast<const std::vector<bool>*>(nullptr), &keep}) {
    ExpectStreamMatchesBaseline(
        retail.mo, RetailStream(retail, mask), [](ExecContext&) {},
        [](const ExecStats& stats, std::size_t threads) {
          EXPECT_EQ(stats.dense_groupby_runs, 1u);
          EXPECT_EQ(stats.flat_hash_runs, 0u);
          EXPECT_EQ(stats.parallel_runs, threads > 1 ? 1u : 0u);
        });
  }
  // AVG joins the SUM/MIN/MAX class. It is not distributive, but the
  // core never combines partials, so the stream still runs parallel.
  StreamSpec with_avg = RetailStream(retail, &keep);
  with_avg.functions.insert(with_avg.functions.begin() + 1,
                            AggFunction::Avg(retail.amount_dim));
  ExpectStreamMatchesBaseline(
      retail.mo, with_avg, [](ExecContext&) {},
      [](const ExecStats& stats, std::size_t threads) {
        EXPECT_EQ(stats.dense_groupby_runs, 1u);
        EXPECT_EQ(stats.parallel_runs, threads > 1 ? 1u : 0u);
        EXPECT_EQ(stats.sequential_fallbacks, 0u);
      });
}

TEST(GroupByKernelTest, StreamForcedOntoFlatHashMatchesBaseline) {
  RetailMo retail = BuildRetail();
  const std::vector<bool> keep = EveryThirdDropped(retail.mo);
  ExpectStreamMatchesBaseline(
      retail.mo, RetailStream(retail, &keep),
      [](ExecContext& ctx) { ctx.max_dense_groupby_slots = 0; },
      [](const ExecStats& stats, std::size_t threads) {
        EXPECT_EQ(stats.dense_groupby_runs, 0u);
        EXPECT_EQ(stats.flat_hash_runs, 1u);
        EXPECT_EQ(stats.dense_slot_fallbacks, 1u);
        EXPECT_EQ(stats.parallel_runs, threads > 1 ? 1u : 0u);
      });
}

TEST(GroupByKernelTest, StreamOnNonStrictSchemaUsesFlatHashAndMatchesBaseline) {
  ClinicalMo clinical = BuildClinical();
  StreamSpec spec;
  spec.functions = {AggFunction::SetCount(),
                    AggFunction::Count(clinical.diagnosis_dim),
                    AggFunction::Count(clinical.residence_dim)};
  spec.grouping =
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family);
  spec.grouping[clinical.residence_dim] = clinical.county;
  const std::vector<bool> keep = EveryThirdDropped(clinical.mo);
  spec.keep = &keep;
  ExpectStreamMatchesBaseline(
      clinical.mo, spec, [](ExecContext&) {},
      [](const ExecStats& stats, std::size_t threads) {
        EXPECT_GT(stats.index_fallbacks, 0u);
        EXPECT_EQ(stats.dense_groupby_runs, 0u);
        EXPECT_EQ(stats.flat_hash_runs, 1u);
        // Non-strict groupings fail Section 3.4, which decides result
        // typing, not the engine: the stream runs parallel.
        EXPECT_EQ(stats.parallel_runs, threads > 1 ? 1u : 0u);
        EXPECT_EQ(stats.sequential_fallbacks, 0u);
      });
}

TEST(GroupByKernelTest, StreamOverTemporalEdgeUsesFlatHashAndMatchesBaseline) {
  RetailMo retail = BuildRetail();
  Dimension& products = retail.mo.dimension_mutable(retail.product_dim);
  const ValueId category_value = products.ValuesIn(retail.category).front();
  ASSERT_TRUE(products.AddValue(retail.product, ValueId(999983)).ok());
  ASSERT_TRUE(products
                  .AddOrder(ValueId(999983), category_value,
                            During("[01/01/80-NOW]"))
                  .ok());
  const std::vector<bool> keep = EveryThirdDropped(retail.mo);
  ExpectStreamMatchesBaseline(
      retail.mo, RetailStream(retail, &keep), [](ExecContext&) {},
      [](const ExecStats& stats, std::size_t) {
        EXPECT_GT(stats.index_fallbacks, 0u);
        EXPECT_EQ(stats.dense_groupby_runs, 0u);
        EXPECT_EQ(stats.flat_hash_runs, 1u);
      });
}

/// The first error running the functions one context-free formation at a
/// time would hit.
Status FirstBaselineError(const MdObject& mo, const StreamSpec& spec) {
  for (const AggFunction& function : spec.functions) {
    AggregateSpec one{function, spec.grouping, ResultDimensionSpec::Auto(),
                      spec.prob_at, spec.enforce_aggregation_types};
    auto result = ReferenceAggregateFormation(mo, one);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

TEST(GroupByKernelTest, StreamErrorsSurfaceInFunctionMajorOrder) {
  RetailMo retail = BuildRetail();
  StreamSpec bad_dim = RetailStream(retail, nullptr);
  bad_dim.enforce_aggregation_types = false;
  bad_dim.functions = {AggFunction::Sum(retail.amount_dim),
                       AggFunction::Sum(99), AggFunction::SetCount()};
  // SUM over product names: no numeric interpretation, after a function
  // that succeeds.
  StreamSpec non_numeric = bad_dim;
  non_numeric.functions = {AggFunction::Sum(retail.amount_dim),
                           AggFunction::Sum(retail.product_dim),
                           AggFunction::Count(99)};
  for (const StreamSpec* spec : {&bad_dim, &non_numeric}) {
    const Status expected = FirstBaselineError(retail.mo, *spec);
    ASSERT_FALSE(expected.ok());
    for (std::size_t threads : {1u, 2u, 8u}) {
      ExecContext ctx(threads, /*min_facts=*/1);
      auto groups = AggregateStream(retail.mo, *spec, &ctx);
      ASSERT_FALSE(groups.ok());
      EXPECT_EQ(groups.status().ToString(), expected.ToString())
          << "threads=" << threads;
    }
  }
}

// ---- Shapes outside Section 3.4 --------------------------------------------

/// The doses of BuildDoseMo: ValueId(d) for d in 1..6.
constexpr std::uint64_t kDoses = 6;

/// Relates patient `id` of BuildDoseMo to one or two diagnoses (some
/// only valid for a while) and one dose — two for every fourth patient.
FactId AddDosePatient(MdObject& mo, std::uint64_t id) {
  static constexpr std::uint64_t kDiagnoses[] = {3, 5, 6, 9, 8, 4};
  const FactId patient = mo.registry()->Atom(id);
  EXPECT_TRUE(mo.AddFact(patient).ok());
  EXPECT_TRUE(mo.Relate(0, patient, ValueId(kDiagnoses[id % 6]),
                        During("[01/01/80-NOW]"))
                  .ok());
  if (id % 3 == 0) {
    EXPECT_TRUE(mo.Relate(0, patient, ValueId(kDiagnoses[(id + 1) % 6]),
                          During("[01/06/82-31/12/95]"))
                    .ok());
  }
  EXPECT_TRUE(mo.Relate(1, patient, ValueId(1 + id % kDoses)).ok());
  if (id % 4 == 0) {
    EXPECT_TRUE(mo.Relate(1, patient, ValueId(1 + (id + 2) % kDoses)).ok());
  }
  return patient;
}

/// A valid-time Patient MO over the case-study Diagnosis dimension
/// (non-strict, temporal edges, many-to-many) and a Dose measure whose
/// numeric representation changes on 01/01/85: dose d reads "d" before
/// and "d.5" after, so a SUM at 1982 and one at NOW differ.
MdObject BuildDoseMo(std::uint64_t patients) {
  DimensionTypeBuilder builder("Dose");
  builder.AddCategory("Dose", AggregationType::kSum);
  Dimension dose(std::move(builder.Build()).ValueOrDie());
  const CategoryTypeIndex bottom = dose.type().bottom();
  Representation& rep = dose.RepresentationFor(bottom, "Value");
  for (std::uint64_t d = 1; d <= kDoses; ++d) {
    EXPECT_TRUE(dose.AddValue(bottom, ValueId(d)).ok());
    EXPECT_TRUE(
        rep.Set(ValueId(d), StrCat(d), During("[01/01/70-31/12/84]")).ok());
    EXPECT_TRUE(
        rep.Set(ValueId(d), StrCat(d, ".5"), During("[01/01/85-NOW]")).ok());
  }
  MdObject mo("Patient", {BuildDiagnosisDimension(), std::move(dose)},
              std::make_shared<FactRegistry>(), TemporalType::kValidTime);
  for (std::uint64_t id = 1; id <= patients; ++id) AddDosePatient(mo, id);
  return mo;
}

/// Dose-MO grouping: diagnosis at `category`, dose at top.
std::vector<CategoryTypeIndex> DoseGrouping(const MdObject& mo,
                                            const char* category) {
  return {*mo.dimension(0).type().Find(category),
          mo.dimension(1).type().top()};
}

/// Runs `spec` through AggregateFormation at 1, 2 and 8 threads: every
/// multi-thread run must take the parallel path and serialize exactly
/// like the context-free formation.
void ExpectFormationRunsParallelAndMatches(const MdObject& mo,
                                           const AggregateSpec& spec) {
  const std::string baseline = BaselineBytes(mo, spec);
  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    auto result = AggregateFormation(mo, spec, &ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(ctx.stats.parallel_runs, threads > 1 ? 1u : 0u);
    EXPECT_EQ(ctx.stats.sequential_fallbacks, 0u);
    auto bytes = io::WriteMo(*result);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, baseline) << spec.function.name()
                                << " diverged at threads=" << threads;
  }
}

bool Summarizable(const MdObject& mo, const AggregateSpec& spec) {
  return CheckSummarizability(mo, spec.function.kind(), spec.grouping)
      .summarizable;
}

TEST(GroupByKernelTest, FormationShapesOutsideSection34RunParallelAndMatch) {
  // AVG: not distributive.
  RetailMo retail = BuildRetail();
  const AggregateSpec avg =
      SpecFor(AggFunction::Avg(retail.price_dim),
              GroupingAt(retail.mo, retail.store_dim, retail.city));
  EXPECT_FALSE(Summarizable(retail.mo, avg));
  ExpectFormationRunsParallelAndMatches(retail.mo, avg);

  // The clinical Diagnosis Family grouping: non-strict, many-to-many,
  // mixed-granularity registrations; then its expected counts.
  ClinicalMo clinical = BuildClinical();
  const std::vector<CategoryTypeIndex> family =
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family);
  AggregateSpec expected = SpecFor(AggFunction::SetCount(), family);
  expected.expected_counts = true;
  for (const AggregateSpec& spec :
       {SpecFor(AggFunction::SetCount(), family),
        SpecFor(AggFunction::Count(clinical.diagnosis_dim), family),
        expected}) {
    EXPECT_FALSE(Summarizable(clinical.mo, spec));
    ExpectFormationRunsParallelAndMatches(clinical.mo, spec);
  }

  // A temporal MO read at a chronon other than NOW.
  const MdObject doses = BuildDoseMo(40);
  for (const AggFunction& function :
       {AggFunction::Sum(1), AggFunction::Avg(1), AggFunction::Min(1),
        AggFunction::Max(1), AggFunction::Count(1), AggFunction::SetCount()}) {
    for (const char* category : {"Diagnosis Family", "Diagnosis Group"}) {
      AggregateSpec spec = SpecFor(function, DoseGrouping(doses, category));
      spec.prob_at = Day("01/06/82");
      EXPECT_FALSE(Summarizable(doses, spec));
      ExpectFormationRunsParallelAndMatches(doses, spec);
    }
  }
  AggregateSpec at_1982 =
      SpecFor(AggFunction::Sum(1), DoseGrouping(doses, "Diagnosis Family"));
  at_1982.prob_at = Day("01/06/82");
  AggregateSpec at_now = at_1982;
  at_now.prob_at = kNowChronon;
  EXPECT_NE(BaselineBytes(doses, at_1982), BaselineBytes(doses, at_now));
  // The snapshot now holds the 1982 column; NOW must get its own.
  ExpectFormationRunsParallelAndMatches(doses, at_now);
}

TEST(GroupByKernelTest, ParallelCaptureFoldsAnAppendLikeTheSequentialOne) {
  MdObject mo = BuildDoseMo(30);
  for (const AggFunction& function :
       {AggFunction::Sum(1), AggFunction::Min(1), AggFunction::SetCount()}) {
    SCOPED_TRACE(function.name());
    MdObject base = mo;
    const AggregateSpec spec =
        SpecFor(function, DoseGrouping(base, "Diagnosis Family"));
    EXPECT_FALSE(Summarizable(base, spec));
    AggregateFoldState sequential;
    AggregateSpec capture = spec;
    capture.capture = &sequential;
    ASSERT_TRUE(AggregateFormation(base, capture).ok());
    ASSERT_TRUE(sequential.valid);
    std::vector<AggregateFoldState> parallel(3);
    const std::size_t thread_counts[] = {1, 2, 8};
    for (std::size_t t = 0; t < 3; ++t) {
      ExecContext ctx(thread_counts[t], /*min_facts=*/1);
      capture.capture = &parallel[t];
      ASSERT_TRUE(AggregateFormation(base, capture, &ctx).ok());
      EXPECT_EQ(ctx.stats.parallel_runs, thread_counts[t] > 1 ? 1u : 0u);
      ASSERT_TRUE(parallel[t].valid);
    }

    std::vector<FactId> delta;
    for (std::uint64_t id = 31; id <= 36; ++id) {
      delta.push_back(AddDosePatient(base, id));
    }
    const std::string scratch = BaselineBytes(base, spec);
    auto folded = FoldAggregateAppend(base, spec, sequential, delta);
    ASSERT_TRUE(folded.ok()) << folded.status();
    const std::string sequential_fold = *io::WriteMo(*folded);
    EXPECT_EQ(sequential_fold, scratch);
    for (std::size_t t = 0; t < 3; ++t) {
      auto from_parallel = FoldAggregateAppend(base, spec, parallel[t], delta);
      ASSERT_TRUE(from_parallel.ok()) << from_parallel.status();
      EXPECT_EQ(*io::WriteMo(*from_parallel), sequential_fold)
          << "capture at threads=" << thread_counts[t] << " folds differently";
    }
  }
}

// ---- Numeric argument column ------------------------------------------------

TEST(GroupByKernelTest, NumericColumnFollowsTheDimensionVersion) {
  MdObject mo = BuildDoseMo(20);
  const AggregateSpec spec =
      SpecFor(AggFunction::Sum(1), DoseGrouping(mo, "Diagnosis Group"));
  // Runs `spec` under a 2-thread context against the context-free
  // formation and returns the numeric columns the run built.
  const auto run = [&]() -> std::size_t {
    ExecContext ctx(2, /*min_facts=*/1);
    auto result = AggregateFormation(mo, spec, &ctx);
    auto baseline = ReferenceAggregateFormation(mo, spec);
    EXPECT_EQ(result.ok(), baseline.ok());
    if (!result.ok() || !baseline.ok()) {
      EXPECT_EQ(result.status().ToString(), baseline.status().ToString());
    } else {
      EXPECT_EQ(*io::WriteMo(*result), *io::WriteMo(*baseline));
    }
    return ctx.stats.numeric_column_builds;
  };
  EXPECT_EQ(run(), 1u);
  EXPECT_EQ(run(), 0u) << "the column is memoized on the snapshot";
  const std::string before = BaselineBytes(mo, spec);

  // An append: a fresh dose with its own number, and a patient taking it.
  Dimension& dose = mo.dimension_mutable(1);
  const CategoryTypeIndex bottom = dose.type().bottom();
  ASSERT_TRUE(dose.AddValue(bottom, ValueId(7)).ok());
  ASSERT_TRUE(dose.RepresentationFor(bottom, "Value").Set(ValueId(7), "70").ok());
  const FactId taker = mo.registry()->Atom(21);
  ASSERT_TRUE(mo.AddFact(taker).ok());
  ASSERT_TRUE(mo.Relate(0, taker, ValueId(5)).ok());
  ASSERT_TRUE(mo.Relate(1, taker, ValueId(7)).ok());
  EXPECT_EQ(run(), 1u);
  EXPECT_NE(BaselineBytes(mo, spec), before);

  // A dose with no number yet fails the SUM; giving it one through
  // RepresentationFor moves the version, so the next run sees it.
  ASSERT_TRUE(dose.AddValue(bottom, ValueId(8)).ok());
  ASSERT_TRUE(mo.Relate(1, taker, ValueId(8)).ok());
  EXPECT_EQ(run(), 1u);
  ASSERT_FALSE(AggregateFormation(mo, spec).ok());
  ASSERT_TRUE(dose.RepresentationFor(bottom, "Value").Set(ValueId(8), "80").ok());
  EXPECT_EQ(run(), 1u);
  EXPECT_TRUE(AggregateFormation(mo, spec).ok());
}

TEST(GroupByKernelTest, NonNumericArgumentKeepsStatusAndFunctionMajorPlace) {
  // Dose 9 has a number only before 1985: at NOW the SUM over doses is
  // the first function to fail (MIN shares its class); at 1982 both
  // succeed and the SUM over diagnosis codes fails instead.
  MdObject mo = BuildDoseMo(24);
  Dimension& dose = mo.dimension_mutable(1);
  const CategoryTypeIndex bottom = dose.type().bottom();
  ASSERT_TRUE(dose.AddValue(bottom, ValueId(9)).ok());
  ASSERT_TRUE(dose.RepresentationFor(bottom, "Value")
                  .Set(ValueId(9), "9", During("[01/01/70-31/12/84]"))
                  .ok());
  const FactId taker = mo.registry()->Atom(25);
  ASSERT_TRUE(mo.AddFact(taker).ok());
  ASSERT_TRUE(mo.Relate(0, taker, ValueId(9)).ok());
  ASSERT_TRUE(mo.Relate(1, taker, ValueId(9)).ok());

  StreamSpec spec;
  spec.functions = {AggFunction::Count(1), AggFunction::Sum(1),
                    AggFunction::Min(1), AggFunction::Sum(0)};
  spec.grouping = DoseGrouping(mo, "Diagnosis Family");
  spec.enforce_aggregation_types = false;
  std::vector<std::string> texts;
  for (Chronon at : {kNowChronon, Day("01/06/82")}) {
    spec.prob_at = at;
    const Status expected = FirstBaselineError(mo, spec);
    ASSERT_FALSE(expected.ok());
    texts.push_back(expected.ToString());
    for (std::size_t threads : {1u, 2u, 8u}) {
      ExecContext ctx(threads, /*min_facts=*/1);
      auto groups = AggregateStream(mo, spec, &ctx);
      ASSERT_FALSE(groups.ok());
      EXPECT_EQ(groups.status().ToString(), expected.ToString())
          << "threads=" << threads;
    }
  }
  EXPECT_NE(texts[0], texts[1]);
}

TEST(GroupByKernelTest, SessionViewsOfOneEpochBuildTheNumericColumnOnce) {
  RetailMo retail = BuildRetail();
  StreamSpec spec;
  spec.functions = {AggFunction::Sum(retail.amount_dim),
                    AggFunction::Avg(retail.price_dim)};
  spec.grouping = GroupingAt(retail.mo, retail.product_dim, retail.category);
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("retail", std::move(retail.mo)).ok());
  const std::shared_ptr<const serve::MoSnapshot> snapshot = store.Pin();
  const MdObject& published = snapshot->Find("retail")->mo();

  // Two sessions' private views of the epoch, read concurrently.
  std::vector<MdObject> views;
  for (int v = 0; v < 2; ++v) {
    views.push_back(
        published.WithRegistry(FactRegistry::ForkOf(published.registry())));
  }
  ExecContext first(2, /*min_facts=*/1);
  ExecContext second(2, /*min_facts=*/1);
  ExecContext* contexts[] = {&first, &second};
  std::vector<Result<std::vector<StreamGroup>>> results(
      2, Status::NotImplemented("not run"));
  {
    std::vector<std::jthread> readers;
    for (std::size_t v = 0; v < 2; ++v) {
      readers.emplace_back([&, v] {
        results[v] = AggregateStream(views[v], spec, contexts[v]);
      });
    }
  }
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  ASSERT_TRUE(results[1].ok()) << results[1].status();
  ASSERT_EQ(results[0]->size(), results[1]->size());
  for (std::size_t g = 0; g < results[0]->size(); ++g) {
    EXPECT_EQ((*results[0])[g].values, (*results[1])[g].values);
  }
  // One column per argument dimension (amount, price) for the epoch, no
  // matter which view asked first; the snapshots were compiled at
  // publication.
  EXPECT_EQ(first.stats.numeric_column_builds +
                second.stats.numeric_column_builds,
            2u);
  EXPECT_EQ(first.stats.index_builds + second.stats.index_builds, 0u);
}

// ---- One coordinate path: ancestor runs against the characterization ------

/// Relates patient `id` of BuildReclassifiedMo to its diagnoses by the
/// pattern id % 6 — a bitemporal registration of the reclassified 13, two
/// witnesses of family 9 (a Family-granularity registration and a leaf
/// under it), the empty/non-empty witness pair of family 7, a patient
/// whose only witness of any family is empty, the old family 8 (whose
/// bridge to group 11 starts after it ends) beside leaf 6, and two
/// Family registrations — with uncertain entries throughout — and to one
/// or two wards.
FactId AddReclassifiedPatient(MdObject& mo, std::uint64_t id) {
  const FactId patient = mo.registry()->Atom(id);
  EXPECT_TRUE(mo.AddFact(patient).ok());
  const auto relate = [&](std::uint64_t value, const Lifespan& life,
                          double prob) {
    EXPECT_TRUE(mo.Relate(0, patient, ValueId(value), life, prob).ok());
  };
  switch (id % 6) {
    case 0:
      relate(13,
             Lifespan{TemporalElement(*Interval::Parse("[01/01/75-NOW]")),
                      TemporalElement(*Interval::Parse("[01/01/76-NOW]"))},
             1.0);
      break;
    case 1:
      relate(9, During("[01/01/82-NOW]"), 0.8);
      relate(5, During("[01/01/80-NOW]"), 0.9);
      break;
    case 2:
      // 3 <= 7 holds 1970-79 only: this witness of family 7 is empty,
      // the one through 14 is not.
      relate(3, During("[01/01/85-NOW]"), 0.5);
      relate(14, During("[01/01/72-31/12/76]"), 0.7);
      break;
    case 3:
      relate(3, During("[01/01/85-NOW]"), 0.5);
      break;
    case 4:
      relate(6, Lifespan::AlwaysSpan(), 0.95);
      relate(8, During("[01/01/71-31/12/79]"), 1.0);
      break;
    default:
      relate(4, Lifespan::AlwaysSpan(), 1.0);
      relate(10, Lifespan::AlwaysSpan(), 0.75);
      break;
  }
  EXPECT_TRUE(mo.Relate(1, patient, ValueId(101 + id % 4)).ok());
  if (id % 5 == 0) {
    EXPECT_TRUE(mo.Relate(1, patient, ValueId(101 + (id + 1) % 4),
                          During("[01/01/90-NOW]"))
                    .ok());
  }
  return patient;
}

/// A bitemporal Patient MO over the reclassified Diagnosis dimension
/// (non-strict, valid- and transaction-time edges, read through ancestor
/// runs) and a strict Ward <= Hospital dimension (read through the flat
/// table), so one flat-hash scan mixes both coordinate loops.
MdObject BuildReclassifiedMo(std::uint64_t patients) {
  DimensionTypeBuilder builder("Ward");
  builder.AddCategory("Ward", AggregationType::kConstant)
      .AddCategory("Hospital", AggregationType::kConstant)
      .AddOrder("Ward", "Hospital");
  Dimension ward(std::move(builder.Build()).ValueOrDie());
  const CategoryTypeIndex ward_level = *ward.type().Find("Ward");
  const CategoryTypeIndex hospital = *ward.type().Find("Hospital");
  for (std::uint64_t h : {201, 202}) {
    EXPECT_TRUE(ward.AddValue(hospital, ValueId(h)).ok());
  }
  for (std::uint64_t w = 101; w <= 104; ++w) {
    EXPECT_TRUE(ward.AddValue(ward_level, ValueId(w)).ok());
    EXPECT_TRUE(ward.AddOrder(ValueId(w), ValueId(w < 103 ? 201 : 202)).ok());
  }
  MdObject mo("Patient",
              {BuildReclassifiedDiagnosisDimension(), std::move(ward)},
              std::make_shared<FactRegistry>(), TemporalType::kBitemporal);
  for (std::uint64_t id = 1; id <= patients; ++id) {
    AddReclassifiedPatient(mo, id);
  }
  return mo;
}

/// Every category of `dim` (top excluded) as a one-axis grouping, and as
/// a two-axis one beside `other` at `other_category`.
std::vector<std::vector<CategoryTypeIndex>> GroupingsOver(
    const MdObject& mo, std::size_t dim, std::size_t other,
    CategoryTypeIndex other_category) {
  std::vector<std::vector<CategoryTypeIndex>> groupings;
  const DimensionType& type = mo.dimension(dim).type();
  for (CategoryTypeIndex c = 0; c < type.category_count(); ++c) {
    if (c == type.top()) continue;
    groupings.push_back(GroupingAt(mo, dim, c));
    groupings.push_back(GroupingAt(mo, dim, c));
    groupings.back()[other] = other_category;
  }
  return groupings;
}

/// Formation (io::WriteMo bytes) and stream of the set-count, a COUNT
/// over `dim` and the expected counts at every grouping, at 1/2/8
/// threads, against the context-free formation.
void ExpectCoordinatesMatchCharacterization(
    const MdObject& mo, std::size_t dim,
    const std::vector<std::vector<CategoryTypeIndex>>& groupings,
    Chronon prob_at) {
  for (const std::vector<CategoryTypeIndex>& grouping : groupings) {
    AggregateSpec expected = SpecFor(AggFunction::SetCount(), grouping);
    expected.expected_counts = true;
    for (AggregateSpec spec : {SpecFor(AggFunction::SetCount(), grouping),
                               SpecFor(AggFunction::Count(dim), grouping),
                               expected}) {
      spec.prob_at = prob_at;
      ExpectFormationRunsParallelAndMatches(mo, spec);
    }
    StreamSpec stream;
    stream.functions = {AggFunction::SetCount(), AggFunction::Count(dim)};
    stream.grouping = grouping;
    stream.prob_at = prob_at;
    ExpectStreamMatchesBaseline(
        mo, stream, [](ExecContext&) {},
        [](const ExecStats& stats, std::size_t) {
          EXPECT_EQ(stats.dense_groupby_runs, 0u);
        });
  }
}

TEST(CoordinateDifferentialTest, RunsMatchTheCharacterizationOnEveryShape) {
  // The clinical MO: non-strict Diagnosis Family, Family-granularity
  // registrations, reclassification at the 1980 epoch, uncertain
  // diagnoses, relocations in the residence dimension.
  ClinicalMo clinical = BuildClinical();
  ExpectCoordinatesMatchCharacterization(
      clinical.mo, clinical.diagnosis_dim,
      GroupingsOver(clinical.mo, clinical.diagnosis_dim,
                    clinical.residence_dim, clinical.county),
      kNowChronon);

  // Bitemporal reclassification edges beside a flat-table axis.
  const MdObject reclassified = BuildReclassifiedMo(48);
  ExpectCoordinatesMatchCharacterization(
      reclassified, 0,
      GroupingsOver(reclassified, 0, 1,
                    *reclassified.dimension(1).type().Find("Hospital")),
      kNowChronon);

  // A valid-time MO read at a chronon other than NOW.
  const MdObject doses = BuildDoseMo(40);
  ExpectCoordinatesMatchCharacterization(
      doses, 0, GroupingsOver(doses, 0, 1, doses.dimension(1).type().bottom()),
      Day("01/06/82"));
}

TEST(CoordinateDifferentialTest, EmptyWitnessIsSkippedAndOthersStillCount) {
  const MdObject mo = BuildReclassifiedMo(12);
  const CategoryTypeIndex family =
      *mo.dimension(0).type().Find("Diagnosis Family");
  AggregateSpec spec =
      SpecFor(AggFunction::SetCount(), GroupingAt(mo, 0, family));
  spec.expected_counts = true;
  ExpectFormationRunsParallelAndMatches(mo, spec);

  // Patients 2 and 8 reach family 7 only through their entry 14 (their
  // entry 3 meets 3 <= 7 in an empty lifespan); patients 3 and 9 reach no
  // family at all; patients 6 and 12 reach it through 13's old filing.
  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  const FactDimRelation& groups = result->relation(0);
  bool found = false;
  for (const FactDimRelation::Entry& entry : groups.entries()) {
    if (entry.value != ValueId(7)) continue;
    found = true;
    auto term = result->registry()->Get(entry.fact);
    ASSERT_TRUE(term.ok());
    std::vector<std::uint64_t> members;
    for (FactId member : term->members()) {
      members.push_back(mo.registry()->Get(member)->atom);
    }
    EXPECT_EQ(members, (std::vector<std::uint64_t>{2, 6, 8, 12}));
    // The group's probability multiplies its members' coordinate
    // probabilities: 0.7 per entry-14 witness, 1 through 13. Folding the
    // empty witness (0.5) in would read 0.85 per patient instead.
    EXPECT_EQ(entry.prob, 0.7 * 0.7);
  }
  EXPECT_TRUE(found);
  for (const FactId fact : result->facts()) {
    auto term = result->registry()->Get(fact);
    ASSERT_TRUE(term.ok());
    for (FactId member : term->members()) {
      const std::uint64_t id = mo.registry()->Get(member)->atom;
      EXPECT_NE(id % 6, 3u) << "patient " << id << " has no family";
    }
  }
}

// ---- Target-only WHERE leaves against the characterization -----------------

/// Evaluates `predicate` on `fact` and compares with `want`.
void ExpectLeaf(const Predicate& predicate, const MdObject& mo, FactId fact,
                bool want) {
  auto got = predicate.Evaluate(mo, fact);
  ASSERT_TRUE(got.ok()) << predicate.ToString() << ": " << got.status();
  EXPECT_EQ(*got, want) << predicate.ToString() << " on fact " << fact.raw();
}

/// For every fact of `mo`: each characterization leaf over dimension
/// `dim` — for one value per category (two where there are two), top and
/// a value absent from the dimension — against a reference computed from
/// MdObject::CharacterizedBy, plus HasValueInCategory for every category
/// (and one past the last) and the out-of-range-dimension behaviours.
void ExpectLeavesMatchCharacterization(const MdObject& mo, std::size_t dim) {
  const Dimension& dimension = mo.dimension(dim);
  const DimensionType& type = dimension.type();
  std::vector<ValueId> targets;
  for (CategoryTypeIndex c = 0; c < type.category_count(); ++c) {
    std::vector<ValueId> values = dimension.ValuesIn(c);
    std::sort(values.begin(), values.end());
    targets.push_back(values.front());
    if (values.size() > 1) targets.push_back(values.back());
  }
  targets.push_back(ValueId(987654321));
  const Chronon chronons[] = {Day("01/06/75"), Day("15/06/85"), kNowChronon};
  const TemporalElement span(*Interval::Parse("[01/01/81-31/12/83]"));
  const std::size_t out_of_range = mo.dimension_count();

  for (FactId fact : mo.facts()) {
    const std::vector<MdObject::Characterization> characterization =
        mo.CharacterizedBy(fact, dim);
    for (ValueId target : targets) {
      const MdObject::Characterization* c = nullptr;
      for (const MdObject::Characterization& candidate : characterization) {
        if (candidate.value == target) c = &candidate;
      }
      ExpectLeaf(Predicate::CharacterizedBy(dim, target), mo, fact,
                 c != nullptr);
      ExpectLeaf(Predicate::CharacterizedThroughout(dim, target, span), mo,
                 fact, c != nullptr && c->life.valid.Covers(span));
      for (Chronon at : chronons) {
        ExpectLeaf(Predicate::CharacterizedByAt(dim, target, at), mo, fact,
                   c != nullptr &&
                       c->life.valid.Covers(TemporalElement::At(at)));
        // 0.95 tells a noisy-or of two witnesses (0.8 and 0.9 make 0.98)
        // from either one alone.
        for (double threshold : {0.7, 0.95}) {
          ExpectLeaf(Predicate::MinProbability(dim, target, threshold, at), mo,
                     fact,
                     c != nullptr && c->prob >= threshold &&
                         c->life.valid.Contains(at));
        }
      }
      // An out-of-range dimension fails the characterization leaves and
      // matches nothing under a probability threshold.
      EXPECT_FALSE(Predicate::CharacterizedBy(out_of_range, target)
                       .Evaluate(mo, fact)
                       .ok());
      ExpectLeaf(Predicate::MinProbability(out_of_range, target, 0.1), mo,
                 fact, false);
    }
    for (CategoryTypeIndex category = 0; category <= type.category_count();
         ++category) {
      bool want = false;
      for (const MdObject::Characterization& c : characterization) {
        want = want || (c.value != dimension.top_value() &&
                        *dimension.CategoryOf(c.value) == category);
      }
      ExpectLeaf(Predicate::HasValueInCategory(dim, category), mo, fact, want);
    }
    EXPECT_FALSE(
        Predicate::HasValueInCategory(out_of_range, 0).Evaluate(mo, fact).ok());
  }

  // The selection scan binds each leaf once and answers what the per-fact
  // loop answers, errors included.
  const Predicate compound =
      Predicate::CharacterizedBy(dim, targets[1])
          .Or(Predicate::MinProbability(dim, targets[0], 0.7))
          .And(Predicate::HasValueInCategory(dim, type.bottom()).Not());
  auto all = compound.EvaluateAll(mo);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), mo.facts().size());
  for (std::size_t f = 0; f < mo.facts().size(); ++f) {
    EXPECT_EQ((*all)[f], *compound.Evaluate(mo, mo.facts()[f]));
  }
  const Predicate failing =
      Predicate::CharacterizedBy(out_of_range, targets[0]);
  auto failed = failing.EvaluateAll(mo);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().ToString(),
            failing.Evaluate(mo, mo.facts().front()).status().ToString());
}

TEST(PredicateDifferentialTest, LeavesMatchTheCharacterization) {
  ClinicalMo clinical = BuildClinical();
  ExpectLeavesMatchCharacterization(clinical.mo, clinical.diagnosis_dim);
  ExpectLeavesMatchCharacterization(clinical.mo, clinical.residence_dim);
  const MdObject reclassified = BuildReclassifiedMo(24);
  ExpectLeavesMatchCharacterization(reclassified, 0);
  ExpectLeavesMatchCharacterization(reclassified, 1);
}

TEST(PredicateDifferentialTest, RepresentationLeafResolvesOncePerMo) {
  const MdObject mo = BuildReclassifiedMo(24);
  const CategoryTypeIndex family =
      *mo.dimension(0).type().Find("Diagnosis Family");
  // "E10" names family 9 (from 1980); "D1" named family 8 in the 1970s
  // only; no "Nope" representation exists.
  const Predicate e10 =
      Predicate::RepresentationEquals(0, family, "Code", "E10");
  const Predicate d1_now =
      Predicate::RepresentationEquals(0, family, "Code", "D1");
  const Predicate d1_1975 = Predicate::RepresentationEquals(
      0, family, "Code", "D1", Day("01/06/75"));
  const Predicate missing =
      Predicate::RepresentationEquals(0, family, "Nope", "E10");
  std::size_t matched = 0;
  for (FactId fact : mo.facts()) {
    const bool by_9 =
        *Predicate::CharacterizedBy(0, ValueId(9)).Evaluate(mo, fact);
    const bool by_8 =
        *Predicate::CharacterizedBy(0, ValueId(8)).Evaluate(mo, fact);
    ExpectLeaf(e10, mo, fact, by_9);
    ExpectLeaf(d1_now, mo, fact, false);
    ExpectLeaf(d1_1975, mo, fact, by_8);
    ExpectLeaf(missing, mo, fact, false);
    matched += by_9 ? 1 : 0;
  }
  EXPECT_GT(matched, 0u);
  for (const Predicate* p : {&e10, &d1_now, &d1_1975, &missing}) {
    auto all = p->EvaluateAll(mo);
    ASSERT_TRUE(all.ok());
    for (std::size_t f = 0; f < mo.facts().size(); ++f) {
      EXPECT_EQ((*all)[f], *p->Evaluate(mo, mo.facts()[f])) << p->ToString();
    }
  }
}

// ---- Result-value interning regression ------------------------------------

/// Two distinct doubles whose FormatDouble texts collide (NaNs with
/// different payloads both print "nan") must still intern to two distinct
/// result values: interning is keyed by bit pattern, the text is
/// display-only.
TEST(GroupByKernelTest, DistinctResultsWithIdenticalFormattingDoNotCollide) {
  const double nan_a = std::strtod("nan(0x1)", nullptr);
  const double nan_b = std::strtod("nan(0x2)", nullptr);
  if (std::bit_cast<std::uint64_t>(nan_a) ==
      std::bit_cast<std::uint64_t>(nan_b)) {
    GTEST_SKIP() << "platform strtod does not preserve NaN payloads";
  }

  // One grouping dimension with two bottom values, one measure dimension
  // whose per-group sums are the two payload-distinct NaNs.
  DimensionTypeBuilder group_builder("Group");
  group_builder.AddCategory("Key", AggregationType::kConstant);
  Dimension group_dim(std::move(group_builder.Build()).ValueOrDie());
  CategoryTypeIndex key = group_dim.type().bottom();
  ASSERT_TRUE(group_dim.AddValue(key, ValueId(1)).ok());
  ASSERT_TRUE(group_dim.AddValue(key, ValueId(2)).ok());

  DimensionTypeBuilder measure_builder("Measure");
  measure_builder.AddCategory("Reading", AggregationType::kSum);
  Dimension measure_dim(std::move(measure_builder.Build()).ValueOrDie());
  CategoryTypeIndex reading = measure_dim.type().bottom();
  Representation& rep = measure_dim.RepresentationFor(reading, "Value");
  ASSERT_TRUE(measure_dim.AddValue(reading, ValueId(10)).ok());
  ASSERT_TRUE(measure_dim.AddValue(reading, ValueId(11)).ok());
  ASSERT_TRUE(rep.Set(ValueId(10), "nan(0x1)").ok());
  ASSERT_TRUE(rep.Set(ValueId(11), "nan(0x2)").ok());

  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Sample", {group_dim, measure_dim}, registry);
  FactId f1 = registry->Atom(1);
  FactId f2 = registry->Atom(2);
  ASSERT_TRUE(mo.AddFact(f1).ok());
  ASSERT_TRUE(mo.AddFact(f2).ok());
  ASSERT_TRUE(mo.Relate(0, f1, ValueId(1)).ok());
  ASSERT_TRUE(mo.Relate(0, f2, ValueId(2)).ok());
  ASSERT_TRUE(mo.Relate(1, f1, ValueId(10)).ok());
  ASSERT_TRUE(mo.Relate(1, f2, ValueId(11)).ok());

  AggregateSpec spec = SpecFor(AggFunction::Sum(1),
                               {key, mo.dimension(1).type().top()});
  auto check = [&](const Result<MdObject>& result, const char* engine) {
    ASSERT_TRUE(result.ok()) << result.status();
    const std::size_t result_dim = result->dimension_count() - 1;
    const CategoryTypeIndex bottom =
        result->dimension(result_dim).type().bottom();
    // Two groups, two distinct NaN sums: two result values, not one.
    EXPECT_EQ(result->fact_count(), 2u);
    EXPECT_EQ(result->dimension(result_dim).ValuesIn(bottom).size(), 2u)
        << engine;
  };
  check(ReferenceAggregateFormation(mo, spec), "reference engine");
  ExecContext ctx(1, /*min_facts=*/1);
  check(AggregateFormation(mo, spec, &ctx), "kernel engine");
}

// ---- Relational flat-hash engine ------------------------------------------

TEST(GroupByKernelTest, RelationalFlatHashMatchesBaselineAndCounts) {
  using relational::AggregateTerm;
  relational::Relation r({"k", "v"});
  for (std::int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(r.Insert({relational::Value(i % 13),
                          relational::Value(static_cast<double>(i) * 0.5)})
                    .ok());
  }
  const std::vector<AggregateTerm> terms = {
      {AggregateTerm::Func::kCountStar, "", "n"},
      {AggregateTerm::Func::kSum, "v", "v_sum"},
  };
  auto baseline = relational::Aggregate(r, {"k"}, terms);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Sequential flat-hash run: below the parallel threshold but with a
  // context, so the open-addressing engine replaces the map.
  ExecContext ctx;
  ASSERT_FALSE(ctx.WantsParallel(r.tuples().size()));
  auto flat = relational::Aggregate(r, {"k"}, terms, &ctx);
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  EXPECT_EQ(ctx.stats.parallel_runs, 0u);
  EXPECT_TRUE(*flat == *baseline);
}

// ---- Shared building blocks -----------------------------------------------

TEST(GroupByKernelTest, FlatHashGroupIndexSurvivesRehashing) {
  // Intern far more keys than the initial capacity so several rehashes
  // run, then verify every key still finds its original ordinal.
  FlatHashGroupIndex index;
  std::vector<ValueId> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    keys.push_back(ValueId(i * 7 + 1));
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    const std::uint32_t ordinal = index.FindOrInsert(
        HashValueIds(&keys[i], 1), i,
        [&](std::uint32_t existing) { return keys[existing] == keys[i]; },
        &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(ordinal, i);
  }
  EXPECT_EQ(index.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    const std::uint32_t ordinal = index.FindOrInsert(
        HashValueIds(&keys[i], 1), 0xdeadbeefu,
        [&](std::uint32_t existing) { return keys[existing] == keys[i]; },
        &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(ordinal, i);
  }
}

}  // namespace
}  // namespace mddc
