#include "engine/groupby_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "relational/algebra.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for the dense-slot / flat-hash group-by kernels
// (docs/groupby_kernel.md): differential proof against the context-free
// ordered-map baseline over schemas forcing each rung of the fallback
// ladder, exact behaviour at the slot-threshold boundary, 50x
// byte-identity at 1/2/8 threads through the dense kernel, the fused
// multi-function AggregateStream against one baseline formation per
// function, the NaN-payload result-interning regression, and the
// relational flat-hash engine against its own baseline.

namespace mddc {
namespace {

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
  auto baseline = AggregateFormation(mo, spec);
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
    auto& [keys, text] = rendered[term->members];
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
    auto result = AggregateFormation(kept, one);
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
  // AVG joins the SUM/MIN/MAX class but is not distributive, so the
  // whole stream fails the Section 3.4 gate and runs sequentially.
  StreamSpec with_avg = RetailStream(retail, &keep);
  with_avg.functions.insert(with_avg.functions.begin() + 1,
                            AggFunction::Avg(retail.amount_dim));
  ExpectStreamMatchesBaseline(
      retail.mo, with_avg, [](ExecContext&) {},
      [](const ExecStats& stats, std::size_t threads) {
        EXPECT_EQ(stats.dense_groupby_runs, 1u);
        EXPECT_EQ(stats.parallel_runs, 0u);
        EXPECT_EQ(stats.sequential_fallbacks, threads > 1 ? 1u : 0u);
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
        // Non-strict groupings fail the Section 3.4 gate.
        EXPECT_EQ(stats.parallel_runs, 0u);
        EXPECT_EQ(stats.sequential_fallbacks, threads > 1 ? 1u : 0u);
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
    auto result = AggregateFormation(mo, one);
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
  auto check = [&](ExecContext* exec, const char* engine) {
    auto result = AggregateFormation(mo, spec, exec);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::size_t result_dim = result->dimension_count() - 1;
    const CategoryTypeIndex bottom =
        result->dimension(result_dim).type().bottom();
    // Two groups, two distinct NaN sums: two result values, not one.
    EXPECT_EQ(result->fact_count(), 2u);
    EXPECT_EQ(result->dimension(result_dim).ValuesIn(bottom).size(), 2u)
        << engine;
  };
  check(nullptr, "baseline engine");
  ExecContext ctx(1, /*min_facts=*/1);
  check(&ctx, "kernel engine");
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
