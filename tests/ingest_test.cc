#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "engine/executor.h"
#include "io/serialize.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"

// The incremental-ingestion differential (docs/ingestion.md): a store
// whose epochs are published through AppendBatch's patched sealing —
// CSR tails spliced, rollup snapshots patched, warm pre-aggregates
// delta-folded — must render every query byte-identically to a store
// that re-seals every epoch from scratch through Mutate, at any thread
// count, including across a structural mutation that forces the
// fast path to fall back mid-stream.

namespace mddc {
namespace {

ClinicalWorkloadParams SmallParams(std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = 17;
  params.num_patients = patients;
  return params;
}

ClinicalMo Build(const ClinicalWorkloadParams& params) {
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).ValueOrDie();
}

/// The read set replayed after every batch: rollups at three levels, a
/// temporal slice, a probabilistic threshold and the star-join shape, so
/// the differential covers every fused/interpreted path over the
/// patched snapshot.
std::vector<std::string> ReadSet() {
  return {
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
      "SELECT COUNT FROM clinical BY Residence.Region",
      "SELECT COUNT FROM clinical BY Diagnosis.\"Low-level Diagnosis\""
      " WHERE Diagnosis.\"Diagnosis Family\" = 'F0'",
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\""
      " ASOF '01/01/95'",
      "SELECT COUNT FROM clinical BY Residence.Region"
      " WHERE PROB(Diagnosis.\"Diagnosis Family\" = 'F1') >= 0.7",
      "SELECT COUNT FROM clinical"
      " BY Diagnosis.\"Diagnosis Group\", Residence.Region"
      " WHERE Residence.Region = 'R0' OR Residence.County = 'CO1'",
  };
}

std::vector<CategoryTypeIndex> RegionGrouping(const ClinicalMo& clinical) {
  std::vector<CategoryTypeIndex> grouping(clinical.mo.dimension_count());
  for (std::size_t i = 0; i < clinical.mo.dimension_count(); ++i) {
    grouping[i] = clinical.mo.dimension(i).type().top();
  }
  grouping[clinical.residence_dim] = clinical.region;
  return grouping;
}

/// A bulk INSERT of `count` new patients over existing leaf values.
std::string BulkInsert(std::uint64_t base_key, std::size_t count,
                       std::size_t lows, std::size_t areas) {
  std::string statement = "INSERT INTO clinical";
  for (std::size_t b = 0; b < count; ++b) {
    const std::uint64_t key = base_key + b;
    statement += StrCat(
        b == 0 ? " " : ", ", "FACT ", key,
        " (Diagnosis.\"Low-level Diagnosis\" = 'L", key % lows, "'",
        b % 2 == 1 ? " PROB 0.8" : "", ", Residence.Area = 'A", key % areas,
        "')");
  }
  return statement;
}

/// Renders the read set on both stores at 1, 2 and 8 threads per query
/// and asserts byte identity.
void ExpectReadsMatch(serve::MoStore& incremental, serve::MoStore& rebuilt,
                      const std::string& context) {
  serve::MdqlServer inc_server(&incremental);
  serve::MdqlServer full_server(&rebuilt);
  for (std::size_t threads : {1u, 2u, 8u}) {
    serve::ServerSession inc = inc_server.Connect(threads);
    serve::ServerSession full = full_server.Connect(threads);
    for (const std::string& query : ReadSet()) {
      auto a = inc.Execute(query);
      auto b = full.Execute(query);
      ASSERT_TRUE(a.ok()) << context << ": " << query << "\n" << a.status();
      ASSERT_TRUE(b.ok()) << context << ": " << query << "\n" << b.status();
      EXPECT_EQ(a->ToString(), b->ToString())
          << context << " at " << threads << " threads: " << query;
    }
  }
}

/// Serializes the published MO and its warm pre-aggregate on both stores
/// and asserts byte identity (io::WriteMo numbers facts by position, so
/// the bytes hold however each store's registry assigned ids).
void ExpectStoresIdentical(serve::MoStore& incremental,
                           serve::MoStore& rebuilt,
                           const std::vector<CategoryTypeIndex>& grouping,
                           const std::string& context) {
  const auto inc_snapshot = incremental.Pin();
  const auto full_snapshot = rebuilt.Pin();
  const serve::PublishedMo* inc = inc_snapshot->Find("clinical");
  const serve::PublishedMo* full = full_snapshot->Find("clinical");
  ASSERT_NE(inc, nullptr) << context;
  ASSERT_NE(full, nullptr) << context;
  auto inc_bytes = io::WriteMo(inc->mo());
  auto full_bytes = io::WriteMo(full->mo());
  ASSERT_TRUE(inc_bytes.ok() && full_bytes.ok()) << context;
  EXPECT_TRUE(*inc_bytes == *full_bytes) << context << ": base MO differs";

  ASSERT_NE(inc->preagg, nullptr) << context;
  ASSERT_NE(full->preagg, nullptr) << context;
  const MdObject* inc_warm =
      inc->preagg->Peek(AggFunction::SetCount(), grouping);
  const MdObject* full_warm =
      full->preagg->Peek(AggFunction::SetCount(), grouping);
  ASSERT_NE(inc_warm, nullptr) << context;
  ASSERT_NE(full_warm, nullptr) << context;
  auto inc_warm_bytes = io::WriteMo(*inc_warm);
  auto full_warm_bytes = io::WriteMo(*full_warm);
  ASSERT_TRUE(inc_warm_bytes.ok() && full_warm_bytes.ok()) << context;
  EXPECT_TRUE(*inc_warm_bytes == *full_warm_bytes)
      << context << ": warm pre-aggregate differs";
}

TEST(IngestDifferentialTest, AppendedEpochsMatchFullRebuild) {
  const ClinicalWorkloadParams params = SmallParams(300);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;

  MdObject seed_inc = clinical.mo;
  MdObject seed_full = clinical.mo;
  serve::MoStore incremental;
  serve::MoStore rebuilt;
  ASSERT_TRUE(incremental.Publish("clinical", std::move(seed_inc)).ok());
  ASSERT_TRUE(rebuilt.Publish("clinical", std::move(seed_full)).ok());

  // Warm pre-aggregates on BOTH stores: the incremental one delta-folds
  // them on every appended epoch, the rebuilt one rescans — the Peek'd
  // and queried results must agree anyway.
  const auto grouping = RegionGrouping(clinical);
  ASSERT_TRUE(incremental
                  .WarmAggregate("clinical", AggFunction::SetCount(), grouping)
                  .ok());
  ASSERT_TRUE(
      rebuilt.WarmAggregate("clinical", AggFunction::SetCount(), grouping)
          .ok());

  // 2 * 8 + 1 batches: the store collapses its registry fork chain every
  // ninth draft (kMaxForkDepth = 8 in serve/mo_store.cc), so the folds
  // of two batches resolve their captured group facts through a
  // flattened registry.
  ExecStats append_stats;
  const std::size_t kBatches = 17;
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    const std::string statement =
        BulkInsert(91000000 + batch * 100, 4 + batch, lows, areas);
    auto parsed = mdql::Parse(statement);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_TRUE(parsed->insert.has_value());

    // Batches 1 and 3 also grow the Diagnosis dimension by a fresh leaf
    // under an existing family and characterize one more new patient by
    // it — the "new leaf values are fine" clause of the append gate,
    // and the path that patches (rather than reuses) the rollup
    // snapshot.
    const bool grow_leaf = batch == 1 || batch == 3;
    const std::uint64_t leaf_key = 92000000 + batch;
    auto appender = [&](MdObject& draft) -> Status {
      MDDC_RETURN_NOT_OK(mdql::ApplyInsert(draft, *parsed->insert).status());
      if (!grow_leaf) return Status::OK();
      Dimension& dim = draft.dimension_mutable(clinical.diagnosis_dim);
      // AddValueAuto keeps the value append-classified (an explicit id
      // below the dimension's high-water mark would count as structural
      // and demote the batch); both stores run the identical appender on
      // identical drafts, so the auto ids — and their rendered id:<raw>
      // labels — agree byte-for-byte.
      MDDC_ASSIGN_OR_RETURN(const ValueId leaf,
                            dim.AddValueAuto(clinical.low_level));
      MDDC_RETURN_NOT_OK(
          dim.AddOrder(leaf, dim.ValuesIn(clinical.family).front()));
      const FactId fact = draft.registry()->Atom(leaf_key);
      MDDC_RETURN_NOT_OK(draft.AddFact(fact));
      MDDC_RETURN_NOT_OK(draft.Relate(clinical.diagnosis_dim, fact, leaf));
      return draft.CoverWithTop();
    };

    ASSERT_TRUE(incremental
                    .AppendBatch("clinical", appender, /*published_epoch=*/
                                 nullptr, &append_stats)
                    .ok())
        << "batch " << batch;
    ASSERT_TRUE(rebuilt.Mutate("clinical", appender).ok()) << "batch " << batch;

    ExpectStoresIdentical(incremental, rebuilt, grouping,
                          StrCat("batch ", batch));
    ExpectReadsMatch(incremental, rebuilt, StrCat("batch ", batch));
  }

  // Every batch took the fast path, across two flattens...
  const serve::MoStore::Stats stats = incremental.CollectStats();
  EXPECT_EQ(stats.append_batches, kBatches);
  EXPECT_EQ(stats.append_fallbacks, 0u);
  EXPECT_GE(stats.registry_flattens, 2u);
  // ...and the patched seal actually patched: CSR tails spliced every
  // batch, rollups patched on the leaf-growing batches, the warm
  // pre-aggregate delta-folded rather than rescanned on every batch, the
  // two flatten batches included.
  EXPECT_GT(append_stats.csr_tail_extends, 0u);
  EXPECT_GT(append_stats.rollup_patches, 0u);
  EXPECT_EQ(append_stats.preagg_folds, kBatches);
  EXPECT_EQ(append_stats.preagg_fold_invalidations, 0u);

  // The warm entry is present (peekable without computing) on the
  // patched store's published snapshot.
  const auto snapshot = incremental.Pin();
  const serve::PublishedMo* entry = snapshot->Find("clinical");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->preagg, nullptr);
  EXPECT_NE(entry->preagg->Peek(AggFunction::SetCount(), grouping), nullptr);
}

TEST(IngestDifferentialTest, StructuralMutationMidStreamFallsBack) {
  const ClinicalWorkloadParams params = SmallParams(200);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;

  MdObject seed_inc = clinical.mo;
  MdObject seed_full = clinical.mo;
  serve::MoStore incremental;
  serve::MoStore rebuilt;
  ASSERT_TRUE(incremental.Publish("clinical", std::move(seed_inc)).ok());
  ASSERT_TRUE(rebuilt.Publish("clinical", std::move(seed_full)).ok());
  const auto grouping = RegionGrouping(clinical);
  ASSERT_TRUE(incremental
                  .WarmAggregate("clinical", AggFunction::SetCount(), grouping)
                  .ok());
  ASSERT_TRUE(
      rebuilt.WarmAggregate("clinical", AggFunction::SetCount(), grouping)
          .ok());

  // Both stores receive the identical operation stream, the incremental
  // one always through AppendBatch — which must demote itself to a full
  // seal on the two structural operations and resume patching after.
  std::vector<std::function<Status(MdObject&)>> stream;
  auto insert_op = [&](std::uint64_t base, std::size_t count) {
    auto parsed = mdql::Parse(BulkInsert(base, count, lows, areas));
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    stream.push_back([parsed = std::move(*parsed)](MdObject& draft) -> Status {
      return mdql::ApplyInsert(draft, *parsed.insert).status();
    });
  };
  insert_op(93000000, 4);
  insert_op(93000100, 3);
  // Structural op 1: DELETE one of the facts appended above.
  {
    auto parsed = mdql::Parse("DELETE FROM clinical FACT 93000001");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    stream.push_back([parsed = std::move(*parsed)](MdObject& draft) -> Status {
      return mdql::ApplyDelete(draft, *parsed.del).status();
    });
  }
  insert_op(93000200, 4);
  // Structural op 2: re-characterize an already-published fact (a new
  // relation entry referencing an old fact fails the append gate).
  stream.push_back([&](MdObject& draft) -> Status {
    Dimension& dim = draft.dimension_mutable(clinical.diagnosis_dim);
    // The leaf itself is append-classified (auto id); the relation entry
    // for the long-published patient 1 is what fails the gate.
    MDDC_ASSIGN_OR_RETURN(const ValueId leaf,
                          dim.AddValueAuto(clinical.low_level));
    MDDC_RETURN_NOT_OK(
        dim.AddOrder(leaf, dim.ValuesIn(clinical.family).front()));
    return draft.Relate(clinical.diagnosis_dim, draft.registry()->Atom(1),
                        leaf);
  });
  insert_op(93000300, 5);

  std::vector<ExecStats> seals(stream.size());
  for (std::size_t op = 0; op < stream.size(); ++op) {
    const std::uint64_t fallbacks = incremental.CollectStats().append_fallbacks;
    ASSERT_TRUE(
        incremental.AppendBatch("clinical", stream[op], nullptr, &seals[op])
            .ok())
        << "op " << op;
    ASSERT_TRUE(rebuilt.Mutate("clinical", stream[op]).ok()) << "op " << op;
    ExpectReadsMatch(incremental, rebuilt, StrCat("op ", op));
    if (incremental.CollectStats().append_fallbacks > fallbacks) {
      // A full-seal fallback reports its counters as a patched batch
      // does: the warm aggregate's materialization (one group-by run over
      // the snapshots), not a fold.
      EXPECT_EQ(seals[op].dense_groupby_runs + seals[op].flat_hash_runs, 1u)
          << "op " << op;
      EXPECT_GT(seals[op].index_hits, 0u) << "op " << op;
      EXPECT_EQ(seals[op].preagg_folds, 0u) << "op " << op;
    } else {
      EXPECT_EQ(seals[op].preagg_folds, 1u) << "op " << op;
    }
  }
  // The re-relate op added a diagnosis leaf, so its fallback seal
  // recompiled that dimension's rollup snapshot.
  EXPECT_GT(seals[4].index_builds, 0u);

  const serve::MoStore::Stats stats = incremental.CollectStats();
  EXPECT_EQ(stats.append_batches, 4u);   // the four pure-append inserts
  EXPECT_EQ(stats.append_fallbacks, 2u);  // delete + old-fact re-relate
}

TEST(ServerSessionIngestTest, RoutesInsertsThroughAppendPathAndCachesPlans) {
  const ClinicalWorkloadParams params = SmallParams(150);
  ClinicalMo clinical = Build(params);
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas =
      params.num_regions * params.counties_per_region * params.areas_per_county;

  serve::MoStore store;
  serve::MdqlServer server(&store);
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());
  serve::ServerSession session = server.Connect();

  // A bulk INSERT acks one row per fact and publishes ONE epoch through
  // the append fast path.
  const std::uint64_t epoch_before = store.epoch();
  auto ack = session.Execute(BulkInsert(94000000, 3, lows, areas));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->rows.size(), 3u);
  EXPECT_EQ(store.epoch(), epoch_before + 1);
  EXPECT_EQ(store.CollectStats().append_batches, 1u);
  EXPECT_EQ(store.CollectStats().append_fallbacks, 0u);

  // DELETE routes through the full-rebuild writer and says so.
  auto del = session.Execute("DELETE FROM clinical FACT 94000001");
  ASSERT_TRUE(del.ok()) << del.status();
  ASSERT_EQ(del->rows.size(), 1u);
  EXPECT_NE(del->rows[0][2].find("full-rebuild"), std::string::npos);
  EXPECT_EQ(store.CollectStats().append_batches, 1u);

  // Repeated dashboard reads hit the session plan cache (same text,
  // same published epoch → same MO version in the view session).
  const std::string query =
      "SELECT COUNT FROM clinical BY Residence.Region";
  ASSERT_TRUE(session.Execute(query).ok());
  const std::uint64_t hits_after_first = session.stats().exec.plan_cache_hits;
  ASSERT_TRUE(session.Execute(query).ok());
  ASSERT_TRUE(session.Execute(query).ok());
  EXPECT_GE(session.stats().exec.plan_cache_hits, hits_after_first + 2);
}

TEST(ServerSessionIngestTest, AdvisorWarmsTheSessionsHotGroupings) {
  const ClinicalWorkloadParams params = SmallParams(150);
  ClinicalMo clinical = Build(params);
  const auto grouping = RegionGrouping(clinical);

  serve::MoStore store;
  serve::MdqlServer server(&store);
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical.mo)).ok());
  serve::ServerSession session = server.Connect();

  // No log yet: advising is a no-op, nothing published.
  const std::uint64_t epoch_before = store.epoch();
  ASSERT_TRUE(session.AdviseWarmAggregates("clinical").ok());
  EXPECT_EQ(store.epoch(), epoch_before);

  // A hot grouping accumulates in the query log...
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        session.Execute("SELECT COUNT FROM clinical BY Residence.Region")
            .ok());
  }
  // ...and the advisor turns it into a warm spec: a new epoch whose
  // snapshot can Peek the aggregate without computing.
  ASSERT_TRUE(session.AdviseWarmAggregates("clinical").ok());
  EXPECT_GT(store.epoch(), epoch_before);
  const auto snapshot = store.Pin();
  const serve::PublishedMo* entry = snapshot->Find("clinical");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->preagg, nullptr);
  EXPECT_NE(entry->preagg->Peek(AggFunction::SetCount(), grouping), nullptr);

  // Re-advising the same log is idempotent: no churn epoch.
  const std::uint64_t epoch_after = store.epoch();
  ASSERT_TRUE(session.AdviseWarmAggregates("clinical").ok());
  EXPECT_EQ(store.epoch(), epoch_after);
}

}  // namespace
}  // namespace mddc
