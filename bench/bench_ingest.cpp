// Continuous-ingestion ablation (docs/ingestion.md): the same stream of
// bulk-INSERT batches applied to two identically-warmed MoStores, one
// sealing every epoch through the AppendBatch fast path (CSR tails
// spliced, rollup snapshots patched, warm pre-aggregates delta-folded)
// and one re-sealing from scratch through Mutate. Reports the sealing
// wall time of both modes and the speedup; after every batch the read
// set is rendered on both stores and must be byte-identical, so the
// bench never reports a fast path that returns wrong bytes.
//
//   $ ./bench/bench_ingest
//
// Sweeps fact scale (10^5..10^6) and two batch shapes: "existing" facts
// over existing leaf values only (the dimensions never change, so no
// rollup snapshot is patched) and "fresh-leaf", where every batch also
// appends fresh low-level diagnoses under existing families, each with a
// new fact — the shape that times the rollup patch (ancestor runs and
// flat table). MDDC_SWEEP_MAX_FACTS caps the largest point (default
// 1000000). MDDC_INGEST_BATCHES and MDDC_INGEST_BATCH_FACTS override the
// stream size (default 6 batches of 400 facts). At the 10^6-fact point
// the bench *asserts* the >= 3x speedup acceptance gate on the
// "existing" shape and exits nonzero below it. Results go to stdout and
// BENCH_ingest.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "peak_rss.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "workload/clinical_generator.h"

namespace {

using namespace mddc;

ClinicalWorkloadParams ParamsFor(std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = 11;
  params.num_patients = patients;
  return params;
}

ClinicalMo BuildClinical(const ClinicalWorkloadParams& params) {
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(workload).ValueOrDie();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// The dashboard queries interleaved with the batches (rendered, not
/// timed — they are the bit-identity gate, identical in both modes).
std::vector<std::string> ReadSet() {
  return {
      "SELECT COUNT FROM clinical BY Residence.Region",
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
      "SELECT COUNT FROM clinical BY Residence.Region"
      " WHERE PROB(Diagnosis.\"Diagnosis Family\" = 'F1') >= 0.7",
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

/// The batch stream: bulk INSERTs of new patients over existing leaf
/// values, identical for both modes.
std::vector<std::string> BuildStream(const ClinicalWorkloadParams& params,
                                     const ClinicalMo& clinical,
                                     std::size_t batches,
                                     std::size_t batch_facts) {
  const std::size_t lows = clinical.num_low_level;
  const std::size_t areas = params.num_regions * params.counties_per_region *
                            params.areas_per_county;
  std::vector<std::string> stream;
  stream.reserve(batches);
  std::uint64_t key = 95000000;
  for (std::size_t b = 0; b < batches; ++b) {
    std::string statement = "INSERT INTO clinical";
    for (std::size_t f = 0; f < batch_facts; ++f, ++key) {
      statement += StrCat(
          f == 0 ? " " : ", ", "FACT ", key,
          " (Diagnosis.\"Low-level Diagnosis\" = 'L", key % lows, "'",
          f % 3 == 1 ? " PROB 0.8" : "", ", Residence.Area = 'A", key % areas,
          "')");
    }
    stream.push_back(std::move(statement));
  }
  return stream;
}

/// The batch shapes of the sweep (see the header comment).
enum class Shape { kExistingLeaves, kFreshLeaves };

const char* ShapeName(Shape shape) {
  return shape == Shape::kExistingLeaves ? "existing" : "fresh-leaf";
}

/// Fresh low-level diagnoses (one new fact each) a fresh-leaf batch adds.
constexpr std::size_t kFreshLeavesPerBatch = 8;

/// Appends batch `batch`'s fresh leaves: AddValueAuto keeps each one an
/// append (and the batch on the AppendBatch fast path); both modes run
/// the same calls on the same drafts, so the auto ids agree.
Status AppendFreshLeaves(const ClinicalMo& clinical, std::size_t batch,
                         MdObject& draft) {
  Dimension& diagnosis = draft.dimension_mutable(clinical.diagnosis_dim);
  const std::vector<ValueId> families = diagnosis.ValuesIn(clinical.family);
  const std::vector<ValueId> areas =
      draft.dimension(clinical.residence_dim).ValuesIn(clinical.area);
  for (std::size_t k = 0; k < kFreshLeavesPerBatch; ++k) {
    const std::size_t n = batch * kFreshLeavesPerBatch + k;
    MDDC_ASSIGN_OR_RETURN(const ValueId leaf,
                          diagnosis.AddValueAuto(clinical.low_level));
    MDDC_RETURN_NOT_OK(diagnosis.AddOrder(leaf, families[n % families.size()]));
    const FactId fact = draft.registry()->Atom(96000000 + n);
    MDDC_RETURN_NOT_OK(draft.AddFact(fact));
    MDDC_RETURN_NOT_OK(draft.Relate(clinical.diagnosis_dim, fact, leaf));
    MDDC_RETURN_NOT_OK(draft.Relate(clinical.residence_dim, fact,
                                    areas[n % areas.size()]));
  }
  return Status::OK();
}

struct ModeResult {
  double seal_seconds = 0.0;          ///< publish time across all batches
  std::vector<std::string> rendered;  ///< read set after every batch
  std::uint64_t append_batches = 0;
  std::uint64_t append_fallbacks = 0;
  std::uint64_t registry_flattens = 0;
  serve::MoStore::WritePhases write_phases;  ///< the store's write split
  ExecStats seal_stats;
};

/// Runs the whole stream in one mode. Only the publish calls are timed;
/// the interleaved reads are rendered for the identity gate.
ModeResult RunMode(bool incremental, Shape shape, const ClinicalMo& clinical,
                   const std::vector<std::string>& stream,
                   const std::vector<CategoryTypeIndex>& grouping) {
  MdObject seed = clinical.mo;
  serve::MoStore store;
  serve::MdqlServer server(&store);
  Check(store.Publish("clinical", std::move(seed)), "publish");
  Check(store.WarmAggregate("clinical", AggFunction::SetCount(), grouping),
        "warm aggregate");

  ModeResult result;
  for (std::size_t batch = 0; batch < stream.size(); ++batch) {
    auto parsed = mdql::Parse(stream[batch]);
    if (!parsed.ok() || !parsed->insert.has_value()) {
      std::fprintf(stderr, "bad batch statement\n");
      std::exit(1);
    }
    auto appender = [&, batch](MdObject& draft) -> Status {
      MDDC_RETURN_NOT_OK(mdql::ApplyInsert(draft, *parsed->insert).status());
      if (shape == Shape::kExistingLeaves) return Status::OK();
      return AppendFreshLeaves(clinical, batch, draft);
    };
    const auto start = std::chrono::steady_clock::now();
    if (incremental) {
      Check(store.AppendBatch("clinical", appender, nullptr,
                              &result.seal_stats),
            "append batch");
    } else {
      Check(store.Mutate("clinical", appender), "mutate");
    }
    const auto end = std::chrono::steady_clock::now();
    result.seal_seconds +=
        std::chrono::duration<double>(end - start).count();

    serve::ServerSession session = server.Connect(2);
    for (const std::string& query : ReadSet()) {
      auto rendered = session.Execute(query);
      if (!rendered.ok()) {
        std::fprintf(stderr, "read failed: %s\n",
                     rendered.status().ToString().c_str());
        std::exit(1);
      }
      result.rendered.push_back(rendered->ToString());
    }
  }
  const serve::MoStore::Stats stats = store.CollectStats();
  result.append_batches = stats.append_batches;
  result.append_fallbacks = stats.append_fallbacks;
  result.registry_flattens = stats.registry_flattens;
  result.write_phases = stats.write_phases;
  return result;
}

struct SweepRow {
  std::size_t facts = 0;
  Shape shape = Shape::kExistingLeaves;
  std::size_t batches = 0;
  std::size_t batch_facts = 0;
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double speedup = 0.0;
  std::uint64_t csr_tail_extends = 0;
  std::uint64_t rollup_patches = 0;
  std::uint64_t preagg_folds = 0;
  std::uint64_t fold_invalidations = 0;
  std::uint64_t registry_flattens = 0;         ///< incremental mode
  serve::MoStore::WritePhases write_phases;  ///< incremental mode
};

/// The incremental mode's write split as a JSON object: cumulative and
/// largest single-batch milliseconds per phase (MoStore::WritePhases).
std::string WritePhasesJson(const serve::MoStore::WritePhases& w) {
  const std::pair<const char*, const serve::MoStore::PhaseTime*> phases[] = {
      {"registry_fork", &w.registry_fork},
      {"registry_flatten", &w.registry_flatten},
      {"draft_clone", &w.draft_clone},
      {"apply", &w.apply},
      {"append_gate", &w.append_gate},
      {"seal", &w.seal},
      {"swap", &w.swap},
  };
  std::string json = "{";
  for (const auto& [name, phase] : phases) {
    char field[128];
    std::snprintf(field, sizeof(field),
                  "%s\"%s\": {\"total_ms\": %.4f, \"max_ms\": %.4f}",
                  json.size() > 1 ? ", " : "", name, phase->total_ms,
                  phase->max_ms);
    json += field;
  }
  return json + "}";
}

void WriteJson(const std::vector<SweepRow>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"ingest\",\n  \"peak_rss_kb\": %zu,\n"
               "  \"rows\": [\n",
               mddc_bench::PeakRssKb());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"facts\": %zu, \"shape\": \"%s\", \"batches\": %zu, "
        "\"batch_facts\": %zu, "
        "\"incremental_seconds\": %.4f, \"rebuild_seconds\": %.4f, "
        "\"speedup\": %.2f, \"csr_tail_extends\": %llu, "
        "\"rollup_patches\": %llu, \"preagg_folds\": %llu, "
        "\"fold_invalidations\": %llu, \"registry_flattens\": %llu, "
        "\"write_phases\": %s}%s\n",
        r.facts, ShapeName(r.shape), r.batches, r.batch_facts,
        r.incremental_seconds,
        r.rebuild_seconds, r.speedup,
        static_cast<unsigned long long>(r.csr_tail_extends),
        static_cast<unsigned long long>(r.rollup_patches),
        static_cast<unsigned long long>(r.preagg_folds),
        static_cast<unsigned long long>(r.fold_invalidations),
        static_cast<unsigned long long>(r.registry_flattens),
        WritePhasesJson(r.write_phases).c_str(),
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  std::size_t max_facts = 1000000;
  if (const char* cap = std::getenv("MDDC_SWEEP_MAX_FACTS")) {
    max_facts = static_cast<std::size_t>(std::strtoull(cap, nullptr, 10));
  }
  std::size_t batches = 6;
  if (const char* text = std::getenv("MDDC_INGEST_BATCHES")) {
    batches = static_cast<std::size_t>(std::strtoull(text, nullptr, 10));
  }
  std::size_t batch_facts = 400;
  if (const char* text = std::getenv("MDDC_INGEST_BATCH_FACTS")) {
    batch_facts = static_cast<std::size_t>(std::strtoull(text, nullptr, 10));
  }
  if (batches == 0 || batch_facts == 0) {
    std::fprintf(stderr, "batches and batch_facts must be positive\n");
    return 1;
  }

  std::vector<std::size_t> fact_counts;
  for (std::size_t facts : {std::size_t{100000}, std::size_t{1000000}}) {
    if (facts <= max_facts) fact_counts.push_back(facts);
  }
  if (fact_counts.empty() && max_facts > 0) fact_counts.push_back(max_facts);

  bool gate_failed = false;
  std::vector<SweepRow> rows;
  for (std::size_t facts : fact_counts) {
    const ClinicalWorkloadParams params = ParamsFor(facts);
    ClinicalMo clinical = BuildClinical(params);
    const auto grouping = RegionGrouping(clinical);
    const std::vector<std::string> stream =
        BuildStream(params, clinical, batches, batch_facts);

    for (Shape shape : {Shape::kExistingLeaves, Shape::kFreshLeaves}) {
      ModeResult inc =
          RunMode(/*incremental=*/true, shape, clinical, stream, grouping);
      ModeResult full =
          RunMode(/*incremental=*/false, shape, clinical, stream, grouping);

      // Bit-identity gate: every interleaved read must render the same
      // bytes in both modes — a fast path that diverges is a bug, not a
      // speedup.
      if (inc.rendered != full.rendered) {
        std::fprintf(stderr,
                     "bit-identity gate FAILED at %zu facts (%s): incremental "
                     "and rebuild modes rendered different bytes\n",
                     facts, ShapeName(shape));
        return 1;
      }
      if (inc.append_fallbacks != 0 || inc.append_batches != batches) {
        std::fprintf(stderr,
                     "append path gate FAILED at %zu facts (%s): %llu of %zu "
                     "batches took the fast path (%llu fallbacks)\n",
                     facts, ShapeName(shape),
                     static_cast<unsigned long long>(inc.append_batches),
                     batches,
                     static_cast<unsigned long long>(inc.append_fallbacks));
        return 1;
      }

      SweepRow row;
      row.facts = facts;
      row.shape = shape;
      row.batches = batches;
      row.batch_facts = batch_facts;
      row.incremental_seconds = inc.seal_seconds;
      row.rebuild_seconds = full.seal_seconds;
      row.speedup = inc.seal_seconds > 0.0
                        ? full.seal_seconds / inc.seal_seconds
                        : 0.0;
      row.csr_tail_extends = inc.seal_stats.csr_tail_extends;
      row.rollup_patches = inc.seal_stats.rollup_patches;
      row.preagg_folds = inc.seal_stats.preagg_folds;
      row.fold_invalidations = inc.seal_stats.preagg_fold_invalidations;
      row.registry_flattens = inc.registry_flattens;
      row.write_phases = inc.write_phases;
      rows.push_back(row);

      std::printf(
          "facts=%zu %s batches=%zu x %zu: incremental %.3fs, rebuild "
          "%.3fs, speedup %.1fx (tail_extends=%llu patches=%llu "
          "folds=%llu)\n",
          facts, ShapeName(shape), batches, batch_facts,
          row.incremental_seconds, row.rebuild_seconds, row.speedup,
          static_cast<unsigned long long>(row.csr_tail_extends),
          static_cast<unsigned long long>(row.rollup_patches),
          static_cast<unsigned long long>(row.preagg_folds));
      std::fflush(stdout);

      // The acceptance gate: >= 3x at the 10^6-fact point.
      if (shape == Shape::kExistingLeaves && facts >= 1000000 &&
          row.speedup < 3.0) {
        std::fprintf(stderr,
                     "speedup gate FAILED: %.2fx < 3x at %zu facts\n",
                     row.speedup, facts);
        gate_failed = true;
      }
    }
  }

  WriteJson(rows, "BENCH_ingest.json");
  return gate_failed ? 1 : 0;
}
