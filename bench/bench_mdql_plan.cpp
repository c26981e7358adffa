// MDQL compiler bench: the walk over the optimized (rewritten) plan vs
// the tree-walk interpreter on a multi-statement roll-up/drill-down
// session over the clinical workload, with a rule ablation
// (docs/mdql_compiler.md).
//
//   $ ./bench/bench_mdql_plan
//
// Sweeps 10^4..10^6 facts; MDDC_SWEEP_MAX_FACTS caps the largest count
// (default 1000000). Before measuring, every configuration's rendered
// output is checked byte-for-byte against the tree-walk baseline — the
// bench never reports a speedup for wrong answers. That check is each
// session's first pass, before the plan cache holds anything, so the
// plan counters (rewrites, one-scan plans, multi-scan plans) are taken
// from it: they show what the compiler did for one pass over the
// session. Results go to stdout and BENCH_plan.json (with peak RSS).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "mdql/mdql.h"
#include "mdql/rewrite.h"
#include "peak_rss.h"
#include "workload/clinical_generator.h"

namespace {

using namespace mddc;

/// The session: a coarse roll-up, two drill-downs under predicates, a
/// multi-aggregate report, and a residence slice — the statement mix the
/// stress driver's rollup class draws from.
const char* kSession[] = {
    "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
    "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Family\" "
    "WHERE Diagnosis.\"Diagnosis Group\" = 'G1'",
    "SELECT COUNT FROM clinical BY Diagnosis.\"Low-level Diagnosis\" AS Seq "
    "WHERE Diagnosis.\"Diagnosis Family\" = 'F61'",
    "SELECT COUNT, COUNT(Diagnosis) FROM clinical "
    "BY Diagnosis.\"Diagnosis Family\"",
    "SELECT COUNT FROM clinical BY Residence.County "
    "WHERE Residence.Region = 'R0'",
};
constexpr std::size_t kSessionSize = std::size(kSession);

/// One measured configuration of the compiler.
struct Config {
  const char* name;
  mdql::CompileOptions options;
};

std::vector<Config> Configs() {
  std::vector<Config> configs;
  {
    Config c{"tree-walk", {}};
    c.options.enable_compiler = false;
    configs.push_back(c);
  }
  configs.push_back({"compiled", {}});
  {
    // Siblings never merge: one stream per aggregate.
    Config c{"no-hoist-merge", {}};
    c.options.rewrites.rule_mask =
        mdql::kAllRules &
        ~(mdql::kRuleHoistTimeslice | mdql::kRuleMergeSiblingAggregates);
    configs.push_back(c);
  }
  return configs;
}

ClinicalMo BuildClinical(std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = 17;
  params.num_patients = patients;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(workload).ValueOrDie();
}

struct Row {
  std::size_t facts = 0;
  std::string config;
  std::size_t reps = 0;
  double wall_seconds = 0.0;
  double stmts_per_sec = 0.0;
  double speedup = 0.0;  // vs tree-walk at the same fact count
  // Plan counters of the first, uncached pass over the session.
  std::size_t rewrites_applied = 0;
  std::size_t fused_pipelines = 0;
  std::size_t plan_fallbacks = 0;
};

/// Runs the whole session `reps` times single-threaded; returns wall
/// seconds.
double RunSession(mdql::Session& session, std::size_t reps) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const char* statement : kSession) {
      ExecContext exec(1, 4096);
      auto result = session.Execute(statement, &exec);
      if (!result.ok()) {
        std::fprintf(stderr, "statement failed: %s\n%s\n", statement,
                     result.status().ToString().c_str());
        std::exit(1);
      }
    }
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Byte-identity gate: every configuration must render exactly the
/// tree-walk bytes on every session statement. This is each session's
/// first pass, so it also records the plan counters per configuration
/// into `counters`; later passes hit the plan cache, which skips the
/// rewrite loop.
void Gate(const std::vector<mdql::Session*>& sessions,
          const std::vector<Config>& configs, std::vector<Row>* counters) {
  counters->assign(configs.size(), Row{});
  for (const char* statement : kSession) {
    std::string baseline;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      ExecContext exec(1, 4096);
      auto result = sessions[c]->Execute(statement, &exec);
      Row& row = (*counters)[c];
      row.rewrites_applied += exec.stats.rewrites_applied;
      row.fused_pipelines += exec.stats.fused_pipelines;
      row.plan_fallbacks += exec.stats.plan_fallbacks;
      if (!result.ok()) {
        std::fprintf(stderr, "gate: %s failed under %s: %s\n", statement,
                     configs[c].name, result.status().ToString().c_str());
        std::exit(1);
      }
      if (c == 0) {
        baseline = result->ToString();
      } else if (result->ToString() != baseline) {
        std::fprintf(stderr,
                     "gate: %s diverged from tree-walk under %s\n",
                     statement, configs[c].name);
        std::exit(1);
      }
    }
  }
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"mdql_plan\",\n  \"peak_rss_kb\": %zu,\n"
               "  \"session_statements\": %zu,\n  \"rows\": [\n",
               mddc_bench::PeakRssKb(), kSessionSize);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"facts\": %zu, \"config\": \"%s\", \"reps\": %zu, "
                 "\"wall_seconds\": %.4f, \"stmts_per_sec\": %.1f, "
                 "\"speedup_vs_tree_walk\": %.2f, "
                 "\"rewrites_applied\": %zu, \"fused_pipelines\": %zu, "
                 "\"plan_fallbacks\": %zu}%s\n",
                 r.facts, r.config.c_str(), r.reps, r.wall_seconds,
                 r.stmts_per_sec, r.speedup, r.rewrites_applied,
                 r.fused_pipelines, r.plan_fallbacks,
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
  std::vector<std::size_t> fact_counts;
  for (std::size_t facts :
       {std::size_t{10000}, std::size_t{100000}, std::size_t{1000000}}) {
    if (facts <= max_facts) fact_counts.push_back(facts);
  }
  if (fact_counts.empty() && max_facts > 0) fact_counts.push_back(max_facts);

  const std::vector<Config> configs = Configs();
  std::vector<Row> rows;
  for (std::size_t facts : fact_counts) {
    ClinicalMo clinical = BuildClinical(facts);
    // One session per configuration, all over the same MO copy.
    std::vector<std::unique_ptr<mdql::Session>> sessions;
    std::vector<mdql::Session*> session_ptrs;
    for (const Config& config : configs) {
      auto session = std::make_unique<mdql::Session>();
      session->set_compile_options(config.options);
      if (!session->Register("clinical", clinical.mo).ok()) {
        std::fprintf(stderr, "register failed\n");
        return 1;
      }
      session_ptrs.push_back(session.get());
      sessions.push_back(std::move(session));
    }
    std::vector<Row> first_pass;
    Gate(session_ptrs, configs, &first_pass);

    const std::size_t reps = facts >= 1000000 ? 3 : facts >= 100000 ? 10 : 30;
    double tree_walk_wall = 0.0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      Row row = first_pass[c];
      row.facts = facts;
      row.config = configs[c].name;
      row.reps = reps;
      // Warm-up rep: closure memos, rollup snapshots and arena chunks
      // build once; steady state is what sessions actually see.
      RunSession(*sessions[c], 1);
      row.wall_seconds = RunSession(*sessions[c], reps);
      row.stmts_per_sec =
          row.wall_seconds > 0.0
              ? static_cast<double>(reps * kSessionSize) / row.wall_seconds
              : 0.0;
      if (c == 0) tree_walk_wall = row.wall_seconds;
      row.speedup = row.wall_seconds > 0.0 && tree_walk_wall > 0.0
                        ? tree_walk_wall / row.wall_seconds
                        : 0.0;
      std::printf("facts=%-8zu %-15s %6zu stmts %8.3fs %9.1f stmts/s "
                  "%5.2fx  fused=%zu fallbacks=%zu rewrites=%zu\n",
                  row.facts, row.config.c_str(), reps * kSessionSize,
                  row.wall_seconds, row.stmts_per_sec, row.speedup,
                  row.fused_pipelines, row.plan_fallbacks,
                  row.rewrites_applied);
      std::fflush(stdout);
      rows.push_back(row);
    }
  }

  WriteJson(rows, "BENCH_plan.json");
  return 0;
}
