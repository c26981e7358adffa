// Mixed-granularity registration (requirement 9): facts related directly
// to higher-level dimension values. Compares aggregation cost and
// demonstrates that coarse registrations participate correctly in
// group-level analysis (and are excluded from finer levels, as they
// must be).
//
//   $ ./bench/bench_granularity

#include <benchmark/benchmark.h>

#include <iostream>
#include <set>

#include "algebra/operators.h"
#include "workload/clinical_generator.h"

namespace {

using namespace mddc;

ClinicalMo BuildWorkload(double coarse_rate) {
  ClinicalWorkloadParams params;
  params.num_patients = 400;
  params.num_groups = 4;
  params.coarse_granularity_rate = coarse_rate;
  params.reclassified_rate = 0.0;
  params.uncertain_rate = 0.0;
  return std::move(
             GenerateClinicalWorkload(params,
                                      std::make_shared<FactRegistry>()))
      .ValueOrDie();
}

AggregateSpec SpecAt(const ClinicalMo& workload, CategoryTypeIndex level) {
  AggregateSpec spec{AggFunction::SetCount(), {}, ResultDimensionSpec::Auto(),
                     kNowChronon, true};
  for (std::size_t i = 0; i < workload.mo.dimension_count(); ++i) {
    spec.grouping.push_back(i == workload.diagnosis_dim
                                ? level
                                : workload.mo.dimension(i).type().top());
  }
  return spec;
}

std::size_t PatientsCovered(const MdObject& aggregated) {
  std::set<FactId> patients;
  for (FactId group : aggregated.facts()) {
    auto term = aggregated.registry()->Get(group);
    for (FactId member : term->members()) patients.insert(member);
  }
  return patients.size();
}

void PrintGranularitySummary() {
  std::cout << "Coverage by aggregation level (400 patients):\n";
  std::cout << "  coarse-rate | covered at Low level | covered at Group "
               "level\n";
  for (double rate : {0.0, 0.3, 0.6}) {
    ClinicalMo workload = BuildWorkload(rate);
    auto at_low =
        AggregateFormation(workload.mo, SpecAt(workload, workload.low_level));
    auto at_group =
        AggregateFormation(workload.mo, SpecAt(workload, workload.group));
    std::cout << "  " << rate << "         | " << PatientsCovered(*at_low)
              << "                  | " << PatientsCovered(*at_group)
              << "\n";
  }
  std::cout << "  -> family-level registrations drop out of low-level "
               "analysis (they carry no low-level information) but count "
               "fully at group level.\n\n";
}

void BM_GroupAggregateByCoarseRate(benchmark::State& state) {
  double rate = static_cast<double>(state.range(0)) / 100.0;
  ClinicalMo workload = BuildWorkload(rate);
  AggregateSpec spec = SpecAt(workload, workload.group);
  for (auto _ : state) {
    auto result = AggregateFormation(workload.mo, spec);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GroupAggregateByCoarseRate)->Arg(0)->Arg(30)->Arg(60);

void BM_FamilyAggregateByCoarseRate(benchmark::State& state) {
  double rate = static_cast<double>(state.range(0)) / 100.0;
  ClinicalMo workload = BuildWorkload(rate);
  AggregateSpec spec = SpecAt(workload, workload.family);
  for (auto _ : state) {
    auto result = AggregateFormation(workload.mo, spec);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FamilyAggregateByCoarseRate)->Arg(0)->Arg(60);

}  // namespace

int main(int argc, char** argv) {
  PrintGranularitySummary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
