// Microbenchmarks (google-benchmark) for the core operations: violation
// detection, vertex-cover heuristics (the cover ablation of DESIGN.md),
// variant enumeration, suspect detection, and component solving — plus a
// serial-vs-parallel scaling section appended to BENCH_parallel.json.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "data/census.h"
#include "dc/incremental.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "graph/bounds.h"
#include "relation/encoded.h"
#include "solver/components.h"
#include "solver/csp_solver.h"
#include "solver/repair_context.h"
#include "variation/variant_generator.h"

namespace cvrepair {
namespace {

struct HospEnv {
  HospData hosp;
  NoisyData noisy;
  HospEnv() {
    HospConfig config;
    config.num_hospitals = 40;
    hosp = MakeHosp(config);
    NoiseConfig noise;
    noise.error_rate = 0.05;
    noise.target_attrs = hosp.noise_attrs;
    noisy = InjectNoise(hosp.clean, noise);
  }
};

HospEnv& Env() {
  static HospEnv* env = new HospEnv();
  return *env;
}

void BM_FindViolationsFd(benchmark::State& state) {
  HospEnv& env = Env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FindViolations(env.noisy.dirty, env.hosp.given_oversimplified));
  }
}
BENCHMARK(BM_FindViolationsFd);

void BM_FindViolationsOrderDc(benchmark::State& state) {
  CensusConfig config;
  config.num_rows = static_cast<int>(state.range(0));
  CensusData census = MakeCensus(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindViolations(census.clean, census.given));
  }
}
BENCHMARK(BM_FindViolationsOrderDc)->Arg(100)->Arg(200)->Arg(400);

void BM_VertexCover(benchmark::State& state) {
  HospEnv& env = Env();
  std::vector<Violation> violations =
      FindViolations(env.noisy.dirty, env.hosp.given_oversimplified);
  ConflictHypergraph g = ConflictHypergraph::Build(
      env.noisy.dirty, env.hosp.given_oversimplified, violations);
  CoverHeuristic heuristic = state.range(0) == 0
                                 ? CoverHeuristic::kLocalRatio
                                 : CoverHeuristic::kGreedyDegree;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproximateVertexCover(g, heuristic));
  }
}
BENCHMARK(BM_VertexCover)->Arg(0)->Arg(1);  // 0 = local ratio, 1 = greedy

void BM_SuspectsAndContext(benchmark::State& state) {
  HospEnv& env = Env();
  RepairCostBounds bounds =
      ComputeBounds(env.noisy.dirty, env.hosp.given_oversimplified);
  CellSet changing(bounds.cover_cells.begin(), bounds.cover_cells.end());
  for (auto _ : state) {
    std::vector<Violation> suspects =
        FindSuspects(env.noisy.dirty, env.hosp.given_oversimplified, changing);
    benchmark::DoNotOptimize(
        RepairContext::Build(env.noisy.dirty, env.hosp.given_oversimplified,
                             bounds.cover_cells, suspects));
  }
}
BENCHMARK(BM_SuspectsAndContext);

void BM_ComponentSolve(benchmark::State& state) {
  HospEnv& env = Env();
  RepairCostBounds bounds =
      ComputeBounds(env.noisy.dirty, env.hosp.given_oversimplified);
  CellSet changing(bounds.cover_cells.begin(), bounds.cover_cells.end());
  std::vector<Violation> suspects =
      FindSuspects(env.noisy.dirty, env.hosp.given_oversimplified, changing);
  RepairContext rc =
      RepairContext::Build(env.noisy.dirty, env.hosp.given_oversimplified,
                           bounds.cover_cells, suspects);
  std::vector<Component> components = DecomposeComponents(rc);
  DomainStats stats(env.noisy.dirty);
  for (auto _ : state) {
    int64_t fresh = 1;
    CspSolver solver(env.noisy.dirty, stats, CostModel{}, &fresh);
    double total = 0;
    for (const Component& comp : components) total += solver.Solve(comp).cost;
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ComponentSolve);

void BM_IncrementalVsFullDetection(benchmark::State& state) {
  // One repair-round's worth of cell changes, violations refreshed either
  // incrementally or from scratch.
  HospEnv& env = Env();
  const ConstraintSet& sigma = env.hosp.given_oversimplified;
  bool incremental = state.range(0) == 1;
  for (auto _ : state) {
    if (incremental) {
      ViolationIndex index(env.noisy.dirty, sigma);
      state.PauseTiming();  // exclude the initial build
      state.ResumeTiming();
      for (int i = 0; i < 20; ++i) {
        index.ApplyChange({i * 7 % env.noisy.dirty.num_rows(),
                           HospAttrs::kPhone},
                          Value::String("p" + std::to_string(i)));
      }
      benchmark::DoNotOptimize(index.CurrentViolations());
    } else {
      Relation current = env.noisy.dirty;
      for (int i = 0; i < 20; ++i) {
        current.SetValue(i * 7 % current.num_rows(), HospAttrs::kPhone,
                         Value::String("p" + std::to_string(i)));
        benchmark::DoNotOptimize(FindViolations(current, sigma));
      }
    }
  }
}
BENCHMARK(BM_IncrementalVsFullDetection)->Arg(0)->Arg(1);

void BM_VariantEnumeration(benchmark::State& state) {
  HospEnv& env = Env();
  VariantGenOptions options;
  options.theta = static_cast<double>(state.range(0));
  options.space = env.hosp.space;
  options.data = &env.noisy.dirty;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateSigmaVariants(
        env.hosp.given_oversimplified, env.noisy.dirty.schema(), options));
  }
}
BENCHMARK(BM_VariantEnumeration)->Arg(1)->Arg(2);

// Deterministic work-counter section for the perf-regression CI gate:
// one serial encoded violation scan per detector family (FD join, order
// DC) plus a full Vfree repair, snapshotted into micro_core_ops.metrics.json
// (compared against bench/baselines/micro_core_ops.json by
// tools/check_metrics.py).
void WriteCoreOpsMetrics() {
  bench::WriteWorkMetrics("micro_core_ops.metrics.json", [] {
    HospEnv& env = Env();
    FindViolations(EncodedRelation(env.noisy.dirty),
                   env.hosp.given_oversimplified);
    CensusConfig config;
    config.num_rows = 200;
    CensusData census = MakeCensus(config);
    FindViolations(EncodedRelation(census.clean), census.given);
    VfreeOptions options;
    options.threads = 1;
    RepairResult repair =
        VfreeRepair(env.noisy.dirty, env.hosp.given_oversimplified, options);
    PublishRepairStats(repair.stats);
  });
}

// Serial-vs-parallel wall-clock points for the three parallelized hot
// paths, appended to BENCH_parallel.json as JSON lines.
void ReportParallelScaling() {
  using bench::BenchJsonWriter;
  using bench::TimeAcrossThreads;

  std::cout << "\nthread scaling:\n";
  BenchJsonWriter json("BENCH_parallel.json");

  // O(n^2) order-DC scan (the no-join row-range shards).
  CensusConfig census_config;
  census_config.num_rows = 1500;
  CensusData census = MakeCensus(census_config);
  TimeAcrossThreads("micro_violations_order_dc", {1, 2, 4}, &json,
                    [&](int) {
                      benchmark::DoNotOptimize(
                          FindViolations(census.clean, census.given));
                    });

  // Full violation-free repair (parallel per-component solving).
  HospEnv& env = Env();
  TimeAcrossThreads("micro_vfree_repair", {1, 2, 4}, &json,
                    [&](int threads) {
                      VfreeOptions options;
                      options.threads = threads;
                      benchmark::DoNotOptimize(VfreeRepair(
                          env.noisy.dirty, env.hosp.given_oversimplified,
                          options));
                    });
}

}  // namespace
}  // namespace cvrepair

int main(int argc, char** argv) {
  cvrepair::WriteCoreOpsMetrics();
  if (cvrepair::bench::MetricsOnly()) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  cvrepair::ReportParallelScaling();
  return 0;
}
