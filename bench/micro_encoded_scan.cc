// Microbench for the dictionary-encoded columnar scan backend
// (relation/encoded.h): counts the per-predicate evaluation work of
// violation detection on HOSP (24 hospitals), then times the end-to-end
// CVTolerantRepair at 1 and 4 threads. Appends everything to
// BENCH_encoded_scan.json — counter records carry the evaluation mix
// (boxed vs coded evals), timing records the wall clock.
//
// A second section exercises the block kernels (dc/scan_kernels.h) on an
// Income-sorted CENSUS instance: selective order predicates and capped
// scans with zone-map pruning. Every encoded scan must match the boxed
// reference scan (dc/violation.h) exactly — violations, capped prefix and
// truncated flag — and the zone maps must skip blocks
// (eval.blocks_skipped > 0, pinned in the CI baseline).
#include "bench_util.h"

#include <algorithm>
#include <numeric>

#include "dc/violation.h"
#include "relation/encoded.h"

using namespace cvrepair;
using namespace cvrepair::bench;

namespace {

// Returns `I` with its rows stably reordered by `attr` (Value total
// order), so dictionary ranks are clustered per 1024-row column block and
// selective order predicates can prune whole blocks through the zone
// maps. Sorting is the bench's stand-in for the natural clustering of
// real ingest orders (log time, id ranges).
Relation SortedBy(const Relation& I, AttrId attr) {
  std::vector<int> order(I.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return I.Get(a, attr) < I.Get(b, attr);
  });
  Relation sorted(I.schema());
  for (int i : order) sorted.AddRow(I.row(i));
  return sorted;
}

}  // namespace

int main() {
  HospConfig config;
  config.num_hospitals = 24;
  config.measures_per_hospital = 16;
  HospData hosp = MakeHosp(config);
  NoisyData noisy = MakeDirtyHosp(hosp, 0.05);
  const ConstraintSet& sigma = hosp.given_oversimplified;

  // Zone-map workload: an Income-sorted CENSUS instance spanning several
  // column blocks (4500 rows = 4 full blocks + a partial tail) plus two
  // selective constraints anchored at the 95th income percentile — a
  // single-tuple order predicate and a guarded progressive-tax pair
  // constraint. On sorted data their rank ranges miss most blocks, which
  // is exactly what the zone maps are supposed to exploit.
  CensusConfig census_config;
  census_config.num_rows = 4500;
  CensusData census = MakeCensus(census_config);
  NoisyData census_noisy = MakeDirtyCensus(census, 0.05);
  Relation census_sorted = SortedBy(census_noisy.dirty, CensusAttrs::kIncome);
  int p95_row = static_cast<int>(census_sorted.num_rows() * 0.95);
  while (p95_row < census_sorted.num_rows() &&
         !census_sorted.Get(p95_row, CensusAttrs::kIncome).is_numeric()) {
    ++p95_row;
  }
  Value income_p95 = census_sorted.Get(p95_row, CensusAttrs::kIncome);
  ConstraintSet zone_sigma;
  zone_sigma.push_back(DenialConstraint(
      {Predicate::WithConstant(0, CensusAttrs::kIncome, Op::kGeq, income_p95)},
      "z1_income_p95"));
  zone_sigma.push_back(DenialConstraint(
      {Predicate::WithConstant(0, CensusAttrs::kIncome, Op::kGeq, income_p95),
       Predicate::TwoCell(0, CensusAttrs::kIncome, Op::kGt, 1,
                          CensusAttrs::kIncome),
       Predicate::TwoCell(0, CensusAttrs::kTax, Op::kLt, 1,
                          CensusAttrs::kTax)},
      "z2_progressive_p95"));
  EncodedRelation census_encoded(census_sorted);

  BenchJsonWriter json("BENCH_encoded_scan.json");

  auto run = [&](int threads) {
    CVTolerantOptions options = HospCvOptions(hosp, 1.0);
    options.threads = threads;
    options.max_datarepair_calls = 8;
    return CVTolerantRepair(noisy.dirty, sigma, options);
  };

  // Deterministic work-counter snapshot for the perf-regression CI gate
  // (tools/check_metrics.py vs bench/baselines/micro_encoded_scan.json):
  // one serial repair plus the zone-map detection workload. The baseline
  // pins eval.predicate_evals to zero — boxed Value evaluations
  // reappearing on this path is exactly the regression the encoded
  // backend exists to prevent — and eval.blocks_skipped to nonzero, so
  // the zone maps disengaging is equally a gate failure.
  WriteWorkMetrics("micro_encoded_scan.metrics.json", [&] {
    RepairResult repair = run(1);
    PublishRepairStats(repair.stats);
    FindViolations(census_encoded, zone_sigma);
  });
  if (MetricsOnly()) return 0;

  // ---- Detection work counters: one full encoded violation scan.
  EncodedRelation encoded(noisy.dirty);
  eval_counters::Reset();
  std::vector<Violation> coded_violations = FindViolations(encoded, sigma);
  EvalCounters coded = eval_counters::Snapshot();
  if (coded_violations != FindViolations(noisy.dirty, sigma)) {
    std::cerr << "FATAL: encoded scan diverged from the reference scan\n";
    return 1;
  }
  eval_counters::Reset();
  std::cout << "detection (" << noisy.dirty.num_rows() << " rows, "
            << coded_violations.size() << " violations): "
            << coded.predicate_evals << " Value evals, "
            << coded.code_predicate_evals << " code evals\n";
  json.RecordCounters("encoded_scan/detect/encoded",
                      {{"value_evals", coded.predicate_evals},
                       {"code_evals", coded.code_predicate_evals},
                       {"violations",
                        static_cast<int64_t>(coded_violations.size())}});

  // ---- Zone-map pruning on the sorted CENSUS workload, full scans and
  // capped scans. Violations (and the capped prefix + truncated flag)
  // must match the reference; the block kernels must skip blocks.
  {
    eval_counters::Reset();
    std::vector<Violation> blk_v = FindViolations(census_encoded, zone_sigma);
    EvalCounters blk_c = eval_counters::Snapshot();
    if (blk_v != FindViolations(census_sorted, zone_sigma)) {
      std::cerr << "FATAL: block-kernel scan diverged from the reference\n";
      return 1;
    }
    if (blk_c.blocks_skipped == 0) {
      std::cerr << "FATAL: zone maps skipped no blocks on sorted census\n";
      return 1;
    }
    std::cout << "zone maps (" << census_sorted.num_rows() << " rows, "
              << blk_v.size() << " violations): "
              << blk_c.code_predicate_evals << " code evals, "
              << blk_c.blocks_scanned << " blocks scanned, "
              << blk_c.blocks_skipped << " blocks skipped\n";
    json.RecordCounters("encoded_scan/zonemap/block",
                        {{"code_evals", blk_c.code_predicate_evals},
                         {"blocks_scanned", blk_c.blocks_scanned},
                         {"blocks_skipped", blk_c.blocks_skipped},
                         {"violations", static_cast<int64_t>(blk_v.size())}});

    // Capped scan: the exact-cap in-order-merge contract must survive the
    // block path — same prefix, same truncated flag.
    constexpr int64_t kCap = 32;
    eval_counters::Reset();
    bool blk_trunc = false;
    std::vector<Violation> blk_cap_v = FindViolationsOfCapped(
        census_encoded, zone_sigma[1], 1, kCap, &blk_trunc);
    EvalCounters blk_cap_c = eval_counters::Snapshot();
    bool ref_trunc = false;
    std::vector<Violation> ref_cap_v = FindViolationsOfCapped(
        census_sorted, zone_sigma[1], 1, kCap, &ref_trunc);
    eval_counters::Reset();
    if (blk_cap_v != ref_cap_v || blk_trunc != ref_trunc) {
      std::cerr << "FATAL: capped block scan diverged (truncated "
                << ref_trunc << " vs " << blk_trunc << ")\n";
      return 1;
    }
    // No code_evals field: eval_counters::AddScan drops a truncated scan's
    // eval counts by design (they depend on where each slice stopped), so
    // the capped row would always read 0.
    std::cout << "  capped (cap=" << kCap << ", truncated=" << blk_trunc
              << "): " << blk_cap_c.blocks_skipped << " blocks skipped\n";
    json.RecordCounters("encoded_scan/zonemap/capped_block",
                        {{"blocks_skipped", blk_cap_c.blocks_skipped},
                         {"truncated", blk_trunc ? 1 : 0}});
  }

  // ---- End-to-end repair work counters (facts scan + candidate solves).
  {
    eval_counters::Reset();
    RepairResult repair = run(1);
    EvalCounters c = eval_counters::Snapshot();
    eval_counters::Reset();
    std::cout << "cvtolerant repair (variants="
              << repair.stats.variants_enumerated << "): "
              << c.predicate_evals << " Value evals, "
              << repair.stats.index_code_evals << " code evals\n";
    json.RecordCounters("encoded_scan/repair/encoded",
                        {{"value_evals", c.predicate_evals},
                         {"code_evals", repair.stats.index_code_evals}});
  }

  // ---- Wall clock, best of three, at 1 and 4 threads.
  TimeAcrossThreads("encoded_scan/repair/encoded", {1, 4}, &json,
                    [&](int threads) { run(threads); });
  return 0;
}
