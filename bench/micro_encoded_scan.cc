// Microbench for the dictionary-encoded columnar scan backend
// (relation/encoded.h): counts the per-predicate evaluation work of
// violation detection on HOSP (24 hospitals) with boxed Values versus
// integer codes, then times the end-to-end CVTolerantRepair with the
// backend on and off at 1 and 4 threads. Appends everything to
// BENCH_encoded_scan.json — counter records carry the comparison mix
// (boxed vs coded evals), timing records the wall clock.
//
// The acceptance claim lives in the counter records: the encoded scan
// must cut boxed-Value predicate evaluations by at least 2x (it keeps
// only the cross-attribute fallbacks), shifting the rest to integer
// code comparisons.
//
// A second section exercises the block-kernel backend (dc/scan_kernels.h)
// on an Income-sorted CENSUS instance: selective order predicates and
// capped scans, row-at-a-time vs block kernels with zone-map pruning.
// The block path must produce identical violations while skipping blocks
// (eval.blocks_skipped > 0, pinned in the CI baseline) and doing strictly
// fewer code-predicate evaluations.
#include "bench_util.h"

#include <algorithm>
#include <numeric>

#include "dc/scan_kernels.h"
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

  auto run = [&](bool use_encoded, int threads) {
    CVTolerantOptions options = HospCvOptions(hosp, 1.0);
    options.use_encoded = use_encoded;
    options.threads = threads;
    options.max_datarepair_calls = 8;
    return CVTolerantRepair(noisy.dirty, sigma, options);
  };

  // Deterministic work-counter snapshot for the perf-regression CI gate
  // (tools/check_metrics.py vs bench/baselines/micro_encoded_scan.json):
  // one serial encoded repair plus the zone-map detection workload. The
  // baseline pins eval.predicate_evals to zero — boxed Value evaluations
  // reappearing on this path is exactly the regression the encoded
  // backend exists to prevent — and eval.blocks_skipped to nonzero, so
  // the zone maps disengaging is equally a gate failure.
  WriteWorkMetrics("micro_encoded_scan.metrics.json", [&] {
    RepairResult repair = run(true, 1);
    PublishRepairStats(repair.stats);
    FindViolations(census_encoded, zone_sigma);
  });
  if (MetricsOnly()) return 0;

  // ---- Detection work counters: one full violation scan per backend.
  EncodedRelation encoded(noisy.dirty);
  eval_counters::Reset();
  std::vector<Violation> boxed_violations = FindViolations(noisy.dirty, sigma);
  EvalCounters boxed = eval_counters::Snapshot();
  eval_counters::Reset();
  std::vector<Violation> coded_violations = FindViolations(encoded, sigma);
  EvalCounters coded = eval_counters::Snapshot();
  eval_counters::Reset();
  if (boxed_violations != coded_violations) {
    std::cerr << "FATAL: encoded scan diverged from boxed scan\n";
    return 1;
  }

  std::cout << "detection (" << noisy.dirty.num_rows() << " rows, "
            << boxed_violations.size() << " violations)\n"
            << "  boxed backend:   " << boxed.predicate_evals
            << " Value evals, " << boxed.code_predicate_evals
            << " code evals\n"
            << "  encoded backend: " << coded.predicate_evals
            << " Value evals, " << coded.code_predicate_evals
            << " code evals\n";
  json.RecordCounters("encoded_scan/detect/boxed",
                      {{"value_evals", boxed.predicate_evals},
                       {"code_evals", boxed.code_predicate_evals},
                       {"violations",
                        static_cast<int64_t>(boxed_violations.size())}});
  json.RecordCounters("encoded_scan/detect/encoded",
                      {{"value_evals", coded.predicate_evals},
                       {"code_evals", coded.code_predicate_evals},
                       {"violations",
                        static_cast<int64_t>(coded_violations.size())}});

  // ---- Zone-map pruning: row-at-a-time vs block kernels on the sorted
  // CENSUS workload, full scans and capped scans. Violations (and the
  // capped prefix + truncated flag) must be identical; the block path
  // must skip blocks and do strictly fewer code-predicate evaluations.
  {
    auto scan = [&](bool block_scan) {
      scan_kernels::SetBlockScanEnabled(block_scan);
      eval_counters::Reset();
      std::vector<Violation> v = FindViolations(census_encoded, zone_sigma);
      EvalCounters c = eval_counters::Snapshot();
      eval_counters::Reset();
      scan_kernels::SetBlockScanEnabled(true);
      return std::make_pair(v, c);
    };
    auto [row_v, row_c] = scan(false);
    auto [blk_v, blk_c] = scan(true);
    if (row_v != blk_v) {
      std::cerr << "FATAL: block-kernel scan diverged from row-at-a-time\n";
      return 1;
    }
    if (blk_c.blocks_skipped == 0) {
      std::cerr << "FATAL: zone maps skipped no blocks on sorted census\n";
      return 1;
    }
    if (blk_c.code_predicate_evals >= row_c.code_predicate_evals) {
      std::cerr << "FATAL: block kernels did not cut code evals ("
                << blk_c.code_predicate_evals << " vs "
                << row_c.code_predicate_evals << ")\n";
      return 1;
    }
    std::cout << "zone maps (" << census_sorted.num_rows() << " rows, "
              << row_v.size() << " violations)\n"
              << "  row-at-a-time:   " << row_c.code_predicate_evals
              << " code evals\n"
              << "  block kernels:   " << blk_c.code_predicate_evals
              << " code evals, " << blk_c.blocks_scanned
              << " blocks scanned, " << blk_c.blocks_skipped
              << " blocks skipped\n";
    json.RecordCounters("encoded_scan/zonemap/row",
                        {{"code_evals", row_c.code_predicate_evals},
                         {"violations", static_cast<int64_t>(row_v.size())}});
    json.RecordCounters("encoded_scan/zonemap/block",
                        {{"code_evals", blk_c.code_predicate_evals},
                         {"blocks_scanned", blk_c.blocks_scanned},
                         {"blocks_skipped", blk_c.blocks_skipped},
                         {"violations", static_cast<int64_t>(blk_v.size())}});

    // Capped scan: the exact-cap in-order-merge contract must survive the
    // block path — same prefix, same truncated flag.
    auto capped = [&](bool block_scan, int64_t cap) {
      scan_kernels::SetBlockScanEnabled(block_scan);
      eval_counters::Reset();
      bool truncated = false;
      std::vector<Violation> v = FindViolationsOfCapped(
          census_encoded, zone_sigma[1], 1, cap, &truncated);
      EvalCounters c = eval_counters::Snapshot();
      eval_counters::Reset();
      scan_kernels::SetBlockScanEnabled(true);
      return std::make_tuple(v, truncated, c);
    };
    constexpr int64_t kCap = 32;
    auto [row_cap_v, row_trunc, row_cap_c] = capped(false, kCap);
    auto [blk_cap_v, blk_trunc, blk_cap_c] = capped(true, kCap);
    if (row_cap_v != blk_cap_v || row_trunc != blk_trunc) {
      std::cerr << "FATAL: capped block scan diverged (truncated "
                << row_trunc << " vs " << blk_trunc << ")\n";
      return 1;
    }
    std::cout << "  capped (cap=" << kCap << ", truncated=" << blk_trunc
              << "): row " << row_cap_c.code_predicate_evals
              << " code evals, block " << blk_cap_c.code_predicate_evals
              << " code evals\n";
    json.RecordCounters("encoded_scan/zonemap/capped_row",
                        {{"code_evals", row_cap_c.code_predicate_evals},
                         {"truncated", row_trunc ? 1 : 0}});
    json.RecordCounters("encoded_scan/zonemap/capped_block",
                        {{"code_evals", blk_cap_c.code_predicate_evals},
                         {"blocks_skipped", blk_cap_c.blocks_skipped},
                         {"truncated", blk_trunc ? 1 : 0}});
  }

  // ---- End-to-end repair work counters (facts scan + candidate solves).
  {
    RepairResult with = run(true, 1);
    RepairResult without = run(false, 1);
    std::cout << "cvtolerant repair (variants="
              << with.stats.variants_enumerated << ")\n"
              << "  boxed backend:   " << without.stats.index_predicate_evals
              << " Value evals, " << without.stats.index_code_evals
              << " code evals\n"
              << "  encoded backend: " << with.stats.index_predicate_evals
              << " Value evals, " << with.stats.index_code_evals
              << " code evals\n";
    json.RecordCounters("encoded_scan/repair/boxed",
                        {{"value_evals", without.stats.index_predicate_evals},
                         {"code_evals", without.stats.index_code_evals}});
    json.RecordCounters("encoded_scan/repair/encoded",
                        {{"value_evals", with.stats.index_predicate_evals},
                         {"code_evals", with.stats.index_code_evals}});

    // The acceptance floor: >= 2x fewer boxed Value evaluations.
    if (coded.predicate_evals * 2 > boxed.predicate_evals ||
        with.stats.index_predicate_evals * 2 >
            without.stats.index_predicate_evals) {
      std::cerr << "FATAL: encoded backend did not halve boxed evals\n";
      return 1;
    }
  }

  // ---- Wall clock, best of three, at 1 and 4 threads.
  TimeAcrossThreads("encoded_scan/repair/encoded", {1, 4}, &json,
                    [&](int threads) { run(true, threads); });
  TimeAcrossThreads("encoded_scan/repair/boxed", {1, 4}, &json,
                    [&](int threads) { run(false, threads); });
  return 0;
}
