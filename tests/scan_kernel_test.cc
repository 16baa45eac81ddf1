// Equivalence contract of the block scan kernels (dc/scan_kernels.h):
//
//  * kernel level — EvalBlock must be bit-identical between the scalar
//    reference and the SIMD paths on randomized codes/ranks, including
//    sentinel-heavy and partial-tail blocks, and MayMatch == false must
//    imply an all-zero selection bitmap (zone-map skips are sound);
//  * scan level — FindViolations / FindViolationsOfCapped / FindSuspects
//    on every dataset generator must reproduce the boxed reference scans
//    (violations, capped prefixes, truncated flags; suspects as a set),
//    with thread-invariant work counters, across SIMD on/off and 1 vs 4
//    threads;
//  * maintenance level — all-NULL / all-fresh / tail blocks scan
//    correctly, zone maps follow ApplyChange (including dictionary-epoch
//    bumps mid-workload), and ViolationIndex recompiles exactly the
//    per-attribute-stale evaluators (the recompilation regression).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "data/census.h"
#include "data/gps.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "dc/incremental.h"
#include "dc/scan_kernels.h"
#include "dc/violation.h"
#include "relation/encoded.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

using scan_kernels::BlockPredicate;

// ---------------------------------------------------------------------------
// Kernel level: randomized scalar-vs-SIMD equivalence and skip soundness.
// ---------------------------------------------------------------------------

// A synthetic dictionary rank array: `dict_size` codes split over the two
// comparison classes, each class ranked by a shuffled permutation — the
// same invariants (packed class|rank, distinct ranks per class) a real
// Dictionary maintains.
std::vector<int32_t> MakeRanks(int dict_size, std::mt19937* rng) {
  std::vector<int32_t> cls(dict_size);
  for (int& c : cls) c = static_cast<int>((*rng)() % 2);
  std::vector<int32_t> ranks(dict_size);
  for (int c = 0; c < 2; ++c) {
    std::vector<int> members;
    for (int i = 0; i < dict_size; ++i) {
      if (cls[i] == c) members.push_back(i);
    }
    std::shuffle(members.begin(), members.end(), *rng);
    for (size_t r = 0; r < members.size(); ++r) {
      ranks[members[r]] =
          (c << Dictionary::kRankBits) | static_cast<int32_t>(r);
    }
  }
  return ranks;
}

std::vector<Code> MakeCodes(int n, int dict_size, double sentinel_rate,
                            std::mt19937* rng) {
  std::vector<Code> codes(n);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (Code& c : codes) {
    if (coin(*rng) < sentinel_rate) {
      c = coin(*rng) < 0.5 ? kNullCode : kFreshCode;
    } else {
      c = static_cast<Code>((*rng)() % dict_size);
    }
  }
  return codes;
}

BlockPredicate RandomPredicate(int dict_size, const std::vector<int32_t>& ranks,
                               std::mt19937* rng) {
  BlockPredicate p;
  Code c = static_cast<Code>((*rng)() % dict_size);
  switch ((*rng)() % 4) {
    case 0:
      p.kind = BlockPredicate::Kind::kNever;
      break;
    case 1:
      p.kind = BlockPredicate::Kind::kEqCode;
      p.code = c;
      break;
    case 2:
      p.kind = BlockPredicate::Kind::kNeqCode;
      p.code = c;
      p.cls = ranks[c] >> Dictionary::kRankBits;
      break;
    default: {
      p.kind = BlockPredicate::Kind::kRankRange;
      int32_t a = ranks[static_cast<Code>((*rng)() % dict_size)];
      int32_t b = ranks[c];
      p.lo = std::min(a, b);
      p.hi = std::max(a, b);
      break;
    }
  }
  return p;
}

class SimdToggle {
 public:
  explicit SimdToggle(bool enabled) { scan_kernels::SetSimdEnabled(enabled); }
  ~SimdToggle() { scan_kernels::SetSimdEnabled(true); }
};

TEST(ScanKernelTest, ScalarAndSimdBitmapsAreBitIdentical) {
  std::mt19937 rng(17);
  const int kDict = 200;
  std::vector<int32_t> ranks = MakeRanks(kDict, &rng);
  // Lane counts straddling every vector width and bitmap-word boundary,
  // plus full and near-full blocks.
  const int kLaneCounts[] = {0, 1, 3, 7, 8, 9, 15, 16, 63,
                             64, 65, 100, 1000, 1023, 1024};
  for (double sentinel_rate : {0.0, 0.3, 1.0}) {
    for (int n : kLaneCounts) {
      std::vector<Code> codes = MakeCodes(n, kDict, sentinel_rate, &rng);
      for (int trial = 0; trial < 8; ++trial) {
        BlockPredicate p = RandomPredicate(kDict, ranks, &rng);
        uint64_t scalar_bm[EncodedRelation::kBlockSize / 64];
        uint64_t simd_bm[EncodedRelation::kBlockSize / 64];
        {
          SimdToggle off(false);
          scan_kernels::EvalBlock(p, codes.data(), n, ranks.data(), scalar_bm);
        }
        {
          SimdToggle on(true);
          scan_kernels::EvalBlock(p, codes.data(), n, ranks.data(), simd_bm);
        }
        int words = (n + 63) / 64;
        for (int w = 0; w < words; ++w) {
          ASSERT_EQ(scalar_bm[w], simd_bm[w])
              << "n=" << n << " sentinel_rate=" << sentinel_rate
              << " kind=" << static_cast<int>(p.kind) << " word=" << w;
        }
      }
    }
  }
}

TEST(ScanKernelTest, MayMatchFalseImpliesEmptyBitmap) {
  std::mt19937 rng(23);
  const int kDict = 64;
  std::vector<int32_t> ranks = MakeRanks(kDict, &rng);
  int skipped = 0;
  for (int trial = 0; trial < 500; ++trial) {
    int n = 1 + static_cast<int>(rng() % EncodedRelation::kBlockSize);
    // Narrow code range per block so zones actually exclude predicates.
    int lo_code = static_cast<int>(rng() % kDict);
    int width = 1 + static_cast<int>(rng() % 8);
    std::vector<Code> codes(n);
    for (Code& c : codes) {
      c = rng() % 10 == 0
              ? kNullCode
              : static_cast<Code>(lo_code + rng() % width) % kDict;
    }
    int32_t zone_min = 0, zone_max = 0;
    scan_kernels::ComputeZone(codes.data(), n, ranks.data(), &zone_min,
                              &zone_max);
    BlockPredicate p = RandomPredicate(kDict, ranks, &rng);
    if (scan_kernels::MayMatch(p, zone_min, zone_max, ranks.data())) continue;
    ++skipped;
    uint64_t bm[EncodedRelation::kBlockSize / 64];
    scan_kernels::EvalBlock(p, codes.data(), n, ranks.data(), bm);
    for (int w = 0; w < (n + 63) / 64; ++w) {
      ASSERT_EQ(bm[w], 0u) << "zone-skipped predicate matched a lane";
    }
  }
  // The trial mix must actually exercise skips for the test to mean much.
  EXPECT_GT(skipped, 50);
}

TEST(ScanKernelTest, CompileProbeSentinelIsNever) {
  std::mt19937 rng(29);
  std::vector<int32_t> ranks = MakeRanks(16, &rng);
  for (Code sentinel : {kNullCode, kFreshCode, kAbsentCode}) {
    for (Op op : {Op::kEq, Op::kNeq, Op::kLt, Op::kGeq}) {
      BlockPredicate p =
          scan_kernels::CompileProbe(op, false, sentinel, ranks.data());
      EXPECT_EQ(p.kind, BlockPredicate::Kind::kNever);
    }
  }
}

// ---------------------------------------------------------------------------
// Scan level: end-to-end equivalence across every generator and backend
// configuration.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  Relation dirty;
  ConstraintSet sigma;
};

NoisyData Corrupt(const Relation& clean, const std::vector<AttrId>& attrs) {
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.target_attrs = attrs;
  noise.seed = 7;
  return InjectNoise(clean, noise);
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> workloads;

  HospConfig hosp_config;
  hosp_config.num_hospitals = 12;
  HospData hosp = MakeHosp(hosp_config);
  workloads.push_back({"hosp", Corrupt(hosp.clean, hosp.noise_attrs).dirty,
                       hosp.given_oversimplified});

  CensusConfig census_config;
  census_config.num_rows = 120;
  CensusData census = MakeCensus(census_config);
  workloads.push_back(
      {"census", Corrupt(census.clean, census.noise_attrs).dirty,
       census.given});

  GpsConfig gps_config;
  gps_config.num_points = 150;
  GpsData gps = MakeGps(gps_config);
  workloads.push_back({"gps", gps.dirty, gps.given});

  TaxConfig tax_config;
  tax_config.num_rows = 100;
  TaxData tax = MakeTax(tax_config);
  workloads.push_back(
      {"tax", Corrupt(tax.clean, tax.noise_attrs).dirty, tax.given});

  return workloads;
}

struct ScanOutcome {
  std::vector<Violation> violations;
  std::vector<Violation> capped;
  bool truncated = false;
  std::vector<Violation> suspects;
  EvalCounters counters;
};

// Runs every scan on `source` — the EncodedRelation or, for the
// reference outcome, the boxed Relation. Suspects are sorted: the
// reference documents its own order.
template <typename Source>
ScanOutcome RunScans(const Workload& w, const Source& source, bool simd,
                     int threads) {
  SimdToggle st(simd);
  ThreadPool::SetNumThreads(threads);
  eval_counters::Reset();
  ScanOutcome out;
  out.violations = FindViolations(source, w.sigma);
  for (size_t k = 0; k < w.sigma.size(); ++k) {
    bool truncated = false;
    std::vector<Violation> capped = FindViolationsOfCapped(
        source, w.sigma[k], static_cast<int>(k), 5, &truncated);
    out.capped.insert(out.capped.end(), capped.begin(), capped.end());
    out.truncated = out.truncated || truncated;
  }
  CellSet changing;
  for (int r = 0; r < std::min(4, source.num_rows()); ++r) {
    changing.insert(Cell{r, 0});
  }
  out.suspects = FindSuspects(source, w.sigma, changing);
  std::sort(out.suspects.begin(), out.suspects.end(),
            [](const Violation& a, const Violation& b) {
              if (a.constraint_index != b.constraint_index) {
                return a.constraint_index < b.constraint_index;
              }
              return a.rows < b.rows;
            });
  out.counters = eval_counters::Snapshot();
  eval_counters::Reset();
  ThreadPool::SetNumThreads(1);
  return out;
}

TEST(ScanKernelEquivalenceTest, AllGeneratorsAllBackendsAllThreadCounts) {
  for (const Workload& w : MakeWorkloads()) {
    SCOPED_TRACE(w.name);
    EncodedRelation E(w.dirty);

    // Reference: the boxed reference scans (serial by construction).
    ScanOutcome reference = RunScans(w, w.dirty, /*simd=*/false,
                                     /*threads=*/1);
    ASSERT_FALSE(reference.violations.empty() && reference.suspects.empty())
        << "workload exercises nothing";

    struct Config {
      bool simd;
      int threads;
    };
    const Config configs[] = {{false, 1}, {false, 4}, {true, 1}, {true, 4}};
    // Work counters are identical in every configuration.
    std::optional<EvalCounters> counters;
    for (const Config& c : configs) {
      SCOPED_TRACE(std::string("simd=") + (c.simd ? "on" : "off") +
                   " threads=" + std::to_string(c.threads));
      ScanOutcome got = RunScans(w, E, c.simd, c.threads);
      EXPECT_EQ(got.violations, reference.violations);
      EXPECT_EQ(got.capped, reference.capped);
      EXPECT_EQ(got.truncated, reference.truncated);
      EXPECT_EQ(got.suspects, reference.suspects);
      if (!counters) counters = got.counters;
      EXPECT_TRUE(*counters == got.counters)
          << "work counters vary with SIMD or --threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Maintenance level: degenerate blocks, zone maps under ApplyChange,
// epoch-keyed recompilation.
// ---------------------------------------------------------------------------

// A three-attribute relation spanning several blocks with degenerate
// regions: block 1 all-NULL in attr 1, block 2 all-fresh in attr 1, and a
// partial tail block.
Relation MakeBlockyRelation(int rows) {
  Schema schema({{"A", AttrType::kInt},
                 {"B", AttrType::kInt},
                 {"C", AttrType::kString}});
  Relation I(schema);
  constexpr int kB = EncodedRelation::kBlockSize;
  for (int r = 0; r < rows; ++r) {
    Value b;
    int block = r / kB;
    if (block == 1) {
      b = Value::Null();
    } else if (block == 2) {
      b = I.NextFresh();
    } else {
      b = Value::Int(r % 97);
    }
    I.AddRow({Value::Int(r % 31), b,
              Value::String(std::string("s") + std::to_string(r % 13))});
  }
  return I;
}

ConstraintSet BlockySigma() {
  ConstraintSet sigma;
  sigma.push_back(DenialConstraint::FromFd({0}, 1, "A->B"));
  sigma.push_back(DenialConstraint(
      {Predicate::WithConstant(0, 1, Op::kGeq, Value::Int(90))}, "B>=90"));
  return sigma;
}

TEST(ScanKernelMaintenanceTest, DegenerateBlocksMatchBoxedScan) {
  // 3.5 blocks: full, all-NULL, all-fresh, partial tail.
  Relation I = MakeBlockyRelation(3 * EncodedRelation::kBlockSize + 500);
  ConstraintSet sigma = BlockySigma();
  EncodedRelation E(I);

  EXPECT_TRUE(E.block_meta(1, 1).all_sentinel());
  EXPECT_TRUE(E.block_meta(1, 1).has_sentinel);
  EXPECT_TRUE(E.block_meta(1, 2).all_sentinel());
  EXPECT_EQ(E.num_blocks(), 4);
  EXPECT_EQ(E.block_rows(3), 500);

  std::vector<Violation> boxed = FindViolations(I, sigma);
  std::vector<Violation> blocked = FindViolations(E, sigma);
  EXPECT_EQ(boxed, blocked);
}

TEST(ScanKernelMaintenanceTest, ZoneMapsFollowApplyChange) {
  Relation I = MakeBlockyRelation(2 * EncodedRelation::kBlockSize + 100);
  ConstraintSet sigma = BlockySigma();
  EncodedRelation E(I);

  // In-dictionary change: only the touched block's meta moves.
  uint64_t attr_epoch_before = E.attr_epoch(1);
  I.SetValue(3, 1, Value::Int(5));
  E.ApplyChange(3, 1);
  EXPECT_EQ(E.attr_epoch(1), attr_epoch_before);
  EXPECT_TRUE(E.in_sync());
  EXPECT_EQ(FindViolations(E, sigma), FindViolations(I, sigma));

  // Dictionary-growing change mid-workload: attr epoch bumps, ranks
  // shift, and the whole column's zone maps must still be sound.
  I.SetValue(7, 1, Value::Int(-1000));
  E.ApplyChange(7, 1);
  EXPECT_GT(E.attr_epoch(1), attr_epoch_before);
  EXPECT_EQ(E.block_meta(1, 0).min_rank,
            E.dict(1).rank(E.code(7, 1)));
  EXPECT_EQ(FindViolations(E, sigma), FindViolations(I, sigma));

  // The all-NULL block becomes mixed once one cell gains a value.
  int null_row = EncodedRelation::kBlockSize + 10;
  I.SetValue(null_row, 1, Value::Int(50));
  E.ApplyChange(null_row, 1);
  EXPECT_FALSE(E.block_meta(1, 1).all_sentinel());
  EXPECT_TRUE(E.block_meta(1, 1).has_sentinel);
  EXPECT_EQ(FindViolations(E, sigma), FindViolations(I, sigma));
}

TEST(ScanKernelMaintenanceTest, RecompilesOnlyConstraintsReadingTheAttr) {
  // Two constraints over disjoint attribute sets: the FD reads A and B,
  // the constant constraint reads only B, and a third reads only C.
  Schema schema({{"A", AttrType::kInt},
                 {"B", AttrType::kInt},
                 {"C", AttrType::kInt}});
  Relation I(schema);
  for (int r = 0; r < 64; ++r) {
    I.AddRow({Value::Int(r % 5), Value::Int(r % 7), Value::Int(r % 11)});
  }
  ConstraintSet sigma;
  sigma.push_back(DenialConstraint::FromFd({0}, 1, "A->B"));
  sigma.push_back(DenialConstraint(
      {Predicate::WithConstant(0, 2, Op::kGt, Value::Int(8))}, "C>8"));

  ViolationIndex index(I, sigma);
  int64_t base = index.evals_recompiled();
  EXPECT_GE(base, static_cast<int64_t>(sigma.size()));  // initial compile

  // Change within attribute C's existing domain: no dictionary growth,
  // nothing recompiles.
  index.ApplyChange(Cell{0, 2}, Value::Int(3));
  EXPECT_EQ(index.evals_recompiled(), base);

  // New value on C: only the C-reading constraint recompiles — the
  // regression was keying staleness on a global epoch, which recompiled
  // every constraint (evals_recompiled would jump by sigma.size()).
  index.ApplyChange(Cell{1, 2}, Value::Int(1000));
  EXPECT_EQ(index.evals_recompiled(), base + 1);

  // New value on B: both B-readers... only the FD reads B; C>8 untouched.
  index.ApplyChange(Cell{2, 1}, Value::Int(2000));
  EXPECT_EQ(index.evals_recompiled(), base + 2);

  // New value on A: again exactly one recompile.
  index.ApplyChange(Cell{3, 0}, Value::Int(3000));
  EXPECT_EQ(index.evals_recompiled(), base + 3);
}

}  // namespace
}  // namespace cvrepair
