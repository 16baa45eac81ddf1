// Cross-checking fuzz tests: repair-context compression vs uncompressed
// feasibility, parser round-trips on random constraints, and metric
// invariants on random repairs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/parser.h"
#include "eval/metrics.h"
#include "paper_example.h"
#include "repair/vfree.h"
#include "solver/components.h"
#include "solver/csp_solver.h"
#include "solver/repair_context.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;

// Iteration budget: CVREPAIR_FUZZ_ITERS scales the seed ranges and the
// per-seed trial counts (default 1x). The nightly workflow raises it to
// sweep far more of the random space than a per-PR run can afford. Read
// once at static-init time — INSTANTIATE_TEST_SUITE_P evaluates its
// ranges then.
int FuzzScale() {
  static const int scale = [] {
    const char* v = std::getenv("CVREPAIR_FUZZ_ITERS");
    int s = (v != nullptr && v[0] != '\0') ? std::atoi(v) : 1;
    return s > 0 ? s : 1;
  }();
  return scale;
}

// ---------- Parser round-trip on random constraints ----------

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, ToStringParsesBackToTheSameConstraint) {
  std::mt19937_64 rng(GetParam() * 271);
  Relation rel = PaperIncomeRelation();
  const Schema& schema = rel.schema();
  std::uniform_int_distribution<int> attr_pick(0, schema.num_attributes() - 1);
  std::uniform_int_distribution<int> op_pick(0, kNumOps - 1);
  std::uniform_int_distribution<int> pred_count(1, 4);
  std::uniform_int_distribution<int> shape(0, 2);
  std::uniform_int_distribution<int> const_pick(0, 99);

  for (int trial = 0; trial < 25 * FuzzScale(); ++trial) {
    std::vector<Predicate> preds;
    int m = pred_count(rng);
    for (int i = 0; i < m; ++i) {
      AttrId a = attr_pick(rng);
      Op op = AllOps()[op_pick(rng)];
      switch (shape(rng)) {
        case 0:
          preds.push_back(Predicate::TwoCell(0, a, op, 1, a));
          break;
        case 1:
          preds.push_back(Predicate::TwoCell(0, a, op, 1, attr_pick(rng)));
          break;
        default: {
          Value c;
          switch (schema.type(a)) {
            case AttrType::kString:
              c = Value::String("v" + std::to_string(const_pick(rng)));
              break;
            case AttrType::kInt:
              c = Value::Int(const_pick(rng));
              break;
            case AttrType::kDouble:
              c = Value::Double(const_pick(rng));
              break;
          }
          preds.push_back(Predicate::WithConstant(0, a, op, c));
        }
      }
    }
    DenialConstraint original(preds);
    ParseConstraintResult round =
        ParseConstraint(schema, original.ToString(schema));
    ASSERT_TRUE(round.ok())
        << original.ToString(schema) << ": " << round.error;
    EXPECT_EQ(*round.constraint, original) << original.ToString(schema);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range(1, 1 + 6 * FuzzScale()));

// ---------- Context compression preserves feasible sets ----------

class CompressionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CompressionFuzz, CompressedContextsAcceptTheSameValues) {
  // Build contexts for random covers over the paper instance and check
  // that a solver solution for the compressed context also satisfies
  // every *uncompressed* inverse predicate (i.e., really repairs).
  std::mt19937_64 rng(GetParam() * 337);
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {testing_fixture::Phi4(rel),
                         testing_fixture::Phi2(rel)};
  AttrId tax = *rel.schema().Find("Tax");
  AttrId cp = *rel.schema().Find("CP");
  std::uniform_int_distribution<int> row_pick(0, rel.num_rows() - 1);

  std::vector<Cell> changing;
  for (int i = 0; i < 3; ++i) {
    changing.push_back({row_pick(rng), tax});
    changing.push_back({row_pick(rng), cp});
  }
  std::sort(changing.begin(), changing.end());
  changing.erase(std::unique(changing.begin(), changing.end()),
                 changing.end());

  CellSet cs(changing.begin(), changing.end());
  std::vector<Violation> suspects = FindSuspects(rel, sigma, cs);
  RepairContext rc = RepairContext::Build(rel, sigma, changing, suspects);

  DomainStats stats(rel);
  int64_t fresh = 1;
  CspSolver solver(rel, stats, CostModel{}, &fresh);
  Relation repaired = rel;
  for (const Component& comp : DecomposeComponents(rc)) {
    ComponentSolution sol = solver.Solve(comp);
    ASSERT_TRUE(SolutionSatisfies(comp, sol));
    for (size_t v = 0; v < comp.cells.size(); ++v) {
      repaired.SetValue(comp.cells[v], sol.values[v]);
    }
  }
  // The ground truth the compression must preserve: the repaired instance
  // satisfies every suspect pair (no predicate set fully true).
  for (const Violation& s : suspects) {
    EXPECT_TRUE(sigma[s.constraint_index].IsSatisfied(repaired, s.rows))
        << "suspect <" << s.rows[0] << "," << s.rows[1]
        << "> violated after repair (seed " << GetParam() << ")";
  }
  // A random changing set is not a vertex cover, so violations that never
  // touched C may persist — but Proposition 5 forbids *new* ones: every
  // remaining violation must have existed before and be disjoint from C.
  std::set<std::vector<int>> before;
  for (const Violation& v : FindViolations(rel, sigma)) {
    std::vector<int> key = {v.constraint_index};
    key.insert(key.end(), v.rows.begin(), v.rows.end());
    before.insert(key);
  }
  for (const Violation& v : FindViolations(repaired, sigma)) {
    std::vector<int> key = {v.constraint_index};
    key.insert(key.end(), v.rows.begin(), v.rows.end());
    EXPECT_TRUE(before.count(key))
        << "NEW violation introduced (seed " << GetParam() << ")";
    for (const Cell& cell : ViolationCells(sigma[v.constraint_index], v.rows)) {
      EXPECT_FALSE(cs.count(cell))
          << "a remaining violation touches the changing set";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionFuzz,
                         ::testing::Range(1, 1 + 7 * FuzzScale()));

// ---------- Decomposition preserves violation-freeness and cost ----------

// The split/stitch contract of graph/decompose.h + repair/vfree.cc on
// noisy hosp/census instances, swept across random noise seeds: with
// --decompose on or off, at 1 or 4 threads, the repair is violation-free
// (checked by the boxed reference scan), and decomposing never costs more
// than the undecomposed solve. A small max_component forces splits on
// whatever components the seed produces.
class DecomposeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecomposeFuzz, DecomposedRepairStaysViolationFreeAtNoExtraCost) {
  struct PoolGuard {
    ~PoolGuard() { ThreadPool::SetNumThreads(1); }
  } guard;

  struct Workload {
    std::string name;
    Relation dirty;
    ConstraintSet sigma;
  };
  std::vector<Workload> workloads;
  auto corrupt = [&](const Relation& clean, const std::vector<AttrId>& attrs) {
    NoiseConfig noise;
    noise.error_rate = 0.08;
    noise.target_attrs = attrs;
    noise.seed = static_cast<uint64_t>(GetParam()) * 131;
    return InjectNoise(clean, noise).dirty;
  };
  HospConfig hosp_config;
  hosp_config.num_hospitals = 10;
  HospData hosp = MakeHosp(hosp_config);
  workloads.push_back({"hosp", corrupt(hosp.clean, hosp.noise_attrs),
                       hosp.given_oversimplified});
  CensusConfig census_config;
  census_config.num_rows = 100;
  CensusData census = MakeCensus(census_config);
  workloads.push_back(
      {"census", corrupt(census.clean, census.noise_attrs), census.given});

  for (const Workload& w : workloads) {
    for (int threads : {1, 4}) {
      ThreadPool::SetNumThreads(threads);
      auto run = [&](bool decompose) {
        VfreeOptions options;
        options.decompose = decompose;
        options.max_component = 8;
        options.threads = threads;
        return VfreeRepair(w.dirty, w.sigma, options);
      };
      RepairResult off = run(false);
      RepairResult on = run(true);
      std::string context = w.name + "/t" + std::to_string(threads) +
                            " (seed " + std::to_string(GetParam()) + ")";
      EXPECT_TRUE(Satisfies(off.repaired, w.sigma)) << context;
      EXPECT_TRUE(Satisfies(on.repaired, w.sigma)) << context;
      EXPECT_LE(on.stats.repair_cost, off.stats.repair_cost + 1e-9)
          << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposeFuzz,
                         ::testing::Range(1, 1 + 3 * FuzzScale()));

// ---------- Metric invariants on random repairs ----------

class MetricsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MetricsFuzz, AccuracyStaysInRangeAndPerfectRepairIsPerfect) {
  std::mt19937_64 rng(GetParam() * 911);
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("X", AttrType::kDouble);
  Relation clean(schema);
  std::uniform_int_distribution<int> cat(0, 5);
  std::uniform_real_distribution<double> num(0, 100);
  for (int i = 0; i < 30; ++i) {
    clean.AddRow({Value::String("v" + std::to_string(cat(rng))),
                  Value::Double(std::floor(num(rng)))});
  }
  Relation dirty = clean;
  std::uniform_int_distribution<int> row(0, 29);
  for (int e = 0; e < 6; ++e) {
    dirty.SetValue(row(rng), 1, Value::Double(std::floor(num(rng))));
  }
  Relation repaired = dirty;
  for (int e = 0; e < 4; ++e) {
    int i = row(rng);
    repaired.SetValue(i, 1, clean.Get(i, 1));
  }

  AccuracyResult acc = CellAccuracy(clean, dirty, repaired);
  EXPECT_GE(acc.precision, 0.0);
  EXPECT_LE(acc.precision, 1.0);
  EXPECT_GE(acc.recall, 0.0);
  EXPECT_LE(acc.recall, 1.0);
  EXPECT_LE(acc.f_measure, 1.0);
  EXPECT_GE(acc.hits, 0.0);

  // Perfect repair maxes every metric.
  AccuracyResult perfect = CellAccuracy(clean, dirty, clean);
  EXPECT_DOUBLE_EQ(perfect.precision, 1.0);
  EXPECT_DOUBLE_EQ(perfect.recall, 1.0);
  EXPECT_DOUBLE_EQ(RelativeAccuracy(clean, dirty, clean), 1.0);
  EXPECT_DOUBLE_EQ(Mnad(clean, clean), 0.0);
  // MNAD of the repair is between the perfect and the untouched dirty.
  EXPECT_LE(Mnad(clean, repaired), Mnad(clean, dirty) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsFuzz,
                         ::testing::Range(1, 1 + 7 * FuzzScale()));

}  // namespace
}  // namespace cvrepair
