// Tests of the dictionary-encoded columnar backend (relation/encoded.h):
// dictionary code stability and rank recovery, sentinel semantics,
// constant-predicate thresholds, random EvalOp equivalence of the
// compiled evaluators, scan-level bit-identity against the boxed
// reference detectors on the paper's generators, the ApplyChange/epoch
// protocol, and the work-counter reduction the backend exists for.
#include "relation/encoded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "data/census.h"
#include "data/dense.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "dc/predicate.h"
#include "dc/violation.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

TEST(DictionaryTest, CodesAreStableAppendOrderedAndRanksOrdered) {
  Dictionary dict;
  // Inserted out of semantic order.
  Code c30 = dict.EncodeInsert(Value::Int(30));
  Code c10 = dict.EncodeInsert(Value::Int(10));
  Code c20 = dict.EncodeInsert(Value::Int(20));
  EXPECT_EQ(c30, 0);
  EXPECT_EQ(c10, 1);
  EXPECT_EQ(c20, 2);
  // Re-inserting returns the existing code.
  EXPECT_EQ(dict.EncodeInsert(Value::Int(10)), c10);
  EXPECT_EQ(dict.size(), 3);
  // Ranks reflect semantic order, not insertion order.
  EXPECT_LT(dict.rank(c10), dict.rank(c20));
  EXPECT_LT(dict.rank(c20), dict.rank(c30));
  // EvalOp-equality classes share a code: Int(20) and Double(20.0) are
  // the same entry.
  EXPECT_EQ(dict.EncodeInsert(Value::Double(20.0)), c20);
  EXPECT_EQ(dict.size(), 3);
}

TEST(DictionaryTest, SentinelsAndLookupMisses) {
  Dictionary dict;
  EXPECT_EQ(dict.EncodeInsert(Value::Null()), kNullCode);
  EXPECT_EQ(dict.EncodeInsert(Value::Fresh(7)), kFreshCode);
  EXPECT_EQ(dict.size(), 0);  // sentinels never enter the dictionary
  EXPECT_EQ(dict.Lookup(Value::Int(5)), kAbsentCode);
  dict.EncodeInsert(Value::Int(5));
  EXPECT_EQ(dict.Lookup(Value::Int(5)), 0);
  EXPECT_EQ(dict.Lookup(Value::Null()), kNullCode);
  EXPECT_EQ(dict.Lookup(Value::Fresh(3)), kFreshCode);
}

TEST(DictionaryTest, InsertRecoversRanksWithoutMovingCodes) {
  Dictionary dict;
  Code a = dict.EncodeInsert(Value::Int(10));
  Code b = dict.EncodeInsert(Value::Int(30));
  int32_t rank_a = dict.rank(a);
  int32_t rank_b = dict.rank(b);
  // A new middle value shifts ranks above it but never reassigns codes.
  Code mid = dict.EncodeInsert(Value::Int(20));
  EXPECT_EQ(mid, 2);
  EXPECT_EQ(dict.rank(a), rank_a);
  EXPECT_EQ(dict.rank(b), rank_b + 1);
  EXPECT_LT(dict.rank(a), dict.rank(mid));
  EXPECT_LT(dict.rank(mid), dict.rank(b));
}

TEST(DictionaryTest, ClassesAreDisjointInPackedRanks) {
  Dictionary dict;
  Code n = dict.EncodeInsert(Value::Int(5));
  Code s = dict.EncodeInsert(Value::String("5"));
  EXPECT_NE(n, s);
  EXPECT_EQ(dict.rank(n) >> Dictionary::kRankBits, 0);
  EXPECT_EQ(dict.rank(s) >> Dictionary::kRankBits, 1);
}

// Exhaustive grid for constant predicates: every operator against
// constants that are present, between entries, below/above all entries,
// NULL, fresh, and of the other comparison class. The compiled evaluator
// must agree with Predicate::Eval (EvalOp semantics) cell for cell.
TEST(EncodedPredicateTest, ConstantBoundsMatchEvalOpOnFullGrid) {
  Schema schema;
  schema.AddAttribute("N", AttrType::kDouble);
  schema.AddAttribute("S", AttrType::kString);
  Relation rel(schema);
  for (double v : {10.0, 20.0, 30.0, 40.0}) {
    rel.AddRow({Value::Double(v), Value::String("s" + std::to_string(int(v)))});
  }
  rel.AddRow({Value::Null(), Value::Fresh(1)});
  rel.AddRow({Value::Int(20), Value::String("s20")});  // cross-width dup
  EncodedRelation E(rel);

  std::vector<Value> constants = {
      Value::Double(20.0), Value::Int(20),  Value::Double(25.0),
      Value::Double(5.0),  Value::Double(99.0), Value::Null(),
      Value::Fresh(2),     Value::String("s20"), Value::String("a"),
      Value::String("zz"), Value::String("s25")};
  std::vector<int> rows(1);
  for (AttrId attr = 0; attr < rel.num_attributes(); ++attr) {
    for (const Value& c : constants) {
      for (Op op : AllOps()) {
        Predicate p = Predicate::WithConstant(0, attr, op, c);
        EncodedPredicateEval ev(E, p);
        EXPECT_TRUE(ev.on_codes());
        for (int i = 0; i < rel.num_rows(); ++i) {
          rows[0] = i;
          EXPECT_EQ(ev.Eval(rows), p.Eval(rel, rows))
              << "attr=" << attr << " op=" << OpToString(op)
              << " c=" << c.ToString() << " row=" << i;
        }
      }
    }
  }
}

// Randomized equivalence over every predicate shape: same-attribute
// two-cell (pure code/rank compares), constant (threshold compares), and
// cross-attribute two-cell (fallback). Columns mix Int/Double widths,
// NULLs, and fresh variables — everything EvalOp supports except NaN.
TEST(EncodedPredicateTest, RandomPredicatesMatchBoxedEvaluation) {
  std::mt19937_64 rng(42);
  Schema schema;
  schema.AddAttribute("A", AttrType::kDouble);
  schema.AddAttribute("B", AttrType::kDouble);
  schema.AddAttribute("C", AttrType::kString);
  Relation rel(schema);
  std::uniform_int_distribution<int> num(0, 6);
  std::uniform_int_distribution<int> shape(0, 9);
  auto random_numeric = [&]() -> Value {
    int roll = shape(rng);
    if (roll == 0) return Value::Null();
    if (roll == 1) return Value::Fresh(rng() % 5 + 1);
    return rng() % 2 ? Value::Int(num(rng))
                     : Value::Double(num(rng) + (rng() % 2 ? 0.5 : 0.0));
  };
  auto random_string = [&]() -> Value {
    int roll = shape(rng);
    if (roll == 0) return Value::Null();
    if (roll == 1) return Value::Fresh(rng() % 5 + 1);
    return Value::String("s" + std::to_string(num(rng)));
  };
  for (int i = 0; i < 40; ++i) {
    rel.AddRow({random_numeric(), random_numeric(), random_string()});
  }
  EncodedRelation E(rel);

  std::vector<Predicate> predicates;
  for (Op op : AllOps()) {
    for (AttrId a = 0; a < 3; ++a) {
      predicates.push_back(Predicate::TwoCell(0, a, op, 1, a));
      predicates.push_back(
          Predicate::WithConstant(0, a, op,
                                  a < 2 ? random_numeric() : random_string()));
    }
    predicates.push_back(Predicate::TwoCell(0, 0, op, 1, 1));  // cross-attr
    predicates.push_back(Predicate::TwoCell(0, 0, op, 1, 2));  // cross-class
  }
  std::uniform_int_distribution<int> row(0, rel.num_rows() - 1);
  for (const Predicate& p : predicates) {
    EncodedPredicateEval ev(E, p);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<int> rows = {row(rng), row(rng)};
      EXPECT_EQ(ev.Eval(rows), p.Eval(rel, rows))
          << p.ToString(schema) << " rows=" << rows[0] << "," << rows[1];
    }
  }
}

struct GeneratorCase {
  Relation dirty;
  ConstraintSet sigma;
};

GeneratorCase MakeHospCase() {
  HospConfig config;
  config.num_hospitals = 8;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = hosp.noise_attrs;
  noise.seed = 5;
  return {InjectNoise(hosp.clean, noise).dirty, hosp.given_oversimplified};
}

GeneratorCase MakeCensusCase() {
  CensusConfig config;
  config.num_rows = 150;
  config.num_attributes = 8;
  CensusData census = MakeCensus(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = census.noise_attrs;
  noise.seed = 5;
  return {InjectNoise(census.clean, noise).dirty, census.given};
}

GeneratorCase MakeTaxCase() {
  TaxConfig config;
  config.num_rows = 200;
  TaxData tax = MakeTax(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = tax.noise_attrs;
  noise.seed = 5;
  return {InjectNoise(tax.clean, noise).dirty, tax.given};
}

GeneratorCase MakeDenseCase() {
  DenseConfig config;
  config.rows_per_track = 120;
  DenseData dense = MakeDense(config);
  return {dense.dirty, dense.sigma};
}

// A double column holding both Int(1) and Double(1.0): the relation API
// does not check kinds against the schema. EvalOp equality (numeric()
// widening) joins the two, so t0.A = t1.A holds across them and the FD
// A -> B is violated by rows 0 and 1.
GeneratorCase MakeMixedNumericCase() {
  Schema schema({{"A", AttrType::kDouble}, {"B", AttrType::kString}});
  Relation rel(schema);
  rel.AddRow({Value::Int(1), Value::String("x")});
  rel.AddRow({Value::Double(1.0), Value::String("y")});
  rel.AddRow({Value::Double(2.5), Value::String("x")});
  rel.AddRow({Value::Int(2), Value::String("z")});
  return {rel, {DenialConstraint::FromFd({0}, 1)}};
}

std::vector<Violation> Sorted(std::vector<Violation> v) {
  std::sort(v.begin(), v.end(), [](const Violation& a, const Violation& b) {
    if (a.constraint_index != b.constraint_index) {
      return a.constraint_index < b.constraint_index;
    }
    return a.rows < b.rows;
  });
  return v;
}

// The encoded ≡ reference contract: the encoded FindViolations /
// Satisfies / FindViolationsOfCapped equal the boxed reference scans on
// the generators, at 1 and 4 threads — result order, capped prefix, and
// truncated flag included. FindSuspects agrees as a set (the reference
// documents its own order).
TEST(EncodedScanTest, ScansAreBitIdenticalToBoxedScansOnGenerators) {
  struct PoolGuard {
    ~PoolGuard() { ThreadPool::SetNumThreads(1); }
  } guard;
  const std::vector<std::pair<std::string, GeneratorCase>> cases = {
      {"hosp", MakeHospCase()},   {"census", MakeCensusCase()},
      {"tax", MakeTaxCase()},     {"dense", MakeDenseCase()},
      {"mixed", MakeMixedNumericCase()}};
  for (const auto& [name, gc] : cases) {
    EncodedRelation E(gc.dirty);
    std::vector<Violation> plain = FindViolations(gc.dirty, gc.sigma);
    if (name == "mixed") {
      EXPECT_EQ(plain.size(), 2u) << "Int(1) and Double(1.0) must join";
    }
    for (int threads : {1, 4}) {
      ThreadPool::SetNumThreads(threads);
      std::string context = name + " threads=" + std::to_string(threads);
      std::vector<Violation> coded = FindViolations(E, gc.sigma);
      ASSERT_EQ(plain.size(), coded.size()) << context;
      for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i], coded[i]) << context << " violation " << i;
      }
      EXPECT_EQ(Satisfies(gc.dirty, gc.sigma), Satisfies(E, gc.sigma))
          << context;

      for (size_t k = 0; k < gc.sigma.size(); ++k) {
        for (int64_t cap : {int64_t{0}, int64_t{1}, int64_t{5},
                            int64_t{1000000}}) {
          bool trunc_plain = false;
          bool trunc_coded = false;
          std::vector<Violation> a = FindViolationsOfCapped(
              gc.dirty, gc.sigma[k], static_cast<int>(k), cap, &trunc_plain);
          std::vector<Violation> b = FindViolationsOfCapped(
              E, gc.sigma[k], static_cast<int>(k), cap, &trunc_coded);
          EXPECT_EQ(a, b) << context << " constraint " << k << " cap " << cap;
          EXPECT_EQ(trunc_plain, trunc_coded)
              << context << " constraint " << k << " cap " << cap;
        }
      }

      // Suspects over the cells of the first violations.
      CellSet changing;
      for (size_t i = 0; i < plain.size() && i < 10; ++i) {
        const DenialConstraint& c = gc.sigma[plain[i].constraint_index];
        for (const Cell& cell : ViolationCells(c, plain[i].rows)) {
          changing.insert(cell);
        }
      }
      EXPECT_EQ(Sorted(FindSuspects(gc.dirty, gc.sigma, changing)),
                Sorted(FindSuspects(E, gc.sigma, changing)))
          << context;
    }
  }
}

TEST(EncodedRelationTest, ApplyChangeKeepsMirrorConsistent) {
  GeneratorCase gc = MakeHospCase();
  Relation rel = gc.dirty;
  EncodedRelation E(rel);
  ASSERT_TRUE(E.in_sync());

  AttrId attr = 0;
  uint64_t epoch0 = E.epoch();
  // Overwrite with a value that already exists elsewhere in the column:
  // the dictionary must not grow and the epoch must hold still.
  rel.SetValue({0, attr}, rel.Get(1, attr));
  E.ApplyChange(0, attr);
  EXPECT_TRUE(E.in_sync());
  EXPECT_EQ(E.epoch(), epoch0);
  EXPECT_EQ(E.code(0, attr), E.code(1, attr));

  // A genuinely new value grows the dictionary and bumps the epoch.
  Code old_code_row2 = E.code(2, attr);
  rel.SetValue({0, attr}, Value::String("a value nobody generated"));
  E.ApplyChange(0, attr);
  EXPECT_TRUE(E.in_sync());
  EXPECT_GT(E.epoch(), epoch0);
  // Codes of untouched cells are stable across the growth.
  EXPECT_EQ(E.code(2, attr), old_code_row2);

  // NULL and fresh map to their sentinels.
  rel.SetValue({0, attr}, Value::Null());
  E.ApplyChange(0, attr);
  EXPECT_EQ(E.code(0, attr), kNullCode);
  rel.SetValue({0, attr}, Value::Fresh(99));
  E.ApplyChange(0, attr);
  EXPECT_EQ(E.code(0, attr), kFreshCode);

  // A forgotten ApplyChange is detectable.
  rel.SetValue({1, attr}, Value::String("unmirrored"));
  EXPECT_FALSE(E.in_sync());
  E.ApplyChange(1, attr);
  EXPECT_TRUE(E.in_sync());

  // After the whole edit sequence the delta-maintained mirror scans
  // exactly like a freshly encoded one — and like the boxed path.
  EncodedRelation fresh(rel);
  std::vector<Violation> via_mirror = FindViolations(E, gc.sigma);
  std::vector<Violation> via_fresh = FindViolations(fresh, gc.sigma);
  std::vector<Violation> via_boxed = FindViolations(rel, gc.sigma);
  EXPECT_EQ(via_mirror, via_fresh);
  EXPECT_EQ(via_mirror, via_boxed);
}

// AppendRow zone-map soundness at the 1024-code arena block boundary:
// appends that open a fresh segment mid-stream must leave every
// (attribute, block) BlockMeta sound — min/max packed rank covering the
// resident rows, has_sentinel set when a sentinel landed in the block —
// or the zone-map pruned scans would silently skip a violating block.
// All pre-existing test datasets are smaller than one block, so this is
// the only direct coverage of multi-block maintenance.
TEST(EncodedRelationTest, AppendRowAcrossBlockBoundaryKeepsZoneMapsSound) {
  Schema schema;
  schema.AddAttribute("K", AttrType::kString);
  schema.AddAttribute("V", AttrType::kInt);
  Relation rel(schema);
  // K and V are perfectly correlated (lexicographic K order == numeric V
  // order), so the clean base violates nothing and every violation below
  // is planted by a specific append.
  auto key = [](int i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    return std::string(buf);
  };
  for (int i = 0; i < EncodedRelation::kBlockSize - 2; ++i) {
    rel.AddRow({Value::String(key(i)), Value::Int(i)});
  }
  ConstraintSet sigma = {
      DenialConstraint::FromFd({0}, 1, "fd"),
      // No equality join: detection runs the blocked zone-map partner
      // loop on both columns.
      DenialConstraint({Predicate::TwoCell(0, 1, Op::kGt, 1, 1),
                        Predicate::TwoCell(0, 0, Op::kLt, 1, 0)},
                       "order"),
      DenialConstraint(
          {Predicate::WithConstant(0, 1, Op::kGt, Value::Int(2000))}, "cap")};
  ASSERT_TRUE(FindViolations(rel, sigma).empty());

  EncodedRelation E(rel);
  ASSERT_EQ(E.num_blocks(), 1);

  // Appends crossing into block 1: duplicate keys (FD violations pairing
  // the fresh block against block 0), decorrelated rows (order violations
  // the blocked partner loop must not zone-map-skip), brand-new dictionary
  // values at both rank extremes (rank shifts must refresh every block's
  // metas, not just the tail's), a cap violator, and a sentinel.
  std::vector<std::vector<Value>> appends = {
      {Value::String(key(0)), Value::Int(3)},        // fd + order vs block 0
      {Value::String("zz y0"), Value::Int(2095)},    // cap; new max ranks
      {Value::String(key(200)), Value::Null()},      // sentinel in block 1
      {Value::String("a first"), Value::Int(-5)},    // new min ranks
      {Value::String(key(999)), Value::Int(980)},    // order vs rows 981..1021
      {Value::String("zz z9"), Value::Int(1021)},    // order vs the cap row
  };
  for (const auto& row_values : appends) {
    rel.AddRow(row_values);
    E.AppendRow();
    ASSERT_TRUE(E.in_sync());
    // The delta-maintained mirror must scan exactly like a freshly
    // encoded relation and like the boxed path after every append.
    EncodedRelation fresh(rel);
    EXPECT_EQ(FindViolations(E, sigma), FindViolations(fresh, sigma));
    EXPECT_EQ(FindViolations(E, sigma), FindViolations(rel, sigma));
  }
  EXPECT_EQ(E.num_blocks(), 2);
  EXPECT_EQ(E.num_rows(), EncodedRelation::kBlockSize + 4);
  // The planted cross-block violations were found (not zone-map skipped).
  EXPECT_FALSE(FindViolations(E, {sigma[0]}).empty());
  EXPECT_FALSE(FindViolations(E, {sigma[1]}).empty());
  EXPECT_FALSE(FindViolations(E, {sigma[2]}).empty());
}

// The point of the backend: detection does (far) fewer boxed-Value
// predicate evaluations than the boxed reference scan. Here we pin the
// work counters — the encoded scan must cut boxed evals by at least 2x
// (in fact it only keeps the cross-attribute fallbacks), shifting the rest
// to integer code evals.
TEST(EncodedScanTest, EncodedScanHalvesBoxedPredicateEvals) {
  for (const GeneratorCase& gc : {MakeHospCase(), MakeCensusCase()}) {
    EncodedRelation E(gc.dirty);

    eval_counters::Reset();
    std::vector<Violation> plain = FindViolations(gc.dirty, gc.sigma);
    EvalCounters boxed_run = eval_counters::Snapshot();

    eval_counters::Reset();
    std::vector<Violation> coded = FindViolations(E, gc.sigma);
    EvalCounters coded_run = eval_counters::Snapshot();
    eval_counters::Reset();

    ASSERT_EQ(plain, coded);
    ASSERT_GT(boxed_run.predicate_evals, 0);
    EXPECT_GT(coded_run.code_predicate_evals, 0);
    // >= 2x fewer boxed evaluations (acceptance floor; typically the
    // encoded scan does none at all on these constraint sets).
    EXPECT_LE(coded_run.predicate_evals * 2, boxed_run.predicate_evals);
    // No work is invented: the encoded scan's total predicate
    // evaluations never exceed the boxed scan's.
    EXPECT_LE(coded_run.predicate_evals + coded_run.code_predicate_evals,
              boxed_run.predicate_evals);
  }
}

}  // namespace
}  // namespace cvrepair
