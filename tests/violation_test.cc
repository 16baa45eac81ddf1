#include "dc/violation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "paper_example.h"
#include "relation/encoded.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;
using testing_fixture::Phi4;
using testing_fixture::Phi4Prime;

std::set<std::pair<int, int>> AsPairs(const std::vector<Violation>& v) {
  std::set<std::pair<int, int>> out;
  for (const Violation& viol : v) out.insert({viol.rows[0], viol.rows[1]});
  return out;
}

TEST(ViolationTest, Example6ViolationsOfPhi4Prime) {
  Relation rel = PaperIncomeRelation();
  std::vector<Violation> v = FindViolationsOf(rel, Phi4Prime(rel));
  // viol(I, φ4') = {<t5,t4>, <t6,t4>, <t7,t4>} (rows 4,5,6 vs 3).
  EXPECT_EQ(AsPairs(v),
            (std::set<std::pair<int, int>>{{4, 3}, {5, 3}, {6, 3}}));
}

TEST(ViolationTest, Phi1FindsAllSameNameDifferentCpPairs) {
  Relation rel = PaperIncomeRelation();
  std::vector<Violation> v = FindViolationsOf(rel, Phi1(rel));
  // Ayres group {0,1,2}: CPs 322-573, ***-389, 564-389 — all distinct.
  // Each unordered conflicting pair appears in both orientations.
  std::set<std::pair<int, int>> pairs = AsPairs(v);
  EXPECT_TRUE(pairs.count({0, 1}));
  EXPECT_TRUE(pairs.count({1, 0}));
  EXPECT_TRUE(pairs.count({1, 2}));
  // Dustin rows 7 and 8 have different CPs.
  EXPECT_TRUE(pairs.count({7, 8}));
  // No cross-name violations.
  EXPECT_FALSE(pairs.count({0, 3}));
}

TEST(ViolationTest, HashPartitioningAgreesWithBruteForce) {
  Relation rel = PaperIncomeRelation();
  DenialConstraint phi1 = Phi1(rel);
  std::set<std::pair<int, int>> brute;
  for (int i = 0; i < rel.num_rows(); ++i) {
    for (int j = 0; j < rel.num_rows(); ++j) {
      if (i != j && phi1.IsViolated(rel, {i, j})) brute.insert({i, j});
    }
  }
  EXPECT_EQ(AsPairs(FindViolationsOf(rel, phi1)), brute);
}

TEST(ViolationTest, SatisfiesShortCircuit) {
  Relation rel = PaperIncomeRelation();
  EXPECT_FALSE(Satisfies(rel, {Phi1(rel)}));
  // Name -> Name trivially holds.
  AttrId name = *rel.schema().Find("Name");
  DenialConstraint tautology = DenialConstraint::FromFd({name}, name);
  EXPECT_TRUE(Satisfies(rel, {tautology}));
}

TEST(ViolationTest, SingleTupleConstraints) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  AttrId income = *rel.schema().Find("Income");
  // not(Tax > Income) holds everywhere.
  DenialConstraint ok({Predicate::TwoCell(0, tax, Op::kGt, 0, income)});
  EXPECT_TRUE(FindViolationsOf(rel, ok).empty());
  // not(Income >= 100) flags t8, t9, t10 (rows 7, 8, 9).
  DenialConstraint rich(
      {Predicate::WithConstant(0, income, Op::kGeq, Value::Double(100))});
  std::vector<Violation> v = FindViolationsOf(rel, rich);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].rows, std::vector<int>{7});
  EXPECT_EQ(v[2].rows, std::vector<int>{9});
}

TEST(ViolationTest, ViolationCellsExample6) {
  Relation rel = PaperIncomeRelation();
  DenialConstraint phi4p = Phi4Prime(rel);
  AttrId income = *rel.schema().Find("Income");
  AttrId tax = *rel.schema().Find("Tax");
  std::vector<Cell> cells = ViolationCells(phi4p, {4, 3});
  // cell(t5, t4; φ4') = {t5.Income, t4.Income, t5.Tax, t4.Tax}.
  EXPECT_EQ(cells.size(), 4u);
  EXPECT_NE(std::find(cells.begin(), cells.end(), Cell{4, income}),
            cells.end());
  EXPECT_NE(std::find(cells.begin(), cells.end(), Cell{3, tax}), cells.end());
}

TEST(SuspectTest, Example9SuspectsOfPhi4Prime) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  CellSet changing = {{3, tax}};  // C = {t4.Tax}
  std::vector<Violation> s = FindSuspects(rel, {Phi4Prime(rel)}, changing);
  // susp = {<t4,t1>,<t4,t2>,<t4,t3>,<t5,t4>,<t6,t4>,<t7,t4>,<t8,t4>,
  //         <t9,t4>,<t10,t4>} (Example 9).
  std::set<std::pair<int, int>> expected = {{3, 0}, {3, 1}, {3, 2},
                                            {4, 3}, {5, 3}, {6, 3},
                                            {7, 3}, {8, 3}, {9, 3}};
  EXPECT_EQ(AsPairs(s), expected);
}

TEST(SuspectTest, Lemma4ViolationsAreSuspects) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4Prime(rel), Phi1(rel)};
  std::vector<Violation> violations = FindViolations(rel, sigma);
  // Any changing set covering all violations must suspect every violation.
  CellSet changing;
  for (const Violation& v : violations) {
    for (const Cell& c : ViolationCells(sigma[v.constraint_index], v.rows)) {
      changing.insert(c);
    }
  }
  std::vector<Violation> suspects = FindSuspects(rel, sigma, changing);
  std::set<std::pair<int, int>> suspect_pairs;
  for (const Violation& s : suspects) {
    suspect_pairs.insert({s.rows[0], s.rows[1]});
  }
  for (const Violation& v : violations) {
    EXPECT_TRUE(suspect_pairs.count({v.rows[0], v.rows[1]}))
        << "violation <" << v.rows[0] << "," << v.rows[1]
        << "> must be suspected (Lemma 4)";
  }
}

TEST(SuspectTest, NoSuspectsWhenChangingSetOffConstraintAttrs) {
  Relation rel = PaperIncomeRelation();
  AttrId year = *rel.schema().Find("Year");
  CellSet changing = {{3, year}};
  EXPECT_TRUE(FindSuspects(rel, {Phi4Prime(rel)}, changing).empty());
}

// Exact-cap semantics, pinned for every scan path: with V violations in
// total, cap = V returns the complete result with truncated *false* (the
// scan finished exactly at the cap — nothing was cut), cap = V - 1 returns
// the first V - 1 violations of the uncapped order with truncated true,
// and cap = V + 1 is indistinguishable from uncapped. The capped result is
// always a prefix of the uncapped one. `I` is the boxed Relation (the
// reference scan) or its EncodedRelation.
template <typename Source>
void CheckExactCapSemantics(const Source& I, const DenialConstraint& c,
                            const std::string& context) {
  bool truncated = true;
  std::vector<Violation> all = FindViolationsOfCapped(
      I, c, 0, std::numeric_limits<int64_t>::max(), &truncated);
  ASSERT_FALSE(truncated) << context;
  const int64_t v = static_cast<int64_t>(all.size());
  ASSERT_GE(v, 2) << context << ": need >= 2 violations to pin the cap";
  for (int64_t cap : {v - 1, v, v + 1}) {
    bool capped_truncated = false;
    std::vector<Violation> capped =
        FindViolationsOfCapped(I, c, 0, cap, &capped_truncated);
    int64_t expect_size = std::min(cap, v);
    ASSERT_EQ(static_cast<int64_t>(capped.size()), expect_size)
        << context << " cap " << cap;
    EXPECT_EQ(capped_truncated, v > cap) << context << " cap " << cap;
    for (int64_t i = 0; i < expect_size; ++i) {
      ASSERT_EQ(capped[static_cast<size_t>(i)], all[static_cast<size_t>(i)])
          << context << " cap " << cap << ": not the uncapped prefix at " << i;
    }
  }
}

class PoolGuard {
 public:
  ~PoolGuard() { ThreadPool::SetNumThreads(1); }
};

// Small instances: the serial 1-tuple row scan, the hash-partition block
// scan, and the no-join pair scan, on the reference and encoded scans.
TEST(ViolationCapTest, ExactCapOnSerialPaths) {
  Relation rel = PaperIncomeRelation();
  AttrId income = *rel.schema().Find("Income");
  DenialConstraint rich(
      {Predicate::WithConstant(0, income, Op::kGeq, Value::Double(100))});
  EncodedRelation encoded(rel);
  for (const DenialConstraint& c : {rich, Phi1(rel), Phi4Prime(rel)}) {
    CheckExactCapSemantics(rel, c, "reference " + c.ToString(rel.schema()));
    CheckExactCapSemantics(encoded, c, "encoded " + c.ToString(rel.schema()));
  }
}

// Large instances at 4 threads: the row-range shards and the
// partition-block shards, where the cap must survive the local_cap = cap+1
// overscan and the in-order merge.
TEST(ViolationCapTest, ExactCapOnShardedPaths) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);

  CensusConfig census_config;
  census_config.num_rows = 9000;  // above the 8192 row-shard threshold
  CensusData census = MakeCensus(census_config);
  // not(Income >= tax_threshold): a constant unary DC violated by every
  // taxpaying row — thousands of violations across all row shards.
  DenialConstraint high_income({Predicate::WithConstant(
      0, CensusAttrs::kIncome, Op::kGeq,
      Value::Double(census_config.tax_threshold))});
  EncodedRelation census_encoded(census.clean);
  ASSERT_GE(FindViolationsOf(census_encoded, high_income).size(), 2u);
  CheckExactCapSemantics(census_encoded, high_income, "sharded 1-tuple rows");

  HospConfig hosp_config;
  hosp_config.num_hospitals = 12;
  hosp_config.measures_per_hospital = 30;  // blocks of 30+: work > 8192
  HospData hosp = MakeHosp(hosp_config);
  NoiseConfig hosp_noise;
  hosp_noise.error_rate = 0.1;
  hosp_noise.target_attrs = hosp.noise_attrs;
  hosp_noise.seed = 13;
  Relation hosp_dirty = InjectNoise(hosp.clean, hosp_noise).dirty;
  EncodedRelation hosp_encoded(hosp_dirty);
  bool found_fd = false;
  for (const DenialConstraint& c : hosp.given_oversimplified) {
    if (c.NumTupleVars() != 2) continue;
    if (FindViolationsOf(hosp_encoded, c).size() < 2) continue;
    found_fd = true;
    CheckExactCapSemantics(hosp_encoded, c, "sharded partition blocks");
  }
  EXPECT_TRUE(found_fd);
}

}  // namespace
}  // namespace cvrepair
