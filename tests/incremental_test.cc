#include "dc/incremental.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "paper_example.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;
using testing_fixture::Phi2;
using testing_fixture::Phi4Prime;

std::set<std::pair<int, std::vector<int>>> AsSet(
    const std::vector<Violation>& vs) {
  std::set<std::pair<int, std::vector<int>>> out;
  for (const Violation& v : vs) out.insert({v.constraint_index, v.rows});
  return out;
}

TEST(ViolationIndexTest, InitialStateMatchesFullDetection) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi1(rel), Phi4Prime(rel)};
  ViolationIndex index(rel, sigma);
  EXPECT_EQ(AsSet(index.CurrentViolations()),
            AsSet(FindViolations(rel, sigma)));
  EXPECT_TRUE(index.HasViolations());
}

TEST(ViolationIndexTest, RepairingACellRemovesItsViolations) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  ConstraintSet sigma = {Phi4Prime(rel)};
  ViolationIndex index(rel, sigma);
  EXPECT_EQ(index.CurrentViolations().size(), 3u);
  // Example 4: t4.Tax := 0 eliminates all three violations.
  index.ApplyChange({3, tax}, Value::Double(0));
  EXPECT_FALSE(index.HasViolations());
  EXPECT_TRUE(Satisfies(index.relation(), sigma));
}

TEST(ViolationIndexTest, IntroducingAnErrorAddsViolations) {
  Relation rel = PaperIncomeRelation();
  AttrId cp = *rel.schema().Find("CP");
  ConstraintSet sigma = {Phi2(rel)};
  ViolationIndex index(rel, sigma);
  size_t before = index.CurrentViolations().size();
  // Move t10 (no prior violations) into the t8/t9 birthday group: four
  // fresh violation orientations appear and none disappear.
  (void)cp;
  AttrId bday = *rel.schema().Find("Birthday");
  index.ApplyChange({9, bday}, Value::String("5-9-1980"));
  EXPECT_GT(index.CurrentViolations().size(), before);
  EXPECT_EQ(AsSet(index.CurrentViolations()),
            AsSet(FindViolations(index.relation(), sigma)));
}

TEST(ViolationIndexTest, GroupMembershipFollowsJoinKeyChanges) {
  Relation rel = PaperIncomeRelation();
  AttrId name = *rel.schema().Find("Name");
  ConstraintSet sigma = {Phi1(rel)};
  ViolationIndex index(rel, sigma);
  // Move t1 into the Dustin group: its CP conflicts with all Dustins.
  index.ApplyChange({0, name}, Value::String("Dustin"));
  EXPECT_EQ(AsSet(index.CurrentViolations()),
            AsSet(FindViolations(index.relation(), sigma)));
  // And move it out to a fresh name: those violations must vanish.
  index.ApplyChange({0, name}, Value::String("Nobody"));
  EXPECT_EQ(AsSet(index.CurrentViolations()),
            AsSet(FindViolations(index.relation(), sigma)));
}

class IncrementalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalFuzz, RandomEditSequencesMatchFullDetection) {
  std::mt19937_64 rng(GetParam() * 1013);
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  schema.AddAttribute("X", AttrType::kInt);
  schema.AddAttribute("Y", AttrType::kInt);
  Relation rel(schema);
  std::uniform_int_distribution<int> cat(0, 3);
  std::uniform_int_distribution<int> num(0, 9);
  for (int i = 0; i < 25; ++i) {
    rel.AddRow({Value::String("a" + std::to_string(cat(rng))),
                Value::String("b" + std::to_string(cat(rng))),
                Value::Int(num(rng)), Value::Int(num(rng))});
  }
  ConstraintSet sigma = {
      DenialConstraint::FromFd({0}, 1, "fd"),
      DenialConstraint({Predicate::TwoCell(0, 2, Op::kGt, 1, 2),
                        Predicate::TwoCell(0, 3, Op::kLt, 1, 3)},
                       "order"),
      DenialConstraint(
          {Predicate::WithConstant(0, 3, Op::kGt, Value::Int(8))}, "cap")};

  // The delta-maintained index must track the reference full re-scan.
  ViolationIndex index(rel, sigma);
  std::uniform_int_distribution<int> row(0, 24);
  std::uniform_int_distribution<int> attr(0, 3);
  for (int step = 0; step < 40; ++step) {
    Cell cell{row(rng), attr(rng)};
    Value value;
    switch (cell.attr) {
      case 0: value = Value::String("a" + std::to_string(cat(rng))); break;
      case 1: value = Value::String("b" + std::to_string(cat(rng))); break;
      default:
        // Occasionally a fresh variable or NULL, like real repairs.
        if (num(rng) == 0) {
          value = Value::Fresh(step + 1);
        } else {
          value = Value::Int(num(rng));
        }
    }
    index.ApplyChange(cell, value);
    ASSERT_EQ(AsSet(index.CurrentViolations()),
              AsSet(FindViolations(index.relation(), sigma)))
        << "divergence at step " << step << " (seed " << GetParam() << ")";
  }
  EXPECT_GT(index.rows_rechecked(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz, ::testing::Range(1, 8));

// Satellite of the encoded-backend work: randomized repair-like edit
// sequences on the paper's generators, delta-maintained violations checked
// against a reference full re-scan after every change.
class IncrementalGeneratorFuzz : public ::testing::TestWithParam<bool> {};

TEST_P(IncrementalGeneratorFuzz, DeltaMaintenanceMatchesFullRescan) {
  const bool use_census = GetParam();
  Relation dirty;
  ConstraintSet sigma;
  if (use_census) {
    CensusConfig config;
    config.num_rows = 80;
    config.num_attributes = 8;
    CensusData census = MakeCensus(config);
    NoiseConfig noise;
    noise.error_rate = 0.08;
    noise.target_attrs = census.noise_attrs;
    noise.seed = 11;
    dirty = InjectNoise(census.clean, noise).dirty;
    sigma = census.given;
  } else {
    HospConfig config;
    config.num_hospitals = 6;
    HospData hosp = MakeHosp(config);
    NoiseConfig noise;
    noise.error_rate = 0.08;
    noise.target_attrs = hosp.noise_attrs;
    noise.seed = 11;
    dirty = InjectNoise(hosp.clean, noise).dirty;
    sigma = hosp.given_oversimplified;
  }

  ViolationIndex index(dirty, sigma);
  EXPECT_EQ(AsSet(index.CurrentViolations()),
            AsSet(FindViolations(dirty, sigma)));

  // Repair-like sequence: overwrite random cells with another row's value
  // on the same attribute (domain repairs) or a fresh variable.
  std::mt19937_64 rng(use_census ? 131 : 97);
  std::uniform_int_distribution<int> row(0, dirty.num_rows() - 1);
  std::uniform_int_distribution<int> attr(0, dirty.num_attributes() - 1);
  std::uniform_int_distribution<int> coin(0, 9);
  int64_t fresh_id = 1;
  for (int step = 0; step < 30; ++step) {
    Cell cell{row(rng), attr(rng)};
    Value value = coin(rng) == 0
                      ? Value::Fresh(fresh_id++)
                      : index.relation().Get(row(rng), cell.attr);
    index.ApplyChange(cell, value);
    ASSERT_EQ(AsSet(index.CurrentViolations()),
              AsSet(FindViolations(index.relation(), sigma)))
        << (use_census ? "census" : "hosp") << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, IncrementalGeneratorFuzz,
                         ::testing::Bool());

// Zone-map soundness under streaming inserts: batches interleave inserts
// with updates on a relation that starts just below the 1024-code arena
// block boundary, so mid-batch AppendRows open fresh segments whose
// BlockMeta (min/max rank, has_sentinel) must be sound — a stale zone map
// would make the blocked partner loop of ScanRow silently skip a violating
// block, which the full-rescan oracle below would catch. The clean data is
// constructed violation-free (X = Y per row; the FD groups nest), so every
// violation the stream plants is small and attributable.
class IncrementalInsertFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalInsertFuzz, InsertUpdateBatchesCrossBlockBoundary) {
  std::mt19937_64 rng(GetParam() * 7919u);
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  schema.AddAttribute("X", AttrType::kInt);
  schema.AddAttribute("Y", AttrType::kInt);
  Relation rel(schema);
  auto make_row = [](int v, bool bad, int y_shift) {
    return std::vector<Value>{Value::String("a" + std::to_string(v / 5)),
                              Value::String(bad ? "bad"
                                                : "b" + std::to_string(v / 10)),
                              Value::Int(v), Value::Int(v + y_shift)};
  };
  for (int i = 0; i < 1015; ++i) rel.AddRow(make_row(i, false, 0));
  ConstraintSet sigma = {
      DenialConstraint::FromFd({0}, 1, "fd"),
      // No equality join: re-detection runs the blocked zone-map partner
      // loop. Clean rows have X == Y, so the clean instance is free of it.
      DenialConstraint({Predicate::TwoCell(0, 2, Op::kGt, 1, 2),
                        Predicate::TwoCell(0, 3, Op::kLt, 1, 3)},
                       "order"),
      DenialConstraint(
          {Predicate::WithConstant(0, 1, Op::kEq, Value::String("bad"))},
          "cap")};

  ViolationIndex index(rel, sigma);
  ASSERT_FALSE(index.HasViolations());

  std::uniform_int_distribution<int> v_dist(0, 1099);  // grows dictionaries
  std::uniform_int_distribution<int> coin(0, 9);
  int64_t fresh_id = 1;
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<RowEdit> edits;
    int live = index.relation().num_rows();
    for (int i = 0; i < 12; ++i) {
      const int v = v_dist(rng);
      if (coin(rng) < 5) {
        // Insert: occasionally decorrelated (plants order violations that
        // pair the new tail block against old blocks), occasionally "bad".
        edits.push_back(
            RowEdit::Insert(make_row(v, coin(rng) == 0, -2 * (coin(rng) < 3))));
        ++live;
        continue;
      }
      const int row = static_cast<int>(rng() % static_cast<uint64_t>(live));
      switch (coin(rng) % 4) {
        case 0:
          edits.push_back(RowEdit::Update(
              row, 0, Value::String("a" + std::to_string(v / 5))));
          break;
        case 1:
          edits.push_back(RowEdit::Update(
              row, 1, Value::String("b" + std::to_string(v / 10))));
          break;
        case 2:
          edits.push_back(RowEdit::Update(row, 3, Value::Int(v - 2)));
          break;
        default:
          // Sentinels in freshly opened blocks must set has_sentinel.
          edits.push_back(RowEdit::Update(row, 3, Value::Fresh(fresh_id++)));
      }
    }
    index.ApplyBatch(edits);
    ASSERT_EQ(AsSet(index.CurrentViolations()),
              AsSet(FindViolations(index.relation(), sigma)))
        << "delta/rescan divergence at batch " << batch << " (seed "
        << GetParam() << ")";
  }
  // The stream must actually have crossed the 1024-code block boundary.
  EXPECT_GT(index.relation().num_rows(), 1024);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalInsertFuzz, ::testing::Range(1, 6));

}  // namespace
}  // namespace cvrepair
