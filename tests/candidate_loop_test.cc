// The Algorithm-1 candidate loop exists once (CVTolerantSearchWithFacts),
// so every entry point must settle on the same Σ' and repair:
// CVTolerantRepair, the factored ScanVariantFacts + search path, and the
// initial search of a StreamingRepairer with reopen_variants, whose facts
// come from a delta-maintained VariantTracker — under every repair
// strategy, with the Vfree and the Holistic solve backend, and under the
// entropy-density cover, whose bounds read domain statistics.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/parser.h"
#include "graph/bounds.h"
#include "relation/encoded.h"
#include "repair/cvtolerant.h"
#include "repair/streaming.h"

namespace cvrepair {
namespace {

struct Workload {
  Relation dirty;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
};

Workload MakeHospWorkload() {
  HospConfig config;
  config.num_hospitals = 6;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = hosp.noise_attrs;
  return {InjectNoise(hosp.clean, noise).dirty, hosp.given_oversimplified,
          hosp.space};
}

Workload MakeCensusWorkload() {
  CensusConfig config;
  config.num_rows = 120;
  CensusData census = MakeCensus(config);
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.target_attrs = census.noise_attrs;
  return {InjectNoise(census.clean, noise).dirty, census.given, {}};
}

void ExpectEqualModuloFresh(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (AttrId at = 0; at < a.num_attributes(); ++at) {
      const Value& va = a.Get(r, at);
      const Value& vb = b.Get(r, at);
      if (va.is_fresh() || vb.is_fresh()) {
        EXPECT_TRUE(va.is_fresh() && vb.is_fresh())
            << "cell (" << r << "," << at << "): " << va.ToString()
            << " vs " << vb.ToString();
      } else {
        EXPECT_TRUE(va == vb)
            << "cell (" << r << "," << at << "): " << va.ToString()
            << " vs " << vb.ToString();
      }
    }
  }
}

/// The factored path, spelled out: variant generation exactly as
/// CVTolerantRepair derives it, full facts scans, then the search.
VariantSearchResult ScanAndSearch(const Relation& I, const ConstraintSet& sigma,
                                  const CVTolerantOptions& options) {
  VariantGenOptions gen = options.variants;
  gen.always_include_original =
      gen.always_include_original && gen.theta >= 0.0;
  gen.data = &I;
  std::vector<SigmaVariant> variants =
      GenerateSigmaVariants(sigma, I.schema(), gen);
  EncodedRelation E(I);
  std::map<DenialConstraint, VariantFacts> facts =
      ScanVariantFacts(I, sigma, variants, options, &E);
  int64_t fresh = 1;
  return CVTolerantSearchWithFacts(
      I, sigma, variants,
      [&facts](const DenialConstraint& c) -> const VariantFacts& {
        return facts.at(c);
      },
      options, &fresh, &E);
}

enum class Fixture { kHosp, kCensus };

using LoopParam = std::tuple<Fixture, RepairStrategy, bool /*use_vfree*/>;

class CandidateLoopTest : public ::testing::TestWithParam<LoopParam> {};

TEST_P(CandidateLoopTest, EveryEntryPointPicksTheSameRepair) {
  const auto [fixture, strategy, use_vfree] = GetParam();
  Workload w =
      fixture == Fixture::kHosp ? MakeHospWorkload() : MakeCensusWorkload();
  CVTolerantOptions options;
  options.variants.space = w.space;
  options.vfree.strategy = strategy;
  options.use_vfree = use_vfree;

  RepairResult repair = CVTolerantRepair(w.dirty, w.sigma, options);

  VariantSearchResult search = ScanAndSearch(w.dirty, w.sigma, options);
  ASSERT_TRUE(search.have_result);
  EXPECT_TRUE(search.variant == repair.satisfied_constraints);
  EXPECT_EQ(search.cost, repair.stats.repair_cost);
  EXPECT_EQ(search.datarepair_calls, repair.stats.datarepair_calls);
  EXPECT_EQ(search.variants_pruned, repair.stats.variants_pruned_bounds);
  EXPECT_EQ(search.sigma_violations, repair.stats.initial_violations);
  ExpectEqualModuloFresh(search.repaired, repair.repaired);

  StreamingOptions stream_options;
  stream_options.repair = options;
  stream_options.reopen_variants = true;
  StreamingRepairer streamer(w.dirty, w.sigma, stream_options);
  EXPECT_TRUE(streamer.variant() == repair.satisfied_constraints);
  EXPECT_EQ(streamer.initial_stats().repair_cost, repair.stats.repair_cost);
  EXPECT_EQ(streamer.initial_stats().datarepair_calls,
            repair.stats.datarepair_calls);
  ExpectEqualModuloFresh(streamer.current(), repair.repaired);
}

std::string LoopParamName(const ::testing::TestParamInfo<LoopParam>& info) {
  const auto [fixture, strategy, use_vfree] = info.param;
  std::string name = fixture == Fixture::kHosp ? "Hosp" : "Census";
  switch (strategy) {
    case RepairStrategy::kUpdate:
      name += "Update";
      break;
    case RepairStrategy::kDelete:
      name += "Delete";
      break;
    case RepairStrategy::kHybrid:
      name += "Hybrid";
      break;
  }
  return name + (use_vfree ? "Vfree" : "Holistic");
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndBackends, CandidateLoopTest,
    ::testing::Combine(::testing::Values(Fixture::kHosp, Fixture::kCensus),
                       ::testing::Values(RepairStrategy::kUpdate,
                                         RepairStrategy::kDelete,
                                         RepairStrategy::kHybrid),
                       ::testing::Bool()),
    LoopParamName);

// Under kEntropyDensity δ_u depends on the domain statistics the bound
// cover sees; the tracker's facts must use those of its dirty instance,
// exactly as the from-scratch scan does, or the streamed search prunes and
// orders candidates differently from a batch repair.
TEST(EntropyDensityFactsTest, StreamMatchesBatchRepair) {
  for (Workload w : {MakeHospWorkload(), MakeCensusWorkload()}) {
    CVTolerantOptions options;
    options.variants.space = w.space;
    options.vfree.cover = CoverHeuristic::kEntropyDensity;
    RepairResult repair = CVTolerantRepair(w.dirty, w.sigma, options);

    StreamingOptions stream_options;
    stream_options.repair = options;
    stream_options.reopen_variants = true;
    StreamingRepairer streamer(w.dirty, w.sigma, stream_options);
    EXPECT_TRUE(streamer.variant() == repair.satisfied_constraints);
    EXPECT_EQ(streamer.initial_stats().repair_cost, repair.stats.repair_cost);
    EXPECT_EQ(streamer.initial_stats().datarepair_calls,
              repair.stats.datarepair_calls);
    EXPECT_EQ(streamer.initial_stats().variants_pruned_bounds,
              repair.stats.variants_pruned_bounds);

    const VariantTracker& tracker = *streamer.tracker();
    EncodedRelation E(w.dirty);
    for (const auto& [phi, scanned] : ScanVariantFacts(
             w.dirty, w.sigma, tracker.variants(), options, &E)) {
      const VariantFacts& tracked = tracker.FactsOf(phi);
      EXPECT_EQ(tracked.violations, scanned.violations);
      EXPECT_EQ(tracked.delta_l, scanned.delta_l);
      EXPECT_EQ(tracked.delta_u, scanned.delta_u);
      EXPECT_EQ(tracked.hopeless, scanned.hopeless);
    }
  }
}

// A 30-row instance on which the entropy-density cover of the order DC's
// conflict hypergraph is one cell larger with the instance's domain
// statistics (δ_u = 4.4) than with the domain-size fallback (δ_u = 3.3):
// both facts providers must bound with the statistics.
TEST(EntropyDensityFactsTest, BoundsReadDomainStatistics) {
  Schema schema;
  for (const char* name : {"A", "B", "C", "D"}) {
    schema.AddAttribute(name, AttrType::kInt);
  }
  Relation rel(schema);
  const std::string rows =
      "0000 0000 0000 0000 5002 0101 0000 0000 0000 0000 6100 1000 0000 0100 "
      "0000 4200 0000 0000 0000 0000 0000 0000 0000 0002 0000 0000 3000 0000 "
      "0000 0002";
  for (size_t i = 0; i + 4 <= rows.size(); i += 5) {
    std::vector<Value> values;
    for (size_t a = 0; a < 4; ++a) {
      values.push_back(Value::Int(rows[i + a] - '0'));
    }
    rel.AddRow(values);
  }
  auto parse = [&](const std::string& text) {
    return *ParseConstraint(schema, text).constraint;
  };
  ConstraintSet sigma = {parse("f1: not(t0.A>t1.A & t0.B<t1.B)"),
                         parse("f2: not(t0.C=t1.C & t0.D!=t1.D)")};
  CVTolerantOptions options;
  options.vfree.cover = CoverHeuristic::kEntropyDensity;

  StreamingOptions stream_options;
  stream_options.repair = options;
  stream_options.reopen_variants = true;
  StreamingRepairer streamer(rel, sigma, stream_options);
  const VariantTracker& tracker = *streamer.tracker();
  std::map<DenialConstraint, VariantFacts> scanned =
      ScanVariantFacts(rel, sigma, tracker.variants(), options);
  const DomainStats stats(rel);
  for (const DenialConstraint& phi : sigma) {
    std::vector<Violation> violations = FindViolations(rel, {phi});
    ASSERT_FALSE(violations.empty());
    ConflictHypergraph g =
        ConflictHypergraph::Build(rel, {phi}, violations, options.vfree.cost);
    const CostModel& cost = options.vfree.cost;
    RepairCostBounds with_stats =
        ComputeBounds(g, phi.Degree(), cost, options.vfree.cover, &stats);
    EXPECT_EQ(scanned.at(phi).delta_u, with_stats.upper);
    EXPECT_EQ(tracker.FactsOf(phi).delta_u, with_stats.upper);
    if (phi == sigma[0]) {
      // The fixture discriminates: without statistics the bound differs.
      RepairCostBounds without_stats =
          ComputeBounds(g, phi.Degree(), cost, options.vfree.cover);
      EXPECT_NE(without_stats.upper, with_stats.upper);
    }
  }

  RepairResult repair = CVTolerantRepair(rel, sigma, options);
  EXPECT_TRUE(streamer.variant() == repair.satisfied_constraints);
  EXPECT_EQ(streamer.initial_stats().repair_cost, repair.stats.repair_cost);
}

}  // namespace
}  // namespace cvrepair
