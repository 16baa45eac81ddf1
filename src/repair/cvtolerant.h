#ifndef CVREPAIR_REPAIR_CVTOLERANT_H_
#define CVREPAIR_REPAIR_CVTOLERANT_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>

#include "repair/holistic.h"
#include "repair/repair_result.h"
#include "repair/vfree.h"
#include "variation/variant_generator.h"

namespace cvrepair {

/// Options for the θ-tolerant repair (Algorithm 1).
struct CVTolerantOptions {
  /// Variant enumeration, including θ and the variation cost model.
  VariantGenOptions variants;
  /// Data-repair engine configuration (cost model, cover, solver).
  VfreeOptions vfree;
  /// When false, each candidate variant is repaired with the multi-round
  /// Holistic engine instead of Vfree (the "CVtolerant + Holistic"
  /// configuration of Figures 5 and 7) — in CVTolerantRepair and in the
  /// searches of a streaming reopen alike. Sharing and cost-abort pruning
  /// are not available in that mode, and the kDelete strategy always
  /// resolves candidates by its subset cover.
  bool use_vfree = true;
  HolisticOptions holistic;
  /// Share materialized component solutions across variants (Section 4.2).
  bool enable_sharing = true;
  /// Skip variants whose lower bound exceeds the best known repair cost
  /// (Section 3.2, Algorithm 1 line 3).
  bool enable_bound_pruning = true;
  /// Hard budget on DataRepair invocations. Candidates are processed in
  /// ascending-δ_l order (cheap variants first), so the budget cuts the
  /// long tail of near-tied candidates that bound pruning alone cannot
  /// separate; the paper reports most runs settle within 2 calls.
  int max_datarepair_calls = 64;
  /// Constraint variants violated more often than this factor times |I|
  /// are abandoned as hopeless (their minimum repair cannot win): their
  /// enumeration is cut short and their lower bound set to +inf. 0
  /// disables the cap.
  double max_violations_per_tuple = 50.0;
  /// Thread budget for this repair: 0 = the global ThreadPool setting,
  /// 1 = the exact legacy serial path, N = up to N threads. Propagated to
  /// the Vfree engine when `vfree.threads` is 0. Every thread count yields
  /// bit-identical RepairResults; only wall-clock time changes.
  int threads = 0;
  /// Read by nothing; kept only because perfbench/driver.cc:374 assigns it.
  bool use_encoded = true;
};

/// The constraint-variance tolerant repair (Problem 1 / Algorithm 1):
/// enumerates θ-maximal constraint variants, computes their violations and
/// repair-cost bounds (ScanVariantFacts), and runs the candidate loop
/// (CVTolerantSearchWithFacts), which prunes by the bounds and repairs the
/// survivors with the sharing-enabled violation-free DataRepair. Returns
/// the minimum-cost repair together with the variant Σ' it satisfies; when
/// θ >= 0 and no candidate yields a repair, falls back to a plain Vfree
/// repair of Σ.
///
/// θ may be negative (net predicate deletion, Appendix D.2); in that case
/// Σ itself is not a candidate and the bound seeding of Algorithm 1 line 1
/// is replaced by +∞.
RepairResult CVTolerantRepair(const Relation& I, const ConstraintSet& sigma,
                              const CVTolerantOptions& options = {});

/// Component-scoped θ-tolerant re-solve under a frozen variant: Algorithm 1
/// with |D| = 1 and detection already done. `frozen_variant` is the Σ' an
/// earlier CVTolerantRepair settled on (its satisfied_constraints);
/// `violations` is an externally detected violation set of the current
/// instance against that variant — typically the delta-maintained set of a
/// StreamingRepairer after a batch of edits. Only the components reachable
/// from those violations are repaired; `cache` and `fresh_counter` persist
/// across calls so component solutions are shared and fresh ids stay
/// globally unique. Derives the engine options (threads) from `options`
/// exactly as the candidate loop does, so a scoped re-solve is
/// bit-identical to the candidate solve the full pipeline would run on
/// the same violations. `encoded` mirrors I; when null, I is encoded for
/// the call. Returns std::nullopt only on a delta_min abort (never with
/// the default +inf bound).
std::optional<ScopedRepair> CVTolerantResolveComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& frozen_variant, std::vector<Violation> violations,
    const CVTolerantOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded = nullptr,
    double delta_min = std::numeric_limits<double>::infinity());

/// Per-constraint detection facts consumed by the variant search below:
/// the constraint's violations over the instance (canonical rows order,
/// constraint_index 0 — the search re-stamps positions when it assembles a
/// candidate's union set) and the δ_l/δ_u bounds of its private conflict
/// hypergraph, or `hopeless` when the violation cap was hit (a hopeless
/// constraint's variants never hold the minimum repair).
struct VariantFacts {
  std::vector<Violation> violations;
  double delta_l = 0.0;
  double delta_u = 0.0;
  bool hopeless = false;
};

/// The violation cap of one constraint over an instance of `num_rows`
/// rows: options.max_violations_per_tuple × |I|, or no cap when that
/// factor is 0. Strictly more violations than the cap is hopeless.
int64_t VariantViolationCap(const CVTolerantOptions& options, int num_rows);

/// The facts of constraint `c` from its detected violations over `I` (or
/// `hopeless` when detection hit the violation cap): stamps the violations
/// position-free, sorts them into canonical rows order, and bounds the
/// constraint's conflict hypergraph under options.vfree's cost model and
/// cover. `stats_of_I` feeds the kEntropyDensity cover (graph/bounds.h).
/// Both facts providers — the full scans of ScanVariantFacts and the
/// delta-maintained VariantTracker — derive facts here.
VariantFacts MakeVariantFacts(const Relation& I, const DenialConstraint& c,
                              std::vector<Violation> violations,
                              bool hopeless, const CVTolerantOptions& options,
                              const DomainStats* stats_of_I);

/// The domain statistics of `I` that MakeVariantFacts bounds with: built
/// only when the bound cover reads them (kEntropyDensity), empty otherwise.
std::optional<DomainStats> VariantFactsStats(const Relation& I,
                                             const CVTolerantOptions& options);

/// Facts provider: returns the facts of one constraint. The reference must
/// stay valid for the duration of the search call.
using VariantFactsFn =
    std::function<const VariantFacts&(const DenialConstraint&)>;

/// Outcome of one factored variant search.
struct VariantSearchResult {
  ConstraintSet variant;  ///< chosen Σ' (meaningful when have_result)
  Relation repaired;      ///< minimum-cost repair found
  double cost = std::numeric_limits<double>::infinity();
  bool have_result = false;
  int datarepair_calls = 0;
  int variants_pruned = 0;  ///< hopeless + bound-pruned candidates
  int sigma_violations = 0;  ///< violations of Σ itself (capped facts)
  /// Aligned with the input `variants`: the realized repair cost where the
  /// search solved that candidate, NaN where it was pruned, aborted on the
  /// δ_min bound, or cut by the call budget. Bound maintainers use these to
  /// lift per-variant lower bounds to realized costs.
  std::vector<double> solved_costs;
  /// Aligned with the input `variants`: where a candidate's solve aborted
  /// on the δ_min bound, the threshold it was solving under — a proof that
  /// its true repair cost strictly exceeds this value (vfree aborts on
  /// cost > δ_min). NaN everywhere else. Bound maintainers use these to
  /// keep aborted candidates' lower bounds above the incumbent instead of
  /// letting them fall back to δ_l.
  std::vector<double> abort_bounds;
};

/// The candidate loop of Algorithm 1 over externally supplied per-constraint
/// facts: combines bounds per variant (δ_l = max, δ_u = sum), seeds δ_min
/// with δ_u(Σ) when θ >= 0, processes candidates in ascending-δ_l order
/// under bound pruning and the DataRepair budget, and repairs each survivor
/// through the canonicalized SolveDirtyComponents pipeline with one shared
/// MaterializedCache — or, with options.use_vfree off, with HolisticRepair.
/// CVTolerantRepair (facts from ScanVariantFacts) and the streaming reopen
/// path (facts delta-maintained by a VariantTracker) both run this function
/// on the same variant family, which is what makes streamed-vs-scratch
/// equivalence exact: equal facts in, bit-identical chosen variant and
/// repair out (modulo fresh-id numbering from `fresh_counter`). There is no
/// repair-of-Σ fallback: `have_result` is false when every candidate was
/// pruned or aborted, and the caller decides (CVTolerantRepair repairs Σ, a
/// streaming caller keeps its incumbent). `stats`, when given, accumulates
/// the engine counters of every candidate solve (solver calls, cache hits,
/// suspects, decomposition, and the fresh/deleted counts of all candidates
/// rather than the chosen one). `encoded` mirrors I; when null, I is
/// encoded once for the search.
VariantSearchResult CVTolerantSearchWithFacts(
    const Relation& I, const ConstraintSet& sigma,
    const std::vector<SigmaVariant>& variants, const VariantFactsFn& facts_of,
    const CVTolerantOptions& options, int64_t* fresh_counter,
    const EncodedRelation* encoded = nullptr, RepairStats* stats = nullptr);

/// Computes VariantFacts for every distinct constraint of Σ and `variants`
/// by full capped detection scans on I — the from-scratch twin of a
/// VariantTracker's delta-maintained facts. Distinct constraints are
/// scanned in parallel under options.threads, each by one
/// FindViolationsOfCapped on `encoded` (I is encoded for the call when it
/// is null). The facts are identical at any thread count.
std::map<DenialConstraint, VariantFacts> ScanVariantFacts(
    const Relation& I, const ConstraintSet& sigma,
    const std::vector<SigmaVariant>& variants,
    const CVTolerantOptions& options, const EncodedRelation* encoded = nullptr);

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_CVTOLERANT_H_
