#ifndef CVREPAIR_REPAIR_VFREE_H_
#define CVREPAIR_REPAIR_VFREE_H_

#include <optional>
#include <utility>

#include "dc/violation.h"
#include "graph/vertex_cover.h"
#include "relation/domain_stats.h"
#include "repair/costs.h"
#include "repair/repair_result.h"
#include "repair/subset.h"
#include "solver/csp_solver.h"
#include "solver/materialized_cache.h"

namespace cvrepair {

/// Options shared by the Vfree repair entry points.
struct VfreeOptions {
  CostModel cost;
  CoverHeuristic cover = CoverHeuristic::kGreedyDegree;
  SolverOptions solver;
  /// Thread budget for component solving: 0 = the global ThreadPool
  /// setting, 1 = the exact legacy serial path. Results are bit-identical
  /// across thread counts (components share no cells; fresh-variable ids
  /// are replayed in serial order).
  int threads = 0;
  /// Read by nothing; kept only because perfbench/driver.cc:374 assigns it.
  bool use_encoded = true;
  /// Topology-aware decomposition of giant components (DESIGN.md §12):
  /// components with more than `max_component` cells are split at
  /// low-density articulation vertices (graph/decompose.h), the parts
  /// solved independently — restoring thread-pool parallelism and
  /// MaterializedCache hits — and the boundary-straddling atoms
  /// re-verified by a stitching check that merges and re-solves only the
  /// still-conflicting region. The repaired instance stays violation-free
  /// either way. Off by default.
  bool decompose = false;
  /// Size threshold (in cells) above which a component is split. Only
  /// meaningful with `decompose`.
  int max_component = 24;
  /// How violations are resolved (repair/subset.h): cell updates (the
  /// paper's model, default), tuple deletion (subset repair), or the
  /// hybrid rule — solve with updates, then tombstone any tuple whose
  /// summed update cost exceeds its deletion weight. Deleted tuples are
  /// tombstoned in place (all cells NULL), which keeps row counts and
  /// lets the deletion flow through the encoded backend and ViolationIndex
  /// delta maintenance unchanged.
  RepairStrategy strategy = RepairStrategy::kUpdate;
  /// Deletion weights / representation-cost accounting for kDelete and
  /// kHybrid.
  SubsetOptions subset;
};

/// Algorithm 2 (DATAREPAIR): repairs the changing cells `changing` of `I`
/// w.r.t. `sigma` in a single violation-free round. Suspects (Definition 6)
/// of the changing set are collected, their repair contexts assembled
/// (Section 4.1.2), decomposed into components, and each component is
/// solved — reusing `cache` entries across calls when the refinement test
/// of Proposition 6 allows (pass nullptr to disable sharing).
///
/// Returns std::nullopt when the accumulated repair cost exceeds
/// `delta_min` (Algorithm 2, lines 18-19); otherwise the repaired
/// instance, which satisfies `sigma` by Proposition 5.
///
/// `stats` collects solver calls / cache hits / fresh assignments;
/// `fresh_counter` supplies globally unique fresh-variable ids.
///
/// `encoded`, when given, must mirror `I` (in_sync); when null, `I` is
/// encoded for the call.
std::optional<Relation> DataRepairVfree(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const std::vector<Cell>& changing,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded = nullptr);

/// A component-scoped repair: the cell assignments that fix the dirty
/// components, without materializing a copy of the untouched remainder of
/// the instance. Assignments are in replay (component, cell) order; fresh
/// ids are already minted from the caller's counter.
struct ScopedRepair {
  std::vector<std::pair<Cell, Value>> assignments;
  double cost = 0.0;   ///< summed component solution costs
  int components = 0;  ///< components solved or answered by the cache
};

/// The component pipeline of Algorithm 2 without the whole-instance copy:
/// suspects of `changing` are collected, the repair context assembled and
/// decomposed, and each component solved (parallel pre-solve + serial
/// replay under `options.threads`, exactly as DataRepairVfree). Returns
/// std::nullopt on a `delta_min` cost abort. Applying the assignments to
/// `I` yields precisely DataRepairVfree's result — DataRepairVfree is
/// this function plus the copy.
std::optional<ScopedRepair> SolveComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const std::vector<Cell>& changing,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded = nullptr);

/// Sorts violations into the canonical (constraint_index, rows) order —
/// the order ViolationIndex::CurrentViolations emits. Entry points taking
/// an externally detected violation set canonicalize first, so a
/// delta-maintained set and a full-scan set that agree as *sets* yield
/// bit-identical repairs.
void CanonicalizeViolations(std::vector<Violation>* violations);

/// One violation-free repair round driven by an already-detected
/// violation set (e.g. the delta-maintained set of a StreamingRepairer):
/// canonicalize -> conflict hypergraph -> vertex cover -> SolveComponents.
/// Rows not reachable from `violations` are never touched, which is what
/// scopes a streaming batch's work to its dirty components.
std::optional<ScopedRepair> SolveDirtyComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, std::vector<Violation> violations,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded = nullptr);

/// The standalone Vfree repair algorithm (Section 4): detects violations,
/// picks an approximate minimum vertex cover as the changing set, and runs
/// one round of DataRepairVfree. The result satisfies `sigma`.
RepairResult VfreeRepair(const Relation& I, const ConstraintSet& sigma,
                         const VfreeOptions& options = {});

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_VFREE_H_
