#ifndef CVREPAIR_REPAIR_REPAIR_RESULT_H_
#define CVREPAIR_REPAIR_REPAIR_RESULT_H_

#include <cstdint>
#include <string>

#include "dc/constraint.h"
#include "relation/relation.h"

namespace cvrepair {

/// Execution counters shared by all repair algorithms; the
/// constraint-variation fields are only populated by CVTolerantRepair.
struct RepairStats {
  // Data-repair counters.
  int rounds = 0;            ///< repair rounds (always 1 for Vfree)
  int solver_calls = 0;      ///< component problems sent to the solver
  int cache_hits = 0;        ///< component solutions reused (Section 4.2)
  int fresh_assignments = 0; ///< cells assigned a fresh variable
  int changed_cells = 0;
  double repair_cost = 0.0;  ///< Δ(I, I') under the run's cost model
  int initial_violations = 0;
  int suspects = 0;
  /// Tuples tombstoned by the subset-repair strategy (repair/subset.h);
  /// 0 under the pure cell-update strategy.
  int rows_deleted = 0;

  // Topology-aware decomposition counters (vfree with decompose on; see
  // DESIGN.md §12). These mirror the global "solve.*" registry counters,
  // which the vfree engine increments directly — PublishRepairStats must
  // not republish them.
  int64_t components_split = 0;       ///< oversized components actually split
  int64_t stitch_merges = 0;          ///< merged re-solves of boundary regions
  int64_t giant_component_cells = 0;  ///< cells in components over the threshold

  // Constraint-variation counters (CVTolerant only).
  int variants_enumerated = 0;      ///< |D| after generation
  int variants_pruned_nonmaximal = 0;
  int variants_pruned_bounds = 0;   ///< skipped by delta_l > delta_min
  int datarepair_calls = 0;         ///< DataRepair invocations (Alg. 1 line 4)

  // Violation-scan counters (CVTolerant only): per-run deltas of the
  // process-wide eval counters (dc/violation.h), so they are meaningful
  // when one repair runs at a time.
  int64_t index_partition_builds = 0;  ///< partitions built by a full scan
  int64_t index_code_evals = 0;        ///< predicate evals on integer codes
  int64_t index_truncated_scans = 0;   ///< capped scans that hit their cap
  int64_t index_blocks_scanned = 0;    ///< zone-map consults that ran a block
  int64_t index_blocks_skipped = 0;    ///< zone-map consults that pruned one
  int64_t bound_memo_hits = 0;  ///< δ bounds reused via the facts cache

  double elapsed_seconds = 0.0;

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// Publishes a run's integer work counters into the global MetricsRegistry
/// under the "repair." prefix, so metrics.json carries the repair outcome
/// next to the "eval."/"cache." subsystem counters. The eval-counter fields
/// are *not* republished (they are per-run deltas of counters the registry
/// already holds); floats (cost, time) never enter the registry. Call once
/// per finished run — the CLI and benches do, after their top-level repair.
void PublishRepairStats(const RepairStats& stats);

/// Outcome of a repair run: the repaired instance, the constraint set it
/// satisfies (for CVTolerant, the chosen variant Σ'; otherwise the input
/// Σ), and counters.
struct RepairResult {
  Relation repaired;
  ConstraintSet satisfied_constraints;
  RepairStats stats;
};

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_REPAIR_RESULT_H_
