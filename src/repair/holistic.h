#ifndef CVREPAIR_REPAIR_HOLISTIC_H_
#define CVREPAIR_REPAIR_HOLISTIC_H_

#include "dc/violation.h"
#include "graph/vertex_cover.h"
#include "repair/costs.h"
#include "repair/repair_result.h"
#include "solver/csp_solver.h"

namespace cvrepair {

/// Options for the Holistic baseline.
struct HolisticOptions {
  CostModel cost;
  CoverHeuristic cover = CoverHeuristic::kGreedyDegree;
  SolverOptions solver;
  /// After this many rounds every still-conflicting cover cell is forced
  /// to a fresh variable, guaranteeing termination with I' ⊨ Σ.
  int max_rounds = 25;
  /// Maintain violations incrementally across rounds (ViolationIndex)
  /// instead of re-detecting from scratch — same violation sets, less
  /// work per round when few cells change.
  bool incremental = false;
};

/// Holistic data repairing (Chu, Ilyas, Papotti, ICDE 2013 [8]),
/// reimplemented as the paper's baseline: each round detects the current
/// violations, selects cover cells, and assembles repair contexts from the
/// *violations only* (no suspects). Because a round's assignments can
/// introduce new violations, the algorithm loops until the instance is
/// clean — the multi-round behaviour the Vfree algorithm is designed to
/// avoid (Section 4).
RepairResult HolisticRepair(const Relation& I, const ConstraintSet& sigma,
                            const HolisticOptions& options = {});

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_HOLISTIC_H_
