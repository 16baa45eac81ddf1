#include "repair/holistic.h"

#include <chrono>
#include <optional>

#include "dc/incremental.h"
#include "graph/conflict_hypergraph.h"
#include "relation/encoded.h"
#include "solver/components.h"
#include "solver/repair_context.h"
#include "util/trace.h"

namespace cvrepair {

RepairResult HolisticRepair(const Relation& I, const ConstraintSet& sigma,
                            const HolisticOptions& options) {
  auto start = std::chrono::steady_clock::now();
  RepairResult result;
  result.satisfied_constraints = sigma;

  Relation current = I;
  int64_t fresh_counter = 1;
  bool clean = false;
  std::optional<ViolationIndex> index;
  if (options.incremental) index.emplace(I, sigma);
  // Full-scan mode keeps a coded mirror of the working copy, delta-updated
  // beside every SetValue (never rebuilt per round).
  std::optional<EncodedRelation> encoded;
  if (!options.incremental) encoded.emplace(current);
  TraceSpan repair_span("holistic/repair");
  for (int round = 0; round < options.max_rounds; ++round) {
    TraceSpan round_span("holistic/round");
    round_span.AddArg("round", round);
    std::vector<Violation> violations =
        index ? index->CurrentViolations() : FindViolations(*encoded, sigma);
    if (round == 0) {
      result.stats.initial_violations = static_cast<int>(violations.size());
    }
    if (violations.empty()) {
      clean = true;
      break;
    }
    ++result.stats.rounds;

    ConflictHypergraph g =
        ConflictHypergraph::Build(current, sigma, violations, options.cost);
    VertexCover cover = ApproximateVertexCover(g, options.cover);
    std::vector<Cell> changing = cover.Cells(g);

    // Holistic puts only the observed violations into the repair context.
    RepairContext rc =
        RepairContext::Build(current, sigma, changing, violations);
    std::vector<Component> components = DecomposeComponents(rc);

    DomainStats stats_of_round(current);
    CspSolver solver(current, stats_of_round, options.cost, &fresh_counter,
                     options.solver);
    for (const Component& comp : components) {
      ComponentSolution solution = solver.Solve(comp);
      ++result.stats.solver_calls;
      for (size_t v = 0; v < comp.cells.size(); ++v) {
        if (solution.values[v].is_fresh()) ++result.stats.fresh_assignments;
        current.SetValue(comp.cells[v], solution.values[v]);
        if (encoded) encoded->ApplyChange(comp.cells[v].row, comp.cells[v].attr);
        if (index) index->ApplyChange(comp.cells[v], solution.values[v]);
      }
    }
  }

  if (!clean) {
    // Round budget exhausted: force fresh variables onto a cover of the
    // remaining violations. fv satisfies no predicate, so this pass cannot
    // create new violations and the instance becomes clean.
    std::vector<Violation> violations =
        FindViolations(index ? *index->encoded() : *encoded, sigma);
    if (!violations.empty()) {
      ++result.stats.rounds;
      ConflictHypergraph g =
          ConflictHypergraph::Build(current, sigma, violations, options.cost);
      VertexCover cover = ApproximateVertexCover(g, options.cover);
      for (const Cell& cell : cover.Cells(g)) {
        current.SetValue(cell, Value::Fresh(fresh_counter++));
        ++result.stats.fresh_assignments;
      }
    }
  }

  result.repaired = std::move(current);
  result.stats.changed_cells = ChangedCellCount(I, result.repaired);
  result.stats.repair_cost = RepairCost(I, result.repaired, options.cost);
  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace cvrepair
