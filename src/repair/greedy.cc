#include "repair/greedy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "dc/violation.h"
#include "graph/conflict_hypergraph.h"
#include "graph/vertex_cover.h"
#include "relation/domain_stats.h"
#include "relation/encoded.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

// Inverse-predicate constraint on a single cell against a fixed value.
struct LocalAtom {
  Op op;
  Value fixed;
};

}  // namespace

RepairResult GreedyRepair(const Relation& I, const ConstraintSet& sigma,
                          const GreedyOptions& options) {
  auto start = std::chrono::steady_clock::now();
  RepairResult result;
  result.satisfied_constraints = sigma;

  Relation current = I;
  std::unordered_map<Cell, int, CellHash> touches;
  int64_t fresh = 1;
  const int kMaxRounds = 30;
  int iterations = 0;

  // Coded mirror of the working copy, delta-updated beside every SetValue.
  EncodedRelation encoded(current);
  auto set_value = [&](const Cell& cell, Value value) {
    current.SetValue(cell, std::move(value));
    encoded.ApplyChange(cell.row, cell.attr);
  };

  TraceSpan repair_span("greedy/repair");
  for (int round = 0; round < kMaxRounds; ++round) {
    TraceSpan round_span("greedy/round");
    round_span.AddArg("round", round);
    std::vector<Violation> violations = FindViolations(encoded, sigma);
    if (round == 0) {
      result.stats.initial_violations = static_cast<int>(violations.size());
    }
    if (violations.empty()) break;
    ++result.stats.rounds;

    ConflictHypergraph g =
        ConflictHypergraph::Build(current, sigma, violations, options.cost);
    VertexCover cover =
        ApproximateVertexCover(g, CoverHeuristic::kGreedyDegree);
    std::vector<Cell> picked = cover.Cells(g);
    CellSet picked_set(picked.begin(), picked.end());
    DomainStats stats(current);

    // Local inverse constraints per picked cell, derived from its own
    // violations only (the greedy short-sightedness the paper contrasts
    // with Vfree): other cells are treated as fixed at current values.
    std::unordered_map<Cell, std::vector<LocalAtom>, CellHash> atoms;
    for (const Violation& v : violations) {
      const DenialConstraint& c = sigma[v.constraint_index];
      for (const Predicate& p : c.predicates()) {
        Cell lhs{v.rows[p.lhs().tuple], p.lhs().attr};
        if (p.has_constant()) {
          if (picked_set.count(lhs)) {
            atoms[lhs].push_back({Inverse(p.op()), p.constant()});
          }
          continue;
        }
        Cell rhs{v.rows[p.rhs_cell().tuple], p.rhs_cell().attr};
        if (picked_set.count(lhs)) {
          atoms[lhs].push_back({Inverse(p.op()), current.Get(rhs)});
        } else if (picked_set.count(rhs)) {
          atoms[rhs].push_back(
              {FlipOperands(Inverse(p.op())), current.Get(lhs)});
        }
      }
    }

    for (const Cell& cell : picked) {
      if (++iterations > options.max_iterations) break;
      int& t = touches[cell];
      ++t;
      if (t > options.max_touches_per_cell) {
        set_value(cell, Value::Fresh(fresh++));
        ++result.stats.fresh_assignments;
        continue;
      }
      const std::vector<LocalAtom>& local = atoms[cell];
      const Value original = current.Get(cell);
      Value best_value = Value::Fresh(0);
      int best_sat = -1;
      double best_dist = 0.0;
      for (const auto& [candidate, freq] : stats.attr(cell.attr).frequencies) {
        (void)freq;
        if (candidate == original) continue;
        int sat = 0;
        for (const LocalAtom& a : local) {
          if (EvalOp(candidate, a.op, a.fixed)) ++sat;
        }
        double dist =
            (candidate.is_numeric() && original.is_numeric())
                ? std::abs(candidate.numeric() - original.numeric())
                : 0.0;
        if (sat > best_sat || (sat == best_sat && dist < best_dist)) {
          best_sat = sat;
          best_value = candidate;
          best_dist = dist;
        }
      }
      if (best_sat < static_cast<int>(local.size()) || best_value.is_fresh()) {
        // No domain value settles every local conflict: fresh variable.
        set_value(cell, Value::Fresh(fresh++));
        ++result.stats.fresh_assignments;
      } else {
        set_value(cell, best_value);
      }
    }
    if (iterations > options.max_iterations) break;
  }

  // Safety net: force fresh variables over any remaining conflicts.
  std::vector<Violation> remaining = FindViolations(encoded, sigma);
  if (!remaining.empty()) {
    ConflictHypergraph g =
        ConflictHypergraph::Build(current, sigma, remaining, options.cost);
    VertexCover cover =
        ApproximateVertexCover(g, CoverHeuristic::kGreedyDegree);
    for (const Cell& cell : cover.Cells(g)) {
      set_value(cell, Value::Fresh(fresh++));
      ++result.stats.fresh_assignments;
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
