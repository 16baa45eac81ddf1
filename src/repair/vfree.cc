#include "repair/vfree.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "dc/op.h"
#include "graph/bounds.h"
#include "graph/conflict_hypergraph.h"
#include "graph/decompose.h"
#include "relation/encoded.h"
#include "solver/components.h"
#include "solver/repair_context.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

// Cached handles for the "solve.*" decomposition work counters. The split
// plan is computed serially before the presolve and stitching runs in the
// serial replay, so all three are thread-count invariant (metrics.json
// safe).
MetricCounter* SplitCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.components_split");
  return c;
}
MetricCounter* StitchCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.stitch_merges");
  return c;
}
MetricCounter* GiantCellsCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.giant_component_cells");
  return c;
}
// CSP work actually spent (cache hits excluded): the per-component eval
// count is computed by Solve and carried in the solution, so the serial
// replay can publish it no matter which thread ran the solve.
MetricCounter* CspEvalsCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.csp_atom_evals");
  return c;
}
// Cells handed to the solver inside an oversized problem — the serial
// giant-component path decomposition exists to bypass. Counted whether or
// not decomposition is on, so an A/B run shows the drop directly.
MetricCounter* OversizedCellsCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.oversized_solver_cells");
  return c;
}
// Interval bound-tightenings spent by the numeric propagation passes
// (solver/interval.h) — carried per component like atom_evals, so the
// serial replay publishes a thread-count-invariant total.
MetricCounter* IntervalNarrowCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.interval_narrowings");
  return c;
}
// Fresh variables the solver actually minted — the fallback interval
// propagation exists to avoid. Pinned require_zero on workloads whose
// components are fully propagation-solvable.
MetricCounter* FreshFallbackCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.fresh_fallbacks");
  return c;
}

// NULL and fresh values discharge any atom — the same semantics as the
// component solver's satisfaction check (csp_solver.cc), so the stitching
// check accepts exactly the assignments a merged solve would.
bool StitchAtomHolds(const RcAtom& atom, const std::vector<Value>& values) {
  const Value& lhs = values[atom.lhs_var];
  if (lhs.is_null() || lhs.is_fresh()) return true;
  const Value& rhs = atom.rhs_is_var ? values[atom.rhs_var] : atom.rhs_const;
  if (rhs.is_null() || rhs.is_fresh()) return true;
  return EvalOp(lhs, atom.op, rhs);
}

// Hybrid post-pass (strategy kHybrid): after the update solve, tombstone
// every row whose summed update cost exceeds its deletion weight. Sound
// because NULL discharges every atom — dropping a row's updates in favor
// of NULLs can only discharge more constraints, never re-violate one —
// and deterministic because it runs serially on the replayed assignment
// list, so every thread count and the streamed/scratch twins agree.
void ApplyHybridDeletions(const Relation& I, const DomainStats& stats_of_I,
                          const VfreeOptions& options, ScopedRepair* repair,
                          RepairStats* stats) {
  std::map<int, double> row_cost;
  for (const auto& [cell, value] : repair->assignments) {
    row_cost[cell.row] += options.cost.CellDist(cell, I.Get(cell), value);
  }
  std::set<int> doomed;
  for (const auto& [row, cost] : row_cost) {
    if (cost > RowDeletionWeight(I, stats_of_I, row, options.subset)) {
      doomed.insert(row);
    }
  }
  if (doomed.empty()) return;
  std::vector<std::pair<Cell, Value>> kept;
  kept.reserve(repair->assignments.size());
  for (auto& [cell, value] : repair->assignments) {
    if (doomed.count(cell.row)) {
      if (value.is_fresh() && stats) --stats->fresh_assignments;
      continue;
    }
    kept.emplace_back(cell, std::move(value));
  }
  for (int row : doomed) {  // ascending: std::set order
    for (AttrId a = 0; a < I.num_attributes(); ++a) {
      if (!I.Get(row, a).is_null()) {
        kept.emplace_back(Cell{row, a}, Value::Null());
      }
    }
    repair->cost +=
        RowDeletionWeight(I, stats_of_I, row, options.subset) - row_cost[row];
    if (stats) ++stats->rows_deleted;
  }
  repair->assignments = std::move(kept);
}

}  // namespace

std::optional<ScopedRepair> SolveComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const std::vector<Cell>& changing,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded) {
  TraceSpan repair_span("vfree/data_repair");
  // Touch the solve.* counters up front so they appear (as zeros) in every
  // metrics snapshot — require_zero baselines distinguish "0" from
  // "missing".
  SplitCounter();
  StitchCounter();
  GiantCellsCounter();
  CspEvalsCounter();
  OversizedCellsCounter();
  IntervalNarrowCounter();
  FreshFallbackCounter();
  CellSet changing_set(changing.begin(), changing.end());
  std::optional<EncodedRelation> own;
  if (!encoded) encoded = &own.emplace(I);
  std::vector<Violation> suspects;
  {
    TraceSpan span("vfree/find_suspects");
    suspects = FindSuspects(*encoded, sigma, changing_set);
    span.AddArg("suspects", static_cast<int64_t>(suspects.size()));
  }
  if (stats) stats->suspects += static_cast<int>(suspects.size());

  RepairContext rc = RepairContext::Build(I, sigma, changing, suspects);
  std::vector<Component> components = DecomposeComponents(rc);
  repair_span.AddArg("components", static_cast<int64_t>(components.size()));

  CspSolver solver(I, stats_of_I, options.cost, fresh_counter, options.solver);

  // Topology-aware decomposition (DESIGN.md §12): plan the splits before
  // the presolve so the parallel and the serial paths see the same
  // flattened work list. The plan is a pure function of the components, so
  // the solve.* counters stay thread-count invariant.
  std::vector<SplitPlan> plans;
  if (options.decompose) {
    DecomposeOptions dopts;
    dopts.max_component = options.max_component;
    plans.resize(components.size());
    for (size_t ci = 0; ci < components.size(); ++ci) {
      const Component& comp = components[ci];
      if (static_cast<int>(comp.cells.size()) <= options.max_component) {
        continue;
      }
      GiantCellsCounter()->Add(static_cast<int64_t>(comp.cells.size()));
      if (stats) {
        stats->giant_component_cells +=
            static_cast<int64_t>(comp.cells.size());
      }
      plans[ci] = SplitComponent(comp, dopts);
      if (plans[ci].split()) {
        SplitCounter()->Increment();
        if (stats) ++stats->components_split;
      }
    }
  }
  auto is_split = [&](size_t ci) {
    return !plans.empty() && plans[ci].split();
  };
  // Flattened solve units: each unsplit component, or each part of a split
  // one (contiguous, starting at unit_of[ci]).
  std::vector<const Component*> units;
  std::vector<size_t> unit_of(components.size(), 0);
  for (size_t ci = 0; ci < components.size(); ++ci) {
    unit_of[ci] = units.size();
    if (is_split(ci)) {
      for (const Component& part : plans[ci].parts) units.push_back(&part);
    } else {
      units.push_back(&components[ci]);
    }
  }

  // Units share no cells, so they are solved concurrently and the
  // solutions replayed serially below. Each pre-solve draws fresh ids from
  // a private counter: the solver's chosen assignment never depends on the
  // counter's value, and fresh ids are re-minted from the shared counter
  // during the replay — which also performs the cache lookups/stores in
  // unit order — so the result is bit-identical to the serial path.
  // (A pre-solve is wasted when the replay's cache lookup hits, including
  // hits on entries stored earlier in this very replay; correctness and
  // determinism take precedence over that overlap.)
  const bool presolve =
      ThreadPool::EffectiveThreads(options.threads) > 1 && units.size() > 1;
  std::vector<ComponentSolution> presolved;
  if (presolve) {
    TraceSpan span("vfree/presolve_components");
    presolved.resize(units.size());
    ThreadPool::ParallelFor(
        static_cast<int64_t>(units.size()),
        [&](int64_t i) {
          TraceSpan solve_span("vfree/solve_component");
          solve_span.AddArg("component", i);
          int64_t private_fresh = 1;
          CspSolver local(I, stats_of_I, options.cost, &private_fresh,
                          options.solver);
          presolved[static_cast<size_t>(i)] =
              local.Solve(*units[static_cast<size_t>(i)]);
        },
        options.threads);
  }

  TraceSpan replay_span("vfree/replay_components");
  ScopedRepair result;
  result.components = static_cast<int>(components.size());
  constexpr size_t kNoUnit = static_cast<size_t>(-1);
  // One unit's solution via the shared cache/presolve/serial protocol.
  // `unit` = kNoUnit for stitching merges, which never have a presolve.
  auto resolve = [&](const Component& comp, size_t unit) {
    ComponentSolution solution;
    bool from_cache = false;
    if (cache) {
      bool prior_epoch = false;
      if (std::optional<ComponentSolution> hit =
              cache->Lookup(comp, &prior_epoch)) {
        solution = std::move(*hit);
        from_cache = true;
        if (stats) ++stats->cache_hits;
        if (prior_epoch) {
          // A cross-batch hit stands in for the solve a cold per-batch
          // cache would have run: advance the shared counter exactly as
          // that solve would (the re-mint loop below draws its own ids on
          // top), and re-store the entry at the current epoch so later
          // lookups in this pass see it under the refinement rule, in the
          // same store order a cold cache would have produced. Both steps
          // are what keep a persistent cache bit-identical to a cold one.
          *fresh_counter += solution.fresh_count;
          cache->Store(comp, solution);
        }
      }
    }
    if (!from_cache) {
      if (presolve && unit != kNoUnit) {
        solution = std::move(presolved[unit]);
        // Advance the shared counter exactly as the serial solve would
        // have (Solve draws one id per fresh assignment).
        *fresh_counter += solution.fresh_count;
      } else {
        TraceSpan solve_span("vfree/solve_component");
        solution = solver.Solve(comp);
      }
      if (stats) ++stats->solver_calls;
      if (cache) cache->Store(comp, solution);
      // Work counters, published from the serial replay only so they are
      // thread-count invariant (the presolve's call set is not).
      CspEvalsCounter()->Add(solution.atom_evals);
      IntervalNarrowCounter()->Add(solution.interval_narrowings);
      FreshFallbackCounter()->Add(solution.fresh_count);
      if (static_cast<int>(comp.cells.size()) > options.max_component) {
        OversizedCellsCounter()->Add(
            static_cast<int64_t>(comp.cells.size()));
      }
    }
    return solution;
  };
  // Emits one component's final values (re-minting fresh ids so cached
  // solutions never alias fv names) and enforces the Alg. 2 cost abort.
  auto emit = [&](const std::vector<Cell>& cells,
                  const std::vector<Value>& values, double cost) {
    for (size_t v = 0; v < cells.size(); ++v) {
      Value value = values[v];
      if (value.is_fresh()) {
        value = Value::Fresh((*fresh_counter)++);
        if (stats) ++stats->fresh_assignments;
      }
      result.assignments.emplace_back(cells[v], std::move(value));
    }
    result.cost += cost;
    return result.cost <= delta_min;  // Alg. 2 lines 18-19
  };

  for (size_t ci = 0; ci < components.size(); ++ci) {
    const Component& comp = components[ci];
    if (!is_split(ci)) {
      ComponentSolution solution = resolve(comp, unit_of[ci]);
      if (!emit(comp.cells, solution.values, solution.cost)) {
        return std::nullopt;
      }
      continue;
    }

    // Split path: solve the parts independently, then stitch — re-verify
    // the boundary-straddling atoms on the combined assignment and merge +
    // re-solve only the regions that still conflict. Every merge round
    // strictly decreases the live part count, so the loop terminates; the
    // worst case degenerates to the original undecomposed component, whose
    // solve satisfies every atom by construction.
    const SplitPlan& plan = plans[ci];
    const int n = static_cast<int>(comp.cells.size());
    const size_t num_parts = plan.parts.size();
    std::vector<double> part_cost(num_parts, 0.0);
    std::vector<bool> live(num_parts, true);
    std::vector<Value> combined(n);
    std::vector<int> cur_part(n);
    std::vector<std::vector<int>> part_vars(num_parts);
    for (int v = 0; v < n; ++v) {
      cur_part[v] = plan.part_of[v];
      part_vars[plan.part_of[v]].push_back(v);  // ascending = local id order
    }
    for (size_t p = 0; p < num_parts; ++p) {
      ComponentSolution psol = resolve(plan.parts[p], unit_of[ci] + p);
      part_cost[p] = psol.cost;
      for (size_t i = 0; i < part_vars[p].size(); ++i) {
        combined[part_vars[p][i]] = psol.values[i];
      }
    }

    while (true) {
      // Union-find over part ids, rooted at the smallest id of each group.
      std::vector<int> parent(num_parts);
      for (size_t p = 0; p < num_parts; ++p) parent[p] = static_cast<int>(p);
      auto find = [&](int x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      bool any_violated = false;
      for (const RcAtom& a : plan.cross_atoms) {
        const int pl = cur_part[a.lhs_var];
        const int pr = cur_part[a.rhs_var];
        if (pl == pr) continue;  // merged earlier: satisfied internally
        if (StitchAtomHolds(a, combined)) continue;
        any_violated = true;
        const int rl = find(pl);
        const int rr = find(pr);
        if (rl != rr) parent[std::max(rl, rr)] = std::min(rl, rr);
      }
      if (!any_violated) break;
      // Merge each still-conflicting group (ascending root id) and
      // re-solve it as one component over all of its original atoms.
      for (size_t root = 0; root < num_parts; ++root) {
        if (!live[root] || find(static_cast<int>(root)) !=
                               static_cast<int>(root)) {
          continue;
        }
        std::vector<int> vars;
        bool group = false;
        for (int v = 0; v < n; ++v) {
          if (find(cur_part[v]) == static_cast<int>(root)) {
            vars.push_back(v);
            group |= cur_part[v] != static_cast<int>(root);
          }
        }
        if (!group) continue;  // singleton: nothing merged into this root
        Component merged = RestrictComponent(comp, vars);
        StitchCounter()->Increment();
        if (stats) ++stats->stitch_merges;
        ComponentSolution msol = resolve(merged, kNoUnit);
        for (size_t i = 0; i < vars.size(); ++i) {
          const int v = vars[i];
          if (live[cur_part[v]] && cur_part[v] != static_cast<int>(root)) {
            live[cur_part[v]] = false;
          }
          cur_part[v] = static_cast<int>(root);
          combined[v] = msol.values[i];
        }
        part_cost[root] = msol.cost;
      }
    }

    double comp_cost = 0.0;
    for (size_t p = 0; p < num_parts; ++p) {
      if (live[p]) comp_cost += part_cost[p];
    }
    if (!emit(comp.cells, combined, comp_cost)) return std::nullopt;
  }
  if (options.strategy == RepairStrategy::kHybrid) {
    ApplyHybridDeletions(I, stats_of_I, options, &result, stats);
  }
  return result;
}

std::optional<Relation> DataRepairVfree(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const std::vector<Cell>& changing,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded) {
  std::optional<ScopedRepair> scoped =
      SolveComponents(I, stats_of_I, sigma, changing, delta_min, options,
                      cache, stats, fresh_counter, encoded);
  if (!scoped) return std::nullopt;
  Relation repaired = I;
  for (auto& [cell, value] : scoped->assignments) {
    repaired.SetValue(cell, std::move(value));
  }
  return repaired;
}

void CanonicalizeViolations(std::vector<Violation>* violations) {
  std::sort(violations->begin(), violations->end(),
            [](const Violation& a, const Violation& b) {
              if (a.constraint_index != b.constraint_index) {
                return a.constraint_index < b.constraint_index;
              }
              return a.rows < b.rows;
            });
}

std::optional<ScopedRepair> SolveDirtyComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, std::vector<Violation> violations,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded) {
  if (violations.empty()) return ScopedRepair{};
  CanonicalizeViolations(&violations);
  if (options.strategy == RepairStrategy::kDelete) {
    // Subset repair: resolve by tuple deletion over the tuple projection —
    // no repair contexts, no solver, no cache. One cover pass is always
    // violation-free (NULL discharges every predicate) and deletions can
    // never create new violations, so this mirrors the single-round
    // guarantee of the update path.
    SubsetRepair sub =
        SubsetCoverRepair(I, stats_of_I, violations, options.subset, stats);
    ScopedRepair result;
    result.assignments = std::move(sub.assignments);
    result.cost = sub.cost;
    result.components = sub.rows_deleted;
    if (result.cost > delta_min) return std::nullopt;  // Alg. 2 lines 18-19
    return result;
  }
  ConflictHypergraph g =
      ConflictHypergraph::Build(I, sigma, violations, options.cost);
  VertexCover cover = ApproximateVertexCover(g, options.cover, &stats_of_I);
  std::vector<Cell> changing = cover.Cells(g);
  return SolveComponents(I, stats_of_I, sigma, changing, delta_min, options,
                         cache, stats, fresh_counter, encoded);
}

RepairResult VfreeRepair(const Relation& I, const ConstraintSet& sigma,
                         const VfreeOptions& options) {
  auto start = std::chrono::steady_clock::now();
  RepairResult result;
  result.satisfied_constraints = sigma;
  result.stats.rounds = 1;

  const EncodedRelation E(I);
  std::vector<Violation> violations = FindViolations(E, sigma);
  result.stats.initial_violations = static_cast<int>(violations.size());

  DomainStats stats_of_I(I);
  if (options.strategy == RepairStrategy::kDelete) {
    CanonicalizeViolations(&violations);
    SubsetRepair sub = SubsetCoverRepair(I, stats_of_I, violations,
                                         options.subset, &result.stats);
    result.repaired = I;
    for (auto& [cell, value] : sub.assignments) {
      result.repaired.SetValue(cell, std::move(value));
    }
    result.stats.changed_cells = ChangedCellCount(I, result.repaired);
    result.stats.repair_cost = sub.cost;
    result.stats.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
  }
  ConflictHypergraph g =
      ConflictHypergraph::Build(I, sigma, violations, options.cost);
  VertexCover cover = ApproximateVertexCover(g, options.cover, &stats_of_I);
  std::vector<Cell> changing = cover.Cells(g);

  int64_t fresh_counter = 1;
  std::optional<Relation> repaired = DataRepairVfree(
      I, stats_of_I, sigma, changing,
      std::numeric_limits<double>::infinity(), options,
      /*cache=*/nullptr, &result.stats, &fresh_counter, &E);
  // With an infinite bound DataRepairVfree always succeeds.
  result.repaired = std::move(*repaired);
  result.stats.changed_cells = ChangedCellCount(I, result.repaired);
  result.stats.repair_cost =
      options.strategy == RepairStrategy::kUpdate
          ? RepairCost(I, result.repaired, options.cost)
          : StrategyRepairCost(I, result.repaired, options.cost,
                               options.strategy, options.subset, stats_of_I);
  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace cvrepair
