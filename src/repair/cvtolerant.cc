#include "repair/cvtolerant.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>

#include "graph/bounds.h"
#include "relation/encoded.h"
#include "solver/materialized_cache.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

// The data-repair engine inherits the repair-level thread budget unless it
// was given its own, and the encoded backend follows the repair-level flag.
// The candidate loop and the scoped re-solves derive their engine options
// here, so a scoped re-solve is bit-identical to the candidate solve the
// full pipeline would run on the same violations.
VfreeOptions EngineOptions(const CVTolerantOptions& options) {
  VfreeOptions vfree = options.vfree;
  if (vfree.threads == 0) vfree.threads = options.threads;
  vfree.use_encoded = options.use_encoded;
  return vfree;
}

}  // namespace

RepairResult CVTolerantRepair(const Relation& I, const ConstraintSet& sigma,
                              const CVTolerantOptions& options) {
  auto start = std::chrono::steady_clock::now();
  TraceSpan repair_span("cvtolerant/repair");
  RepairResult result;

  VariantGenOptions gen = options.variants;
  const bool theta_nonnegative = gen.theta >= 0.0;
  gen.always_include_original =
      gen.always_include_original && theta_nonnegative;
  if (gen.data == nullptr) gen.data = &I;

  VariantGenStats gen_stats;
  std::vector<SigmaVariant> variants;
  {
    TraceSpan span("cvtolerant/generate_variants");
    variants = GenerateSigmaVariants(sigma, I.schema(), gen, &gen_stats);
    span.AddArg("variants", static_cast<int64_t>(variants.size()));
  }
  result.stats.variants_enumerated = static_cast<int>(variants.size());
  result.stats.variants_pruned_nonmaximal = gen_stats.pruned_nonmaximal;

  // One coded mirror of I, shared by the facts scan and every candidate
  // solve. I is never mutated during the run (repairs are built on
  // copies), so the mirror stays in sync for the whole repair.
  std::optional<EncodedRelation> encoded;
  if (options.use_encoded) encoded.emplace(I);
  const EncodedRelation* E = encoded ? &*encoded : nullptr;

  // Snapshot the process-wide eval counters first so stats report this
  // run's delta.
  EvalCounters counters_before = eval_counters::Snapshot();
  std::map<DenialConstraint, VariantFacts> facts =
      ScanVariantFacts(I, sigma, variants, options, E);
  // The facts map doubles as the δ-bound memo, keyed by the variant's
  // canonical predicate list: every lookup reuses a computed bound.
  int64_t bound_memo_hits = 0;
  int64_t fresh_counter = 1;
  VariantSearchResult search = CVTolerantSearchWithFacts(
      I, sigma, variants,
      [&](const DenialConstraint& c) -> const VariantFacts& {
        ++bound_memo_hits;
        return facts.at(c);
      },
      options, &fresh_counter, E, &result.stats);
  result.stats.initial_violations = search.sigma_violations;
  result.stats.variants_pruned_bounds = search.variants_pruned;
  result.stats.datarepair_calls = search.datarepair_calls;
  if (options.use_vfree) result.stats.rounds = 1;

  const VfreeOptions vfree_options = EngineOptions(options);
  result.satisfied_constraints = sigma;
  if (search.have_result) {
    result.repaired = std::move(search.repaired);
    result.satisfied_constraints = std::move(search.variant);
    result.stats.repair_cost = search.cost;
  } else if (theta_nonnegative) {
    // Every candidate (including Σ) was hopeless under the violation cap:
    // fall back to a plain uncapped repair of Σ so that θ >= 0 always
    // behaves at least like Vfree.
    RepairResult fallback = VfreeRepair(I, sigma, vfree_options);
    result.repaired = std::move(fallback.repaired);
    result.stats.repair_cost = fallback.stats.repair_cost;
    result.stats.solver_calls += fallback.stats.solver_calls;
  } else {
    // Extreme negative θ with no viable variant: input unchanged.
    result.repaired = I;
  }
  EvalCounters counters_delta = eval_counters::Snapshot() - counters_before;
  result.stats.index_partition_builds = counters_delta.partition_builds;
  result.stats.index_predicate_evals = counters_delta.predicate_evals;
  result.stats.index_code_evals = counters_delta.code_predicate_evals;
  result.stats.index_truncated_scans = counters_delta.truncated_scans;
  result.stats.index_blocks_scanned = counters_delta.blocks_scanned;
  result.stats.index_blocks_skipped = counters_delta.blocks_skipped;
  result.stats.bound_memo_hits = bound_memo_hits;
  // fresh_assignments accumulated across *all* candidate repairs; report
  // the count in the chosen repair instead.
  result.stats.fresh_assignments = 0;
  for (int i = 0; i < result.repaired.num_rows(); ++i) {
    for (AttrId a = 0; a < result.repaired.num_attributes(); ++a) {
      if (result.repaired.Get(i, a).is_fresh()) {
        ++result.stats.fresh_assignments;
      }
    }
  }
  result.stats.changed_cells = ChangedCellCount(I, result.repaired);
  if (vfree_options.strategy != RepairStrategy::kUpdate) {
    // Like fresh_assignments above: deletions accumulated across candidate
    // repairs — recount in the chosen one.
    result.stats.rows_deleted = 0;
    for (int i = 0; i < result.repaired.num_rows(); ++i) {
      if (RowDeleted(I, result.repaired, i)) ++result.stats.rows_deleted;
    }
  }
  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::optional<ScopedRepair> CVTolerantResolveComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& frozen_variant, std::vector<Violation> violations,
    const CVTolerantOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation* encoded, double delta_min) {
  TraceSpan span("cvtolerant/resolve_components");
  span.AddArg("violations", static_cast<int64_t>(violations.size()));
  return SolveDirtyComponents(I, stats_of_I, frozen_variant,
                              std::move(violations), delta_min,
                              EngineOptions(options), cache, stats,
                              fresh_counter,
                              options.use_encoded ? encoded : nullptr);
}

int64_t VariantViolationCap(const CVTolerantOptions& options, int num_rows) {
  return options.max_violations_per_tuple > 0
             ? static_cast<int64_t>(options.max_violations_per_tuple *
                                    std::max(num_rows, 1))
             : std::numeric_limits<int64_t>::max();
}

std::optional<DomainStats> VariantFactsStats(const Relation& I,
                                             const CVTolerantOptions& options) {
  std::optional<DomainStats> stats;
  if (options.vfree.cover == CoverHeuristic::kEntropyDensity) stats.emplace(I);
  return stats;
}

VariantFacts MakeVariantFacts(const Relation& I, const DenialConstraint& c,
                              std::vector<Violation> violations,
                              bool hopeless, const CVTolerantOptions& options,
                              const DomainStats* stats_of_I) {
  VariantFacts facts;
  if (hopeless) {
    facts.hopeless = true;
    facts.delta_l = facts.delta_u = std::numeric_limits<double>::infinity();
    return facts;
  }
  // Position-free violations in canonical rows order: scan order depends
  // on the detection backend's partition layout, and the search must see
  // identical facts no matter which provider produced them.
  facts.violations = std::move(violations);
  for (Violation& v : facts.violations) v.constraint_index = 0;
  std::sort(facts.violations.begin(), facts.violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.rows < b.rows;
            });
  if (!facts.violations.empty()) {
    const CostModel& cost = options.vfree.cost;
    ConflictHypergraph g =
        ConflictHypergraph::Build(I, {c}, facts.violations, cost);
    RepairCostBounds bounds =
        ComputeBounds(g, c.Degree(), cost, options.vfree.cover, stats_of_I);
    facts.delta_l = bounds.lower;
    facts.delta_u = bounds.upper;
  }
  return facts;
}

std::map<DenialConstraint, VariantFacts> ScanVariantFacts(
    const Relation& I, const ConstraintSet& sigma,
    const std::vector<SigmaVariant>& variants,
    const CVTolerantOptions& options, const EncodedRelation* encoded) {
  const EncodedRelation* E = options.use_encoded ? encoded : nullptr;

  // Facts are pure per-constraint functions of I, so all distinct
  // constraints across Σ and every variant are evaluated up front — in
  // parallel under a thread budget, serially (inline, same order) at one
  // thread. Each worker fills its own map slot; std::map references are
  // stable, and the map itself is not mutated during the parallel phase.
  TraceSpan span("cvtolerant/detect_facts");
  std::map<DenialConstraint, VariantFacts> facts;
  std::vector<std::map<DenialConstraint, VariantFacts>::iterator> todo;
  auto enqueue = [&](const DenialConstraint& c) {
    auto [it, inserted] = facts.try_emplace(c);
    if (inserted) todo.push_back(it);
  };
  for (const DenialConstraint& phi : sigma) enqueue(phi);
  for (const SigmaVariant& sv : variants) {
    for (const DenialConstraint& phi : sv.constraints) enqueue(phi);
  }
  span.AddArg("distinct_constraints", static_cast<int64_t>(todo.size()));
  const int64_t cap = VariantViolationCap(options, I.num_rows());
  const std::optional<DomainStats> stats_of_I = VariantFactsStats(I, options);
  ThreadPool::ParallelFor(
      static_cast<int64_t>(todo.size()),
      [&](int64_t i) {
        const DenialConstraint& c = todo[static_cast<size_t>(i)]->first;
        bool hopeless = false;
        std::vector<Violation> violations =
            E ? FindViolationsOfCapped(*E, c, 0, cap, &hopeless)
              : FindViolationsOfCapped(I, c, 0, cap, &hopeless);
        todo[static_cast<size_t>(i)]->second =
            MakeVariantFacts(I, c, std::move(violations), hopeless, options,
                             stats_of_I ? &*stats_of_I : nullptr);
      },
      options.threads);
  return facts;
}

VariantSearchResult CVTolerantSearchWithFacts(
    const Relation& I, const ConstraintSet& sigma,
    const std::vector<SigmaVariant>& variants, const VariantFactsFn& facts_of,
    const CVTolerantOptions& options, int64_t* fresh_counter,
    const EncodedRelation* encoded, RepairStats* stats) {
  TraceSpan span("cvtolerant/search_with_facts");
  span.AddArg("variants", static_cast<int64_t>(variants.size()));
  VariantSearchResult result;
  result.solved_costs.assign(variants.size(),
                             std::numeric_limits<double>::quiet_NaN());
  result.abort_bounds.assign(variants.size(),
                             std::numeric_limits<double>::quiet_NaN());

  const VfreeOptions vfree_options = EngineOptions(options);
  const CostModel& cost = vfree_options.cost;
  const EncodedRelation* E = options.use_encoded ? encoded : nullptr;
  DomainStats stats_of_I(I);

  // Bound estimates for every candidate, processed in ascending-δ_l order
  // so that early repairs tighten δ_min as fast as possible (Example 8).
  // Bounds combine conservatively: δ_l(Σ') >= max_i δ_l(φ_i') (more edges
  // only enlarge the cover) and δ_u(Σ') <= Σ_i δ_u(φ_i') (the union of the
  // per-constraint covers is a cover of the union graph).
  struct Candidate {
    size_t index = 0;  // position in the input vector
    double delta_l = 0.0;
    int num_violations = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(variants.size());
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    Candidate c;
    c.index = vi;
    bool hopeless = false;
    for (const DenialConstraint& phi : variants[vi].constraints) {
      const VariantFacts& facts = facts_of(phi);
      hopeless |= facts.hopeless;
      c.delta_l = std::max(c.delta_l, facts.delta_l);
      c.num_violations += static_cast<int>(facts.violations.size());
    }
    if (hopeless) {
      ++result.variants_pruned;
      continue;
    }
    candidates.push_back(c);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.delta_l < b.delta_l;
                   });

  // Algorithm 1 line 1: seed with δ_u(Σ, I) when Σ is a valid candidate.
  double sigma_upper = 0.0;
  for (const DenialConstraint& phi : sigma) {
    const VariantFacts& facts = facts_of(phi);
    result.sigma_violations += static_cast<int>(facts.violations.size());
    sigma_upper += facts.delta_u;
  }
  double delta_min = options.variants.theta >= 0.0
                         ? sigma_upper
                         : std::numeric_limits<double>::infinity();

  // Subset repair ignores the engine choice: a kDelete candidate is always
  // resolved by a tuple-deletion cover of its union violations.
  const bool holistic = !options.use_vfree &&
                        vfree_options.strategy != RepairStrategy::kDelete;
  MaterializedCache cache;
  for (const Candidate& c : candidates) {
    if (options.enable_bound_pruning && c.delta_l > delta_min + 1e-9) {
      ++result.variants_pruned;
      continue;
    }
    if (result.datarepair_calls >= options.max_datarepair_calls) break;
    ++result.datarepair_calls;
    TraceSpan solve_span("cvtolerant/solve_candidate");
    solve_span.AddArg("call", result.datarepair_calls);
    solve_span.AddArg("violations", c.num_violations);

    std::vector<Violation> violations;
    violations.reserve(static_cast<size_t>(c.num_violations));
    const ConstraintSet& set = variants[c.index].constraints;
    for (size_t i = 0; i < set.size(); ++i) {
      for (Violation v : facts_of(set[i]).violations) {
        v.constraint_index = static_cast<int>(i);
        violations.push_back(std::move(v));
      }
    }

    Relation repaired = I;
    std::optional<ScopedRepair> scoped;
    if (holistic) {
      // The "CVtolerant + Holistic" configuration of Figures 5 and 7: a
      // multi-round repair of the candidate, without sharing or cost abort.
      HolisticOptions hopts = options.holistic;
      hopts.cost = cost;
      hopts.use_encoded = options.use_encoded;
      RepairResult hr = HolisticRepair(I, set, hopts);
      if (stats) {
        stats->solver_calls += hr.stats.solver_calls;
        stats->rounds += hr.stats.rounds;
        stats->fresh_assignments += hr.stats.fresh_assignments;
      }
      repaired = std::move(hr.repaired);
      // Holistic numbers its own fresh variables; ids drawn later from
      // `fresh_counter` must not alias them.
      *fresh_counter = std::max(*fresh_counter, NextFreshId(repaired));
    } else {
      const double abort_at = options.enable_bound_pruning
                                  ? delta_min + 1e-9
                                  : std::numeric_limits<double>::infinity();
      scoped = SolveDirtyComponents(
          I, stats_of_I, set, std::move(violations), abort_at, vfree_options,
          options.enable_sharing ? &cache : nullptr, stats, fresh_counter, E);
      if (!scoped) {
        // δ_min abort: the candidate's cost strictly exceeds the threshold
        // it was solving under — worth recording as a lower bound.
        result.abort_bounds[c.index] = abort_at;
        continue;
      }
      for (auto& [cell, value] : scoped->assignments) {
        repaired.SetValue(cell, std::move(value));
      }
    }
    // The candidate's comparable cost under the active strategy: deleted
    // tuples price at their deletion weight, not at per-cell distance (a
    // kDelete candidate is always a subset-cover solve).
    const double delta =
        vfree_options.strategy == RepairStrategy::kDelete
            ? scoped->cost
            : StrategyRepairCost(I, repaired, cost, vfree_options.strategy,
                                 vfree_options.subset, stats_of_I);
    result.solved_costs[c.index] = delta;
    if (delta < result.cost) {
      result.cost = delta;
      delta_min = std::min(delta_min, delta);
      result.repaired = std::move(repaired);
      result.variant = set;
      result.have_result = true;
    }
  }
  return result;
}

}  // namespace cvrepair
