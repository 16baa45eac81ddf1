#ifndef CVREPAIR_DC_VIOLATION_H_
#define CVREPAIR_DC_VIOLATION_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "dc/constraint.h"
#include "relation/relation.h"

namespace cvrepair {

class EncodedRelation;  // relation/encoded.h

/// A set of cell addresses (the changing set C, covers, truth sets, ...).
using CellSet = std::unordered_set<Cell, CellHash>;

/// One violating (or suspect) tuple list of a constraint: rows[i]
/// instantiates tuple variable t_i of sigma[constraint_index].
struct Violation {
  int constraint_index = 0;
  std::vector<int> rows;

  friend bool operator==(const Violation& a, const Violation& b) {
    return a.constraint_index == b.constraint_index && a.rows == b.rows;
  }
};

/// Process-wide evaluation counters of the violation scans below (and the
/// incremental rechecks of dc/incremental.cc). They make detection work
/// *checkable*: tests, benches and the CLI compare the partition-build,
/// predicate-evaluation and zone-map totals of a run across thread counts
/// and backends, and the metrics.json CI contract pins them.
struct EvalCounters {
  int64_t partition_builds = 0;   ///< hash partitions built by a full scan
  int64_t predicate_evals = 0;    ///< single-predicate evals on boxed Values
  int64_t code_predicate_evals = 0;  ///< single-predicate evals on int codes
  int64_t truncated_scans = 0;    ///< capped scans that hit their cap
  int64_t blocks_scanned = 0;     ///< zone-map consults that ran the block
  int64_t blocks_skipped = 0;     ///< zone-map consults that pruned it

  EvalCounters& operator+=(const EvalCounters& o) {
    partition_builds += o.partition_builds;
    predicate_evals += o.predicate_evals;
    code_predicate_evals += o.code_predicate_evals;
    truncated_scans += o.truncated_scans;
    blocks_scanned += o.blocks_scanned;
    blocks_skipped += o.blocks_skipped;
    return *this;
  }
  EvalCounters& operator-=(const EvalCounters& o) {
    partition_builds -= o.partition_builds;
    predicate_evals -= o.predicate_evals;
    code_predicate_evals -= o.code_predicate_evals;
    truncated_scans -= o.truncated_scans;
    blocks_scanned -= o.blocks_scanned;
    blocks_skipped -= o.blocks_skipped;
    return *this;
  }
  friend EvalCounters operator+(EvalCounters a, const EvalCounters& b) {
    a += b;
    return a;
  }
  friend EvalCounters operator-(EvalCounters a, const EvalCounters& b) {
    a -= b;
    return a;
  }
  friend bool operator==(const EvalCounters&, const EvalCounters&) = default;
};

namespace eval_counters {

/// Current process-wide totals. Exact once the scans being measured have
/// returned (counters live in the MetricsRegistry as relaxed atomics,
/// bulk-flushed per scan, so the hot loops never touch an atomic).
EvalCounters Snapshot();

/// Zeroes the totals (tests only; scans never read them).
void Reset();

/// Bulk-adds a scan's locally accumulated counts.
void Add(const EvalCounters& delta);

/// Flushes a finished capped scan's counts. Truncated scans contribute
/// only `truncated_scans` (their eval counts are discarded): how much a
/// scan over-scans past its cap depends on how it was sharded, so keeping
/// those evals would make the totals vary with --threads. Whether the scan
/// truncates does *not* depend on sharding (the cap-th surplus violation
/// either exists or not), so what remains is a deterministic function of
/// the workload — the property the metrics.json CI contract rests on.
void AddScan(const EvalCounters& delta, bool truncated);

}  // namespace eval_counters

/// The distinct cells cell(t_i, t_j, ...; φ) involved in the predicates of
/// the constraint instantiated on `rows` (Section 3.2.1).
std::vector<Cell> ViolationCells(const DenialConstraint& constraint,
                                 const std::vector<int>& rows);

/// Computes viol(I, Σ): every tuple list (single rows for 1-tuple DCs,
/// ordered pairs of distinct rows for 2-tuple DCs) satisfying all
/// predicates of some φ ∈ Σ (Definition 5).
///
/// Two-tuple constraints with equality predicates t0.A = t1.A are
/// evaluated with hash partitioning on those attributes, so FD-style
/// constraints cost roughly O(|I| + Σ_blocks |block|²) instead of O(|I|²).
///
/// Large scans are sharded across the ThreadPool budget (row ranges for
/// 1-tuple DCs and the no-join pair scan, partition-block ranges for
/// FD-style DCs); shard results are merged in shard order, so the output
/// — order included — is bit-identical at any thread count.
std::vector<Violation> FindViolations(const Relation& I,
                                      const ConstraintSet& sigma);

/// Violations of one constraint (see FindViolations); constraint_index is
/// set to `constraint_index` in the result.
std::vector<Violation> FindViolationsOf(const Relation& I,
                                        const DenialConstraint& constraint,
                                        int constraint_index = 0);

/// Like FindViolationsOf, but stops once `max_violations` have been
/// collected, setting *truncated. Used to abandon hopeless constraint
/// variants early (a variant violated quadratically often can never carry
/// the minimum repair). Under sharding each shard collects up to cap+1
/// hits and the in-order merge trims to the cap, reproducing exactly the
/// serial prefix and truncated flag.
std::vector<Violation> FindViolationsOfCapped(
    const Relation& I, const DenialConstraint& constraint,
    int constraint_index, int64_t max_violations, bool* truncated);

/// True iff I ⊨ Σ (no violations). Short-circuits on the first violation.
bool Satisfies(const Relation& I, const ConstraintSet& sigma);

/// Computes susp(C, φ) for every φ ∈ Σ (Definition 6): tuple lists that
/// satisfy all predicates *not* involving cells from C. Only suspects with
/// at least one predicate on a C cell are returned — tuple lists whose
/// predicates never touch C contribute no repair-context constraints and
/// cannot become violations when only C changes.
///
/// By Lemma 4, the result is a superset of the violations that involve C.
std::vector<Violation> FindSuspects(const Relation& I,
                                    const ConstraintSet& sigma,
                                    const CellSet& changing);

/// Encoded counterparts of the scans above, consuming the dictionary-coded
/// column store (relation/encoded.h) instead of boxed Values: partitions
/// key on raw codes and predicates evaluate as integer code/rank compares
/// (counted as EvalCounters::code_predicate_evals; only cross-attribute
/// two-cell predicates still touch Values). Each is bit-identical —
/// violation order, capped prefix, truncated flag — to its unencoded
/// sibling on the backing relation, at any thread count; E must be
/// in_sync() with it.
std::vector<Violation> FindViolations(const EncodedRelation& E,
                                      const ConstraintSet& sigma);
std::vector<Violation> FindViolationsOf(const EncodedRelation& E,
                                        const DenialConstraint& constraint,
                                        int constraint_index = 0);
std::vector<Violation> FindViolationsOfCapped(
    const EncodedRelation& E, const DenialConstraint& constraint,
    int constraint_index, int64_t max_violations, bool* truncated);
bool Satisfies(const EncodedRelation& E, const ConstraintSet& sigma);
std::vector<Violation> FindSuspects(const EncodedRelation& E,
                                    const ConstraintSet& sigma,
                                    const CellSet& changing);

}  // namespace cvrepair

#endif  // CVREPAIR_DC_VIOLATION_H_
