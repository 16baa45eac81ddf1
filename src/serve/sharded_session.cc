#include "serve/sharded_session.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <set>
#include <utility>

#include "dc/predicate_space.h"
#include "relation/domain_stats.h"
#include "solver/materialized_cache.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

/// Cached "serve." counter handles (handles are stable for the process
/// lifetime; ResetAll only zeroes values).
struct ServeCounters {
  MetricCounter* batches_applied;
  MetricCounter* shard_local_components;
  MetricCounter* cross_shard_components;
  MetricCounter* rows_migrated;
  MetricCounter* cells_changed;

  static const ServeCounters& Get() {
    static ServeCounters c = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      ServeCounters out;
      out.batches_applied = r.GetCounter("serve.batches_applied");
      out.shard_local_components = r.GetCounter("serve.shard_local_components");
      out.cross_shard_components = r.GetCounter("serve.cross_shard_components");
      out.rows_migrated = r.GetCounter("serve.rows_migrated");
      out.cells_changed = r.GetCounter("serve.cells_changed");
      return out;
    }();
    return c;
  }
};

/// FNV-1a over the shard-key values of a row. Deliberately not Value::Hash
/// or std::hash: the shard a row lands in decides which index detects its
/// violations, and the serve CI baselines pin exact per-shard counts, so
/// the hash must be identical across standard libraries and platforms.
/// Numerics hash their canonical double bit pattern (Int 5 and Double 5.0
/// satisfy the same equality predicates, so they must share a shard; -0.0
/// is folded into +0.0 for the same reason); strings hash their bytes.
uint64_t HashKeyValue(uint64_t h, const Value& v) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  auto mix_byte = [&](unsigned char b) {
    h ^= b;
    h *= kPrime;
  };
  if (v.is_numeric()) {
    mix_byte('n');
    double d = v.numeric();
    if (d == 0.0) d = 0.0;  // fold -0.0
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &d, sizeof(double));
    for (unsigned char b : bytes) mix_byte(b);
  } else {
    mix_byte('s');
    for (char c : v.ToString()) mix_byte(static_cast<unsigned char>(c));
  }
  return h;
}

/// A tombstoned (deleted) row: every cell NULL — what the delete and
/// hybrid repair strategies leave behind (repair/subset.h). Such a row
/// satisfies no predicate, so no index can ever implicate it in a
/// violation again; its shard placement is irrelevant for detection.
bool IsTombstone(const Relation& I, int row) {
  for (AttrId a = 0; a < I.num_attributes(); ++a) {
    if (!I.Get(row, a).is_null()) return false;
  }
  return true;
}

/// Deterministic union-find over a dense universe.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) parent_[static_cast<size_t>(i)] = i;
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

ShardPlan PlanShards(const ConstraintSet& variant) {
  ShardPlan plan;
  // Candidate keys: every two-tuple constraint's non-empty equality-join
  // attribute set, plus each of its single-attribute subsets (a smaller key
  // can cover constraints whose full sets differ but intersect).
  std::set<std::vector<AttrId>> candidates;
  std::vector<std::vector<AttrId>> eq_sets(variant.size());
  for (size_t k = 0; k < variant.size(); ++k) {
    if (variant[k].NumTupleVars() < 2) continue;
    eq_sets[k] = EqualityJoinAttrs(variant[k].predicates());
    if (eq_sets[k].empty()) continue;
    candidates.insert(eq_sets[k]);
    for (AttrId a : eq_sets[k]) candidates.insert({a});
  }
  // Winner: localizes the most two-tuple constraints (its attributes are a
  // subset of the constraint's equality-join set); ties prefer fewer key
  // attributes, then the lexicographically smaller set — all deterministic.
  int best_score = 0;
  for (const std::vector<AttrId>& key : candidates) {
    int score = 0;
    for (size_t k = 0; k < variant.size(); ++k) {
      if (variant[k].NumTupleVars() < 2) continue;
      if (std::includes(eq_sets[k].begin(), eq_sets[k].end(), key.begin(),
                        key.end())) {
        ++score;
      }
    }
    const bool wins =
        score > best_score ||
        (score == best_score && score > 0 &&
         (key.size() < plan.key.size() ||
          (key.size() == plan.key.size() && key < plan.key)));
    if (wins) {
      best_score = score;
      plan.key = key;
    }
  }
  for (size_t k = 0; k < variant.size(); ++k) {
    const bool is_local =
        variant[k].NumTupleVars() < 2 ||
        (!plan.key.empty() &&
         std::includes(eq_sets[k].begin(), eq_sets[k].end(), plan.key.begin(),
                       plan.key.end()));
    (is_local ? plan.local : plan.straddling).push_back(static_cast<int>(k));
  }
  return plan;
}

ShardedSession::ShardedSession(const Relation& I, const ConstraintSet& sigma,
                               const ShardedOptions& options)
    : options_(options) {
  TraceSpan span("serve/session_build");
  options_.num_shards = std::max(1, options_.num_shards);
  RepairResult initial = CVTolerantRepair(I, sigma, options_.repair);
  variant_ = initial.satisfied_constraints;
  initial_stats_ = initial.stats;
  // Continue fresh ids above any the initial repair minted, so streamed
  // fixes never alias an existing fv — identical to StreamingRepairer.
  fresh_counter_ = std::max(fresh_counter_, NextFreshId(initial.repaired));

  plan_ = PlanShards(variant_);
  ConstraintSet straddling_sigma;
  for (int k : plan_.local) local_sigma_.push_back(variant_[k]);
  for (int k : plan_.straddling) straddling_sigma.push_back(variant_[k]);
  span.AddArg("shards", static_cast<int64_t>(options_.num_shards));
  span.AddArg("local_constraints", static_cast<int64_t>(plan_.local.size()));

  global_ = std::make_unique<ViolationIndex>(initial.repaired, straddling_sigma);
  home_.resize(static_cast<size_t>(initial.repaired.num_rows()));
  for (int r = 0; r < initial.repaired.num_rows(); ++r) {
    home_[static_cast<size_t>(r)] = TargetShard(r);
  }
  BuildShards();
}

int ShardedSession::TargetShard(int row) const {
  const int num_shards = options_.num_shards;
  if (num_shards <= 1) return 0;
  if (!plan_.key.empty()) {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    bool concrete = true;
    for (AttrId a : plan_.key) {
      const Value& v = global_->relation().Get(row, a);
      if (v.is_null() || v.is_fresh()) {
        concrete = false;
        break;
      }
      h = HashKeyValue(h, v);
    }
    if (concrete) return static_cast<int>(h % static_cast<uint64_t>(num_shards));
  }
  return row % num_shards;
}

void ShardedSession::BuildShards() {
  shards_.clear();
  shards_.resize(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) RebuildShard(s);
}

void ShardedSession::RebuildShard(int s) {
  Shard& shard = shards_[static_cast<size_t>(s)];
  if (shard.index != nullptr) {
    retired_rechecked_.fetch_add(shard.index->rows_rechecked(),
                                 std::memory_order_relaxed);
  }
  shard.rows.clear();
  shard.local_of.clear();
  const Relation& master = global_->relation();
  Relation sub(master.schema());
  for (int r = 0; r < master.num_rows(); ++r) {
    if (home_[static_cast<size_t>(r)] != s) continue;
    shard.local_of.emplace(r, static_cast<int>(shard.rows.size()));
    shard.rows.push_back(r);
    sub.AddRow(master.row(r));
  }
  shard.index = std::make_unique<ViolationIndex>(sub, local_sigma_);
}

bool ShardedSession::IsViolationFree() {
  if (global_->HasViolations()) return false;
  for (Shard& shard : shards_) {
    if (shard.index->HasViolations()) return false;
  }
  return true;
}

std::vector<Violation> ShardedSession::CollectViolations() {
  std::vector<Violation> out;
  for (Violation& v : global_->CurrentViolations()) {
    v.constraint_index = plan_.straddling[static_cast<size_t>(
        v.constraint_index)];
    out.push_back(std::move(v));
  }
  for (Shard& shard : shards_) {
    for (Violation& v : shard.index->CurrentViolations()) {
      v.constraint_index =
          plan_.local[static_cast<size_t>(v.constraint_index)];
      for (int& row : v.rows) row = shard.rows[static_cast<size_t>(row)];
      out.push_back(std::move(v));
    }
  }
  CanonicalizeViolations(&out);
  return out;
}

ServeBatchResult ShardedSession::ApplyBatch(const std::vector<RowEdit>& edits) {
  auto start = std::chrono::steady_clock::now();
  TraceSpan span("serve/apply_batch");
  span.AddArg("edits", static_cast<int64_t>(edits.size()));

  ServeBatchResult out;
  out.edits = static_cast<int>(edits.size());
  const int num_shards = options_.num_shards;
  auto rechecked_now = [&]() {
    int64_t total = global_->rows_rechecked() +
                    retired_rechecked_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) total += shard.index->rows_rechecked();
    return total;
  };
  const int64_t rechecked_before = rechecked_now();

  // Phase 1 — the master copy (and the residual straddling detection)
  // absorbs the raw batch. Routing decisions below read post-batch values,
  // so a mid-batch shard-key edit can never leave detection running
  // against a stale home.
  const int old_rows = global_->relation().num_rows();
  std::vector<int> touched = global_->ApplyBatch(edits);
  out.rows_touched = static_cast<int>(touched.size());

  // Phase 2 — re-home: inserted rows pick their shard, and existing rows
  // whose key cells now hash elsewhere migrate. A migration invalidates
  // the source shard's sub-relation (ViolationIndex has no row removal),
  // so both endpoints rebuild from the master copy; plain inserts append
  // through the shard index's own insert path instead.
  home_.resize(static_cast<size_t>(global_->relation().num_rows()), -1);
  std::vector<char> rebuild(static_cast<size_t>(num_shards), 0);
  std::vector<std::vector<int>> joiners(static_cast<size_t>(num_shards));
  for (int r : touched) {
    const int target = TargetShard(r);
    if (r >= old_rows) {
      home_[static_cast<size_t>(r)] = target;
      joiners[static_cast<size_t>(target)].push_back(r);
      continue;
    }
    if (home_[static_cast<size_t>(r)] != target &&
        !IsTombstone(global_->relation(), r)) {
      rebuild[static_cast<size_t>(home_[static_cast<size_t>(r)])] = 1;
      rebuild[static_cast<size_t>(target)] = 1;
      home_[static_cast<size_t>(r)] = target;
      ++out.rows_migrated;
    }
  }

  // Phase 3 — each shard absorbs its slice independently (a thread-pool
  // slice each; the master copy is read-only here). Synthesized per-shard
  // edits carry the post-batch master values, so repeated edits of one
  // cell collapse and shard state converges to the master's regardless of
  // in-batch ordering.
  ThreadPool::ParallelFor(
      num_shards,
      [&](int64_t si) {
        const int s = static_cast<int>(si);
        if (rebuild[static_cast<size_t>(s)] != 0) {
          RebuildShard(s);
          return;
        }
        Shard& shard = shards_[static_cast<size_t>(s)];
        const Relation& master = global_->relation();
        std::vector<RowEdit> shard_edits;
        for (int r : joiners[static_cast<size_t>(s)]) {
          shard.local_of.emplace(r, static_cast<int>(shard.rows.size()));
          shard.rows.push_back(r);
          shard_edits.push_back(RowEdit::Insert(master.row(r)));
        }
        for (int r : touched) {
          if (r >= old_rows || home_[static_cast<size_t>(r)] != s) continue;
          const int local = shard.local_of.at(r);
          for (AttrId a = 0; a < master.num_attributes(); ++a) {
            const Value& now = master.Get(r, a);
            if (shard.index->relation().Get(local, a) == now) continue;
            shard_edits.push_back(RowEdit::Update(local, a, now));
          }
        }
        if (!shard_edits.empty()) shard.index->ApplyBatch(shard_edits);
      },
      options_.repair.threads);

  // Phase 4 — union the shard-local and residual violations and classify
  // the violation-graph components: one whose rows span two homes pays a
  // cross-shard merge before the solve sees it.
  std::vector<Violation> violations = CollectViolations();
  out.violations = static_cast<int>(violations.size());

  if (!violations.empty()) {
    {
      std::vector<int> rows;
      for (const Violation& v : violations) {
        rows.insert(rows.end(), v.rows.begin(), v.rows.end());
      }
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      auto dense = [&](int row) {
        return static_cast<int>(std::lower_bound(rows.begin(), rows.end(),
                                                 row) -
                                rows.begin());
      };
      UnionFind uf(static_cast<int>(rows.size()));
      for (const Violation& v : violations) {
        for (size_t i = 1; i < v.rows.size(); ++i) {
          uf.Union(dense(v.rows[0]), dense(v.rows[i]));
        }
      }
      // root -> (first home seen, straddles?)
      std::unordered_map<int, std::pair<int, bool>> comp;
      for (size_t i = 0; i < rows.size(); ++i) {
        const int root = uf.Find(static_cast<int>(i));
        const int h = home_[static_cast<size_t>(rows[i])];
        auto [it, inserted] = comp.try_emplace(root, h, false);
        if (!inserted && it->second.first != h) it->second.second = true;
      }
      for (const auto& [root, info] : comp) {
        if (info.second) {
          ++out.cross_shard_components;
        } else {
          ++out.shard_local_components;
        }
      }
    }

    // Phase 5 — the identical component re-solve StreamingRepairer runs:
    // global instance, per-batch domain stats, cold per-batch cache, the
    // session's fresh counter. Bit-identity with the single-session replay
    // follows from the violation sets being equal (the shard partition is
    // sound and complete for the local constraints).
    const Relation& W = global_->relation();
    DomainStats stats_of_W(W);
    RepairStats batch_stats;
    MaterializedCache cold_cache;
    std::optional<ScopedRepair> fix = CVTolerantResolveComponents(
        W, stats_of_W, variant_, std::move(violations), options_.repair,
        &cold_cache, &batch_stats, &fresh_counter_, global_->encoded());
    // delta_min defaults to +inf, so the scoped solve cannot abort.
    assert(fix.has_value());
    out.components = fix->components;
    out.repair_cost = fix->cost;

    // Phase 6 — write the fixes back through every index owning the row,
    // then re-home rows whose shard-key cells the fixes rewrote.
    std::vector<int> fixed_rows;
    for (auto& [cell, value] : fix->assignments) {
      if (global_->relation().Get(cell) == value) continue;
      ++out.cells_changed;
      fixed_rows.push_back(cell.row);
      const int s = home_[static_cast<size_t>(cell.row)];
      Shard& shard = shards_[static_cast<size_t>(s)];
      shard.index->ApplyChange(
          Cell{shard.local_of.at(cell.row), cell.attr}, value);
      global_->ApplyChange(cell, std::move(value));
    }
    std::sort(fixed_rows.begin(), fixed_rows.end());
    fixed_rows.erase(std::unique(fixed_rows.begin(), fixed_rows.end()),
                     fixed_rows.end());
    std::vector<char> refresh(static_cast<size_t>(num_shards), 0);
    bool any_refresh = false;
    for (int r : fixed_rows) {
      // A fix that tombstoned the row retired it in place: the per-index
      // write-backs above already cleared its violations, and the all-NULL
      // row can never join another one. Re-homing it to the round-robin
      // fallback its NULL key now hashes to would rebuild two shards —
      // retiring every index's incremental state — to move a row of
      // NULLs, and under the delete strategy nearly every batch deletes.
      // The route table keeps the shard it died in.
      if (IsTombstone(global_->relation(), r)) continue;
      const int target = TargetShard(r);
      if (home_[static_cast<size_t>(r)] == target) continue;
      refresh[static_cast<size_t>(home_[static_cast<size_t>(r)])] = 1;
      refresh[static_cast<size_t>(target)] = 1;
      home_[static_cast<size_t>(r)] = target;
      ++out.rows_migrated;
      any_refresh = true;
    }
    if (any_refresh) {
      for (int s = 0; s < num_shards; ++s) {
        if (refresh[static_cast<size_t>(s)] != 0) RebuildShard(s);
      }
    }
    // Every live violation had a covering cell assigned a changed value,
    // and the per-index write-backs retired it.
    assert(IsViolationFree());
  }

  out.rows_rechecked = rechecked_now() - rechecked_before;
  out.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  span.AddArg("components", out.components);
  span.AddArg("cross_shard", out.cross_shard_components);

  totals_.batches += 1;
  totals_.edits += out.edits;
  totals_.components += out.components;
  totals_.shard_local_components += out.shard_local_components;
  totals_.cross_shard_components += out.cross_shard_components;
  totals_.cells_changed += out.cells_changed;
  totals_.rows_migrated += out.rows_migrated;
  totals_.rows_rechecked += out.rows_rechecked;
  totals_.repair_cost += out.repair_cost;

  const ServeCounters& c = ServeCounters::Get();
  c.batches_applied->Increment();
  c.shard_local_components->Add(out.shard_local_components);
  c.cross_shard_components->Add(out.cross_shard_components);
  c.rows_migrated->Add(out.rows_migrated);
  c.cells_changed->Add(out.cells_changed);
  return out;
}

}  // namespace cvrepair
