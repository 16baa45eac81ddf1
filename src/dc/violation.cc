#include "dc/violation.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "dc/predicate_space.h"
#include "dc/scan_internal.h"
#include "dc/scan_kernels.h"
#include "relation/encoded.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {

namespace eval_counters {
namespace {

// Process-wide totals, registered in the MetricsRegistry under the "eval."
// prefix so metrics.json carries them. Handles are resolved once; scans
// flush local counts in bulk and readers only look after the scans they
// measure have returned.
struct Handles {
  MetricCounter* partition_builds;
  MetricCounter* predicate_evals;
  MetricCounter* code_predicate_evals;
  MetricCounter* truncated_scans;
  MetricCounter* blocks_scanned;
  MetricCounter* blocks_skipped;
};

const Handles& H() {
  static const Handles* h = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    Handles* fresh = new Handles();
    fresh->partition_builds = r.GetCounter("eval.partition_builds");
    fresh->predicate_evals = r.GetCounter("eval.predicate_evals");
    fresh->code_predicate_evals = r.GetCounter("eval.code_predicate_evals");
    fresh->truncated_scans = r.GetCounter("eval.truncated_scans");
    fresh->blocks_scanned = r.GetCounter("eval.blocks_scanned");
    fresh->blocks_skipped = r.GetCounter("eval.blocks_skipped");
    return fresh;
  }();
  return *h;
}

}  // namespace

EvalCounters Snapshot() {
  const Handles& h = H();
  EvalCounters c;
  c.partition_builds = h.partition_builds->value();
  c.predicate_evals = h.predicate_evals->value();
  c.code_predicate_evals = h.code_predicate_evals->value();
  c.truncated_scans = h.truncated_scans->value();
  c.blocks_scanned = h.blocks_scanned->value();
  c.blocks_skipped = h.blocks_skipped->value();
  return c;
}

void Reset() {
  const Handles& h = H();
  h.partition_builds->Reset();
  h.predicate_evals->Reset();
  h.code_predicate_evals->Reset();
  h.truncated_scans->Reset();
  h.blocks_scanned->Reset();
  h.blocks_skipped->Reset();
}

void Add(const EvalCounters& d) {
  const Handles& h = H();
  if (d.partition_builds) h.partition_builds->Add(d.partition_builds);
  if (d.predicate_evals) h.predicate_evals->Add(d.predicate_evals);
  if (d.code_predicate_evals)
    h.code_predicate_evals->Add(d.code_predicate_evals);
  if (d.truncated_scans) h.truncated_scans->Add(d.truncated_scans);
  if (d.blocks_scanned) h.blocks_scanned->Add(d.blocks_scanned);
  if (d.blocks_skipped) h.blocks_skipped->Add(d.blocks_skipped);
  if (Tracer::enabled()) {
    Tracer::AddCounterDelta("eval.partition_builds", d.partition_builds);
    Tracer::AddCounterDelta("eval.predicate_evals", d.predicate_evals);
    Tracer::AddCounterDelta("eval.code_predicate_evals",
                            d.code_predicate_evals);
    Tracer::AddCounterDelta("eval.truncated_scans", d.truncated_scans);
    Tracer::AddCounterDelta("eval.blocks_scanned", d.blocks_scanned);
    Tracer::AddCounterDelta("eval.blocks_skipped", d.blocks_skipped);
  }
}

void AddScan(const EvalCounters& delta, bool truncated) {
  if (!truncated) {
    Add(delta);
    return;
  }
  EvalCounters only_truncation;
  only_truncation.truncated_scans = 1;
  Add(only_truncation);
}

}  // namespace eval_counters

namespace {

using scan_internal::CodeVecHash;
using scan_internal::kMinParallelWork;
using scan_internal::LocalCap;
using scan_internal::MergeShards;
using scan_internal::ShardResult;

// =====================================================================
// Block-vectorized encoded scans (dc/scan_kernels.h), the one detection
// backend. Three levers over a plain row-at-a-time loop:
//   * zone-map skips: blocks no constant predicate (or per-row probe)
//     can match are never entered (blocks_scanned / blocks_skipped);
//   * a lead kernel: the first predicate the kernels can evaluate with
//     the scanned tuple varying runs branchless over the whole block,
//     and only surviving lanes reach the scalar short-circuit tail;
//   * per-row lifting: 2-tuple predicates binding only the fixed tuple
//     are evaluated once per outer row instead of once per pair.
// Results, order and capped semantics match the boxed reference at the
// end of this file (tests/encoded_test.cc proves it bit-for-bit).
// Counter discipline: upfront zone consults (skip vectors computed
// before sharding) flush immediately — they are thread-invariant by
// construction; in-shard consults and kernel lane counts ride the
// ShardResult through the AddScan truncation gate like every other
// scan counter, so totals never depend on --threads.
// =====================================================================

// Scans the >=2-member blocks of a join partition in canonical order
// (blocks sorted by first member, members ascending), sharding contiguous
// block ranges balanced by pair count when the pool and the work size
// warrant it. `enumerate(members, cap, rows, out, local)` must emit the
// block's violations in (i, j) member order and return false once `cap`
// of them have been collected.
template <typename Enumerate>
void ScanJoinBlocksWith(std::vector<std::vector<int>>& all_blocks,
                        const Enumerate& enumerate,
                        std::vector<Violation>* out, int64_t cap,
                        bool* truncated) {
  std::vector<const std::vector<int>*> blocks;
  int64_t work = 0;
  for (const std::vector<int>& members : all_blocks) {
    if (members.size() < 2) continue;
    blocks.push_back(&members);
    work += static_cast<int64_t>(members.size()) * members.size();
  }
  // Blocks sorted by first member — a canonical scan order that any
  // other producer of the same partition (e.g. the encoded scan, which
  // buckets on codes instead of values) reproduces exactly.
  // Members are ascending within a block, so first-member order is
  // well-defined and unique.
  std::sort(blocks.begin(), blocks.end(),
            [](const std::vector<int>* a, const std::vector<int>* b) {
              return a->front() < b->front();
            });
  TraceSpan span("scan/join_blocks");
  span.AddArg("blocks", static_cast<int64_t>(blocks.size()));
  int threads = ThreadPool::EffectiveThreads();
  if (threads > 1 && blocks.size() > 1 && work >= kMinParallelWork) {
    // Contiguous block ranges balanced by pair count, so one giant block
    // does not serialize the scan.
    int64_t num_slices = std::min<int64_t>(
        static_cast<int64_t>(blocks.size()), static_cast<int64_t>(threads) * 4);
    std::vector<size_t> shard_begin;
    int64_t per_shard = (work + num_slices - 1) / num_slices;
    int64_t acc = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      if (shard_begin.empty() || acc >= per_shard) {
        shard_begin.push_back(b);
        acc = 0;
      }
      acc += static_cast<int64_t>(blocks[b]->size()) * blocks[b]->size();
    }
    shard_begin.push_back(blocks.size());
    size_t shards = shard_begin.size() - 1;
    span.AddArg("shards", static_cast<int64_t>(shards));
    std::vector<ShardResult> results(shards);
    int64_t local_cap = LocalCap(cap);
    ThreadPool::ParallelFor(static_cast<int64_t>(shards), [&](int64_t s) {
      std::vector<int> rows(2);
      for (size_t b = shard_begin[s]; b < shard_begin[s + 1]; ++b) {
        if (!enumerate(*blocks[b], local_cap, &rows, &results[s].found,
                       &results[s].counters)) {
          break;
        }
      }
    });
    MergeShards(results, cap, out, truncated);
    return;
  }
  std::vector<int> rows(2);
  EvalCounters local;
  for (const std::vector<int>* members : blocks) {
    if (!enumerate(*members, cap, &rows, out, &local)) {
      if (truncated) *truncated = true;
      eval_counters::AddScan(local, /*truncated=*/true);
      return;
    }
  }
  eval_counters::AddScan(local, /*truncated=*/false);
}

// Counted scalar evaluation of one compiled predicate.
inline bool EvalPredCounted(const EncodedPredicateEval& p,
                            const std::vector<int>& rows,
                            EvalCounters* local) {
  if (p.on_codes()) {
    ++local->code_predicate_evals;
  } else {
    ++local->predicate_evals;
  }
  return p.Eval(rows);
}

inline bool TestBit(const uint64_t* bitmap, int i) {
  return (bitmap[i >> 6] >> (i & 63)) & 1;
}

// A constant predicate prepared for zone consults / kernel runs.
struct ZonePred {
  scan_kernels::BlockPredicate bp;
  const int32_t* ranks;
  AttrId attr;
};

ZonePred MakeZonePred(const EncodedPredicateEval& p) {
  return {scan_kernels::CompileConstant(p.op(), p.bounds()), p.ranks(),
          p.lhs_attr()};
}

// Per-storage-block skip vector from constant zone predicates; one
// consult is counted per block.
void FillBlockSkips(const EncodedRelation& E, const std::vector<ZonePred>& zs,
                    std::vector<char>* skip, EvalCounters* zc) {
  int nb = E.num_blocks();
  skip->assign(static_cast<size_t>(nb), 0);
  for (int b = 0; b < nb; ++b) {
    bool may = true;
    for (const ZonePred& z : zs) {
      if (!scan_kernels::MayMatch(z.bp, E.block_meta(z.attr, b), z.ranks)) {
        may = false;
        break;
      }
    }
    (*skip)[static_cast<size_t>(b)] = !may;
    if (may) {
      ++zc->blocks_scanned;
    } else {
      ++zc->blocks_skipped;
    }
  }
}

// 1-tuple constraints, blocked: an upfront skip vector from every
// constant predicate, then per block a lead kernel (the first predicate,
// when constant-compiled) whose surviving lanes run the remaining
// predicates in the usual short-circuit order.
void ScanRowsBlocked(const EncodedRelation& E, const EncodedConstraintEval& ev,
                     int index, std::vector<Violation>* out, int64_t cap,
                     bool* truncated) {
  TraceSpan span("scan/rows");
  const std::vector<EncodedPredicateEval>& preds = ev.predicate_evals();
  int n = E.num_rows();
  int nb = E.num_blocks();

  std::vector<ZonePred> zone;
  for (const EncodedPredicateEval& p : preds) {
    if (p.is_constant()) zone.push_back(MakeZonePred(p));
  }
  std::vector<char> skip(static_cast<size_t>(nb), 0);
  if (!zone.empty()) {
    EvalCounters zc;
    FillBlockSkips(E, zone, &skip, &zc);
    eval_counters::Add(zc);
  }

  bool lead = !preds.empty() && preds[0].is_constant();
  scan_kernels::BlockPredicate lead_bp;
  if (lead) {
    lead_bp = scan_kernels::CompileConstant(preds[0].op(), preds[0].bounds());
  }

  // Returns false when `found` hit `block_cap` (the caller stops).
  auto scan_block = [&](int b, int64_t block_cap, std::vector<int>* rows,
                        std::vector<Violation>* found, EvalCounters* local,
                        uint64_t* bitmap) {
    if (skip[static_cast<size_t>(b)]) return true;
    int begin = b << EncodedRelation::kBlockShift;
    int rows_in = E.block_rows(b);
    const uint64_t* sel = nullptr;
    if (lead) {
      scan_kernels::EvalBlock(lead_bp, E.block_codes(preds[0].lhs_attr(), b),
                              rows_in, preds[0].ranks(), bitmap);
      local->code_predicate_evals += rows_in;
      sel = bitmap;
    }
    for (int x = 0; x < rows_in; ++x) {
      if (sel && !TestBit(sel, x)) continue;
      (*rows)[0] = begin + x;
      bool violated = true;
      for (size_t pi = lead ? 1 : 0; pi < preds.size(); ++pi) {
        if (!EvalPredCounted(preds[pi], *rows, local)) {
          violated = false;
          break;
        }
      }
      if (violated) {
        if (static_cast<int64_t>(found->size()) >= block_cap) return false;
        found->push_back({index, *rows});
      }
    }
    return true;
  };

  int threads = ThreadPool::EffectiveThreads();
  if (threads > 1 && n >= kMinParallelWork && nb > 1) {
    int64_t num_slices =
        std::min<int64_t>(nb, static_cast<int64_t>(threads) * 4);
    span.AddArg("shards", num_slices);
    std::vector<ShardResult> results(static_cast<size_t>(num_slices));
    int64_t local_cap = LocalCap(cap);
    int64_t per = nb / num_slices;
    int64_t extra = nb % num_slices;
    ThreadPool::ParallelFor(num_slices, [&](int64_t s) {
      int64_t begin = s * per + std::min(s, extra);
      int64_t end = begin + per + (s < extra ? 1 : 0);
      std::vector<int> rows(1);
      uint64_t bitmap[EncodedRelation::kBlockSize / 64];
      ShardResult& result = results[static_cast<size_t>(s)];
      for (int b = static_cast<int>(begin); b < static_cast<int>(end); ++b) {
        if (!scan_block(b, local_cap, &rows, &result.found, &result.counters,
                        bitmap)) {
          return;
        }
      }
    });
    MergeShards(results, cap, out, truncated);
    return;
  }
  std::vector<int> rows(1);
  uint64_t bitmap[EncodedRelation::kBlockSize / 64];
  EvalCounters local;
  for (int b = 0; b < nb; ++b) {
    if (!scan_block(b, cap, &rows, out, &local, bitmap)) {
      if (truncated) *truncated = true;
      eval_counters::AddScan(local, /*truncated=*/true);
      return;
    }
  }
  eval_counters::AddScan(local, /*truncated=*/false);
}

// The O(n²) scan, blocked: upfront skip vectors over the outer (t0
// constants) and inner (t1 constants) blocks, a per-(outer row, inner
// block) probe consult for same-attribute predicates, and a lead kernel
// over each surviving inner block. Outer rows shard into contiguous
// ranges of i, so the in-order merge reproduces the serial (i, j) order.
void ScanAllPairsBlocked(const EncodedRelation& E,
                         const EncodedConstraintEval& ev, int index,
                         std::vector<Violation>* out, int64_t cap,
                         bool* truncated) {
  TraceSpan span("scan/all_pairs");
  const std::vector<EncodedPredicateEval>& preds = ev.predicate_evals();
  int n = E.num_rows();
  int nb = E.num_blocks();

  struct Probe {
    size_t pi;
    AttrId attr;
    Op op;
    bool fixed_is_lhs;  // the outer row i binds the lhs operand
    const int32_t* ranks;
  };
  std::vector<ZonePred> z0, z1;  // constants on t0 (outer) / t1 (inner)
  std::vector<size_t> lift;      // t0-constants: once per outer row
  std::vector<Probe> probes;
  std::vector<size_t> body;      // predicate order minus the lifted ones
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    const EncodedPredicateEval& p = preds[pi];
    if (p.is_constant()) {
      if (p.lhs_tuple() == 0) {
        z0.push_back(MakeZonePred(p));
        lift.push_back(pi);
        continue;
      }
      z1.push_back(MakeZonePred(p));
    } else if (p.is_same_attr() && p.lhs_tuple() != p.rhs_tuple()) {
      probes.push_back(
          {pi, p.lhs_attr(), p.op(), p.lhs_tuple() == 0, p.ranks()});
    }
    body.push_back(pi);
  }
  // Lead: the first non-lifted predicate, when the kernels can evaluate
  // it with the inner tuple varying.
  int64_t lead = -1;
  if (!body.empty()) {
    const EncodedPredicateEval& p0 = preds[body.front()];
    if ((p0.is_constant() && p0.lhs_tuple() == 1) ||
        (p0.is_same_attr() && p0.lhs_tuple() != p0.rhs_tuple())) {
      lead = static_cast<int64_t>(body.front());
    }
  }
  std::vector<size_t> rest;
  for (size_t pi : body) {
    if (static_cast<int64_t>(pi) != lead) rest.push_back(pi);
  }

  std::vector<char> skip_i(static_cast<size_t>(nb), 0);
  std::vector<char> skip_j(static_cast<size_t>(nb), 0);
  if (!z0.empty() || !z1.empty()) {
    EvalCounters zc;
    if (!z0.empty()) FillBlockSkips(E, z0, &skip_i, &zc);
    if (!z1.empty()) FillBlockSkips(E, z1, &skip_j, &zc);
    eval_counters::Add(zc);
  }

  scan_kernels::BlockPredicate lead_const;
  if (lead >= 0 && preds[static_cast<size_t>(lead)].is_constant()) {
    const EncodedPredicateEval& lp = preds[static_cast<size_t>(lead)];
    lead_const = scan_kernels::CompileConstant(lp.op(), lp.bounds());
  }

  // One outer row against every inner block. Returns false when `found`
  // hit `local_cap`.
  auto scan_outer = [&](int i, int64_t local_cap, std::vector<int>* rows,
                        std::vector<Violation>* found, EvalCounters* local,
                        std::vector<scan_kernels::BlockPredicate>* pbuf,
                        uint64_t* bitmap) {
    if (skip_i[static_cast<size_t>(i >> EncodedRelation::kBlockShift)]) {
      return true;
    }
    (*rows)[0] = i;
    for (size_t pi : lift) {
      if (!EvalPredCounted(preds[pi], *rows, local)) return true;
    }
    pbuf->clear();
    for (const Probe& pr : probes) {
      pbuf->push_back(scan_kernels::CompileProbe(
          pr.op, pr.fixed_is_lhs, E.code(i, pr.attr), pr.ranks));
    }
    const scan_kernels::BlockPredicate* lead_bp = nullptr;
    if (lead >= 0) {
      if (preds[static_cast<size_t>(lead)].is_constant()) {
        lead_bp = &lead_const;
      } else {
        for (size_t s = 0; s < probes.size(); ++s) {
          if (probes[s].pi == static_cast<size_t>(lead)) {
            lead_bp = &(*pbuf)[s];
            break;
          }
        }
      }
    }
    for (int b = 0; b < nb; ++b) {
      if (skip_j[static_cast<size_t>(b)]) continue;
      int rows_in = E.block_rows(b);
      if (!probes.empty()) {
        bool may = true;
        for (size_t s = 0; s < probes.size(); ++s) {
          if (!scan_kernels::MayMatch((*pbuf)[s],
                                      E.block_meta(probes[s].attr, b),
                                      probes[s].ranks)) {
            may = false;
            break;
          }
        }
        if (may) {
          ++local->blocks_scanned;
        } else {
          ++local->blocks_skipped;
          continue;
        }
      }
      const uint64_t* sel = nullptr;
      if (lead_bp) {
        const EncodedPredicateEval& lp = preds[static_cast<size_t>(lead)];
        scan_kernels::EvalBlock(*lead_bp, E.block_codes(lp.lhs_attr(), b),
                                rows_in, lp.ranks(), bitmap);
        local->code_predicate_evals += rows_in;
        sel = bitmap;
      }
      int begin = b << EncodedRelation::kBlockShift;
      for (int x = 0; x < rows_in; ++x) {
        if (sel && !TestBit(sel, x)) continue;
        int j = begin + x;
        if (j == i) continue;
        (*rows)[1] = j;
        bool v = true;
        for (size_t pi : rest) {
          if (!EvalPredCounted(preds[pi], *rows, local)) {
            v = false;
            break;
          }
        }
        if (v) {
          if (static_cast<int64_t>(found->size()) >= local_cap) return false;
          found->push_back({index, *rows});
        }
      }
    }
    return true;
  };

  int threads = ThreadPool::EffectiveThreads();
  if (threads > 1 && static_cast<int64_t>(n) * n >= kMinParallelWork) {
    int64_t num_slices =
        std::min<int64_t>(n, static_cast<int64_t>(threads) * 4);
    span.AddArg("shards", num_slices);
    std::vector<ShardResult> results(static_cast<size_t>(num_slices));
    int64_t local_cap = LocalCap(cap);
    int64_t per = n / num_slices;
    int64_t extra = n % num_slices;
    ThreadPool::ParallelFor(num_slices, [&](int64_t s) {
      int64_t begin = s * per + std::min(s, extra);
      int64_t end = begin + per + (s < extra ? 1 : 0);
      std::vector<int> rows(2);
      std::vector<scan_kernels::BlockPredicate> pbuf;
      uint64_t bitmap[EncodedRelation::kBlockSize / 64];
      ShardResult& result = results[static_cast<size_t>(s)];
      for (int i = static_cast<int>(begin); i < static_cast<int>(end); ++i) {
        if (!scan_outer(i, local_cap, &rows, &result.found, &result.counters,
                        &pbuf, bitmap)) {
          return;
        }
      }
    });
    MergeShards(results, cap, out, truncated);
    return;
  }
  std::vector<int> rows(2);
  std::vector<scan_kernels::BlockPredicate> pbuf;
  uint64_t bitmap[EncodedRelation::kBlockSize / 64];
  EvalCounters local;
  for (int i = 0; i < n; ++i) {
    if (!scan_outer(i, cap, &rows, out, &local, &pbuf, bitmap)) {
      if (truncated) *truncated = true;
      eval_counters::AddScan(local, /*truncated=*/true);
      return;
    }
  }
  eval_counters::AddScan(local, /*truncated=*/false);
}

// Blocked enumerator for one hash-partition block of an equality-join
// constraint. The partition equality predicates are proven true by block
// membership and skipped outright; the rest split into t0-bound
// constants (lifted to once per left member), zone-checkable predicates
// (constants and same-attribute probes, consulted against per-attribute
// rank zones computed over the gathered member codes), a lead kernel
// over the gathered codes, and the scalar tail in predicate order.
class BlockedJoinEnumerator {
 public:
  BlockedJoinEnumerator(const EncodedRelation& E,
                        const EncodedConstraintEval& ev, int index)
      : E_(&E), preds_(&ev.predicate_evals()), index_(index) {
    const std::vector<EncodedPredicateEval>& preds = *preds_;
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      const EncodedPredicateEval& p = preds[pi];
      bool cross_same_attr =
          p.is_same_attr() && p.lhs_tuple() != p.rhs_tuple();
      if (cross_same_attr && p.op() == Op::kEq) continue;  // partition pred
      if (p.is_constant()) {
        consts_.push_back({pi, scan_kernels::CompileConstant(p.op(),
                                                             p.bounds()),
                           GatherSlot(p.lhs_attr())});
        if (p.lhs_tuple() == 0) {
          lift_.push_back(pi);
          continue;
        }
      } else if (cross_same_attr) {
        probes_.push_back(
            {pi, p.op(), p.lhs_tuple() == 0, GatherSlot(p.lhs_attr())});
      }
      body_.push_back(pi);
    }
    if (!body_.empty()) {
      const EncodedPredicateEval& p0 = preds[body_.front()];
      if ((p0.is_constant() && p0.lhs_tuple() == 1) ||
          (p0.is_same_attr() && p0.lhs_tuple() != p0.rhs_tuple())) {
        lead_ = static_cast<int64_t>(body_.front());
      }
    }
    for (size_t pi : body_) {
      if (static_cast<int64_t>(pi) != lead_) rest_.push_back(pi);
    }
    if (lead_ >= 0 && preds[static_cast<size_t>(lead_)].is_constant()) {
      const EncodedPredicateEval& lp = preds[static_cast<size_t>(lead_)];
      lead_const_ = scan_kernels::CompileConstant(lp.op(), lp.bounds());
      lead_slot_ = GatherSlot(lp.lhs_attr());
    }
  }

  bool operator()(const std::vector<int>& members, int64_t cap,
                  std::vector<int>* rows, std::vector<Violation>* out,
                  EvalCounters* local) const {
    const std::vector<EncodedPredicateEval>& preds = *preds_;
    int m = static_cast<int>(members.size());
    // Gather member codes per referenced attribute, plus their zones.
    std::vector<std::vector<Code>> g(attrs_.size());
    std::vector<int32_t> zmin(attrs_.size()), zmax(attrs_.size());
    for (size_t s = 0; s < attrs_.size(); ++s) {
      g[s].resize(static_cast<size_t>(m));
      for (int x = 0; x < m; ++x) {
        g[s][static_cast<size_t>(x)] =
            E_->code(members[static_cast<size_t>(x)], attrs_[s]);
      }
      scan_kernels::ComputeZone(g[s].data(), m,
                                E_->dict(attrs_[s]).rank_data(), &zmin[s],
                                &zmax[s]);
    }
    // One consult for all constant predicates: no member satisfying one
    // (whichever tuple it binds) means no violating pair in this block.
    if (!consts_.empty()) {
      bool may = true;
      for (const ConstPred& cp : consts_) {
        if (!scan_kernels::MayMatch(cp.bp, zmin[cp.slot], zmax[cp.slot],
                                    preds[cp.pi].ranks())) {
          may = false;
          break;
        }
      }
      if (!may) {
        ++local->blocks_skipped;
        return true;
      }
      ++local->blocks_scanned;
    }
    std::vector<uint64_t> bitmap((static_cast<size_t>(m) + 63) / 64);
    std::vector<scan_kernels::BlockPredicate> pbuf(probes_.size());
    for (int xi = 0; xi < m; ++xi) {
      int i = members[static_cast<size_t>(xi)];
      (*rows)[0] = i;
      bool alive = true;
      for (size_t pi : lift_) {
        if (!EvalPredCounted(preds[pi], *rows, local)) {
          alive = false;
          break;
        }
      }
      if (!alive) continue;
      if (!probes_.empty()) {
        bool may = true;
        for (size_t s = 0; s < probes_.size(); ++s) {
          const Probe& pr = probes_[s];
          pbuf[s] = scan_kernels::CompileProbe(pr.op, pr.fixed_is_lhs,
                                               E_->code(i, attrs_[pr.slot]),
                                               preds[pr.pi].ranks());
          if (may && !scan_kernels::MayMatch(pbuf[s], zmin[pr.slot],
                                             zmax[pr.slot],
                                             preds[pr.pi].ranks())) {
            may = false;
          }
        }
        if (!may) {
          ++local->blocks_skipped;
          continue;
        }
        ++local->blocks_scanned;
      }
      const uint64_t* sel = nullptr;
      if (lead_ >= 0) {
        const EncodedPredicateEval& lp = preds[static_cast<size_t>(lead_)];
        const scan_kernels::BlockPredicate* lead_bp = &lead_const_;
        size_t slot = lead_slot_;
        if (!lp.is_constant()) {
          for (size_t s = 0; s < probes_.size(); ++s) {
            if (probes_[s].pi == static_cast<size_t>(lead_)) {
              lead_bp = &pbuf[s];
              slot = probes_[s].slot;
              break;
            }
          }
        }
        scan_kernels::EvalBlock(*lead_bp, g[slot].data(), m, lp.ranks(),
                                bitmap.data());
        local->code_predicate_evals += m;
        sel = bitmap.data();
      }
      for (int xj = 0; xj < m; ++xj) {
        if (sel && !TestBit(sel, xj)) continue;
        int j = members[static_cast<size_t>(xj)];
        if (j == i) continue;
        (*rows)[1] = j;
        bool v = true;
        for (size_t pi : rest_) {
          if (!EvalPredCounted(preds[pi], *rows, local)) {
            v = false;
            break;
          }
        }
        if (v) {
          if (static_cast<int64_t>(out->size()) >= cap) return false;
          out->push_back({index_, *rows});
        }
      }
    }
    return true;
  }

 private:
  struct ConstPred {
    size_t pi;
    scan_kernels::BlockPredicate bp;
    size_t slot;
  };
  struct Probe {
    size_t pi;
    Op op;
    bool fixed_is_lhs;  // the left member binds the lhs operand
    size_t slot;
  };

  size_t GatherSlot(AttrId a) {
    for (size_t s = 0; s < attrs_.size(); ++s) {
      if (attrs_[s] == a) return s;
    }
    attrs_.push_back(a);
    return attrs_.size() - 1;
  }

  const EncodedRelation* E_;
  const std::vector<EncodedPredicateEval>* preds_;
  int index_;
  std::vector<AttrId> attrs_;  // attributes gathered per block
  std::vector<ConstPred> consts_;
  std::vector<Probe> probes_;
  std::vector<size_t> lift_, body_, rest_;
  int64_t lead_ = -1;
  scan_kernels::BlockPredicate lead_const_;
  size_t lead_slot_ = 0;
};

// Hash-partition blocks on the join attributes, keyed by integer codes.
// A single join attribute buckets densely by code (codes are
// 0..dict.size()-1); multi-attribute joins hash the code vector. Codes
// are EvalOp equality classes, and rows NULL/fresh on a join attribute
// (negative codes) never satisfy '=' and are excluded. Bucket order is
// erased by ScanJoinBlocksWith's canonical sort by first member.
std::vector<std::vector<int>> BuildJoinBlocks(const EncodedRelation& E,
                                              const std::vector<AttrId>& join) {
  TraceSpan span("scan/build_join_blocks");
  {
    EvalCounters delta;
    delta.partition_builds = 1;
    eval_counters::Add(delta);
  }
  int n = E.num_rows();
  std::vector<std::vector<int>> blocks;
  if (join.size() == 1) {
    std::vector<std::vector<int>> by_code(
        static_cast<size_t>(E.dict(join[0]).size()));
    int nb = E.num_blocks();
    for (int b = 0; b < nb; ++b) {
      const Code* seg = E.block_codes(join[0], b);
      int rows_in = E.block_rows(b);
      int begin = b << EncodedRelation::kBlockShift;
      for (int x = 0; x < rows_in; ++x) {
        Code a = seg[x];
        if (a >= 0) by_code[static_cast<size_t>(a)].push_back(begin + x);
      }
    }
    for (std::vector<int>& members : by_code) {
      if (!members.empty()) blocks.push_back(std::move(members));
    }
    return blocks;
  }
  std::unordered_map<std::vector<Code>, std::vector<int>, CodeVecHash> buckets;
  for (int i = 0; i < n; ++i) {
    std::vector<Code> key;
    key.reserve(join.size());
    bool usable = true;
    for (AttrId a : join) {
      Code v = E.code(i, a);
      if (v < 0) {
        usable = false;
        break;
      }
      key.push_back(v);
    }
    if (usable) buckets[std::move(key)].push_back(i);
  }
  blocks.reserve(buckets.size());
  for (auto& [key, members] : buckets) {
    (void)key;
    blocks.push_back(std::move(members));
  }
  return blocks;
}

}  // namespace

std::vector<Cell> ViolationCells(const DenialConstraint& constraint,
                                 const std::vector<int>& rows) {
  std::vector<Cell> cells;
  for (const Predicate& p : constraint.predicates()) {
    for (const Cell& c : p.Cells(rows)) {
      if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
        cells.push_back(c);
      }
    }
  }
  return cells;
}

std::vector<Violation> FindViolationsOf(const EncodedRelation& E,
                                        const DenialConstraint& constraint,
                                        int constraint_index) {
  return FindViolationsOfCapped(E, constraint, constraint_index,
                                std::numeric_limits<int64_t>::max(), nullptr);
}

std::vector<Violation> FindViolationsOfCapped(
    const EncodedRelation& E, const DenialConstraint& constraint,
    int constraint_index, int64_t max_violations, bool* truncated) {
  assert(E.in_sync());
  EncodedConstraintEval ev(E, constraint);
  std::vector<Violation> out;
  if (truncated) *truncated = false;
  if (constraint.predicates().empty()) return out;
  if (constraint.NumTupleVars() == 1) {
    ScanRowsBlocked(E, ev, constraint_index, &out, max_violations, truncated);
    return out;
  }
  std::vector<AttrId> join = EqualityJoinAttrs(constraint.predicates());
  if (!join.empty()) {
    std::vector<std::vector<int>> blocks = BuildJoinBlocks(E, join);
    BlockedJoinEnumerator enumerate(E, ev, constraint_index);
    ScanJoinBlocksWith(blocks, enumerate, &out, max_violations, truncated);
    return out;
  }
  ScanAllPairsBlocked(E, ev, constraint_index, &out, max_violations,
                      truncated);
  return out;
}

std::vector<Violation> FindViolations(const EncodedRelation& E,
                                      const ConstraintSet& sigma) {
  std::vector<Violation> out;
  for (size_t k = 0; k < sigma.size(); ++k) {
    std::vector<Violation> part =
        FindViolationsOf(E, sigma[k], static_cast<int>(k));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

bool Satisfies(const EncodedRelation& E, const ConstraintSet& sigma) {
  assert(E.in_sync());
  for (size_t k = 0; k < sigma.size(); ++k) {
    const DenialConstraint& c = sigma[k];
    if (c.predicates().empty()) continue;
    if (c.NumTupleVars() == 1) {
      EncodedConstraintEval ev(E, c);
      std::vector<int> rows(1);
      for (int i = 0; i < E.num_rows(); ++i) {
        rows[0] = i;
        if (ev.IsViolated(rows)) return false;
      }
    } else {
      bool truncated = false;
      std::vector<Violation> part =
          FindViolationsOfCapped(E, c, static_cast<int>(k), 1, &truncated);
      if (!part.empty()) return false;
    }
  }
  return true;
}

namespace {

// Per-constraint state of the suspect scan below: the compiled predicates
// of the current constraint, the suspect condition, equality-group keys
// and partner-block zone pruning.
struct SuspectOps {
  const EncodedRelation* E;
  const ConstraintSet* sigma;
  const CellSet* changing;
  const DenialConstraint* c = nullptr;
  std::vector<EncodedPredicateEval> evals{};
  std::vector<char> attr_changing{};  // attrs owning any changing cell

  void SetConstraint(size_t k) {
    c = &(*sigma)[k];
    evals.clear();
    evals.reserve(c->predicates().size());
    for (const Predicate& p : c->predicates()) evals.emplace_back(*E, p);
    if (attr_changing.empty() && E->num_attributes() > 0) {
      attr_changing.assign(static_cast<size_t>(E->num_attributes()), 0);
      for (const Cell& cell : *changing) {
        if (cell.attr >= 0 && cell.attr < E->num_attributes()) {
          attr_changing[static_cast<size_t>(cell.attr)] = 1;
        }
      }
    }
  }

  // Evaluates the suspect condition sc(rows; φ) w.r.t. `changing` and
  // reports whether any predicate involves a changing cell.
  bool Condition(const std::vector<int>& rows, bool* touches_changing) const {
    *touches_changing = false;
    const std::vector<Predicate>& preds = c->predicates();
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      bool on_changing = false;
      for (const Cell& cell : preds[pi].Cells(rows)) {
        if (changing->count(cell)) {
          on_changing = true;
          break;
        }
      }
      if (on_changing) {
        *touches_changing = true;
        continue;  // predicate on C: excluded from the suspect condition
      }
      if (!evals[pi].Eval(rows)) return false;
    }
    return true;
  }

  std::vector<Code> KeyOf(int i, const std::vector<AttrId>& attrs,
                          bool* usable) const {
    std::vector<Code> key;
    key.reserve(attrs.size());
    *usable = true;
    for (AttrId a : attrs) {
      Code v = E->code(i, a);
      if (v < 0) {
        *usable = false;
        return key;
      }
      key.push_back(v);
    }
    return key;
  }

  // Zone-prunes partner storage blocks against r. Only predicates on
  // attributes without any changing cell participate: those can never be
  // excluded from the suspect condition, so a block they rule out for
  // *both* pair orientations holds no suspect partner of r. One consult
  // is counted per block.
  void PartnerBlockSkips(int r, std::vector<char>* skip) const {
    skip->clear();
    if (attr_changing.empty()) return;
    // fwd prunes orientation (r, j) — the partner binds t1; rev prunes
    // (j, r) — the partner binds t0.
    std::vector<ZonePred> fwd, rev;
    for (const EncodedPredicateEval& pe : evals) {
      if (!pe.on_codes() ||
          attr_changing[static_cast<size_t>(pe.lhs_attr())]) {
        continue;
      }
      if (pe.is_constant()) {
        (pe.lhs_tuple() == 1 ? fwd : rev).push_back(MakeZonePred(pe));
      } else if (pe.is_same_attr() && pe.lhs_tuple() != pe.rhs_tuple()) {
        Code fixed = E->code(r, pe.lhs_attr());
        fwd.push_back({scan_kernels::CompileProbe(pe.op(),
                                                  pe.lhs_tuple() == 0, fixed,
                                                  pe.ranks()),
                       pe.ranks(), pe.lhs_attr()});
        rev.push_back({scan_kernels::CompileProbe(pe.op(),
                                                  pe.lhs_tuple() == 1, fixed,
                                                  pe.ranks()),
                       pe.ranks(), pe.lhs_attr()});
      }
    }
    // A block is skippable only when both orientations are ruled out;
    // an orientation with no pruning predicates is never ruled out.
    if (fwd.empty() || rev.empty()) return;
    int nb = E->num_blocks();
    skip->assign(static_cast<size_t>(nb), 0);
    auto may_all = [&](const std::vector<ZonePred>& zs, int b) {
      for (const ZonePred& z : zs) {
        if (!scan_kernels::MayMatch(z.bp, E->block_meta(z.attr, b),
                                    z.ranks)) {
          return false;
        }
      }
      return true;
    };
    EvalCounters zc;
    for (int b = 0; b < nb; ++b) {
      bool may = may_all(fwd, b) || may_all(rev, b);
      (*skip)[static_cast<size_t>(b)] = !may;
      if (may) {
        ++zc.blocks_scanned;
      } else {
        ++zc.blocks_skipped;
      }
    }
    eval_counters::Add(zc);
  }
};

}  // namespace

std::vector<Violation> FindSuspects(const EncodedRelation& E,
                                    const ConstraintSet& sigma,
                                    const CellSet& changing) {
  assert(E.in_sync());
  SuspectOps ops{&E, &sigma, &changing};
  const int n = E.num_rows();
  const int num_attributes = E.num_attributes();
  std::vector<Violation> out;
  for (size_t k = 0; k < sigma.size(); ++k) {
    const DenialConstraint& c = sigma[k];
    if (c.predicates().empty()) continue;
    ops.SetConstraint(k);

    // Attributes the constraint's predicates can instantiate.
    std::vector<bool> used_attr(num_attributes, false);
    for (const Predicate& p : c.predicates()) {
      used_attr[p.lhs().attr] = true;
      if (!p.has_constant()) used_attr[p.rhs_cell().attr] = true;
    }
    // Rows owning a changing cell on a used attribute.
    std::vector<bool> in_rwc(n, false);
    std::vector<int> rwc;
    for (const Cell& cell : changing) {
      if (cell.attr < num_attributes && used_attr[cell.attr] &&
          !in_rwc[cell.row]) {
        in_rwc[cell.row] = true;
        rwc.push_back(cell.row);
      }
    }
    if (rwc.empty()) continue;
    std::sort(rwc.begin(), rwc.end());

    bool touches = false;
    if (c.NumTupleVars() == 1) {
      std::vector<int> rows(1);
      for (int r : rwc) {
        rows[0] = r;
        if (ops.Condition(rows, &touches) && touches) {
          out.push_back({static_cast<int>(k), rows});
        }
      }
      continue;
    }

    // Fast path for constraints with equality-join predicates: a suspect
    // pair must agree on every equality attribute whose cells are outside
    // C, so partner candidates shrink to the row's hash group plus the
    // rows owning a changing cell on a join attribute.
    std::vector<AttrId> eq_attrs;
    for (const Predicate& p : c.predicates()) {
      if (!p.has_constant() && p.op() == Op::kEq &&
          p.IsSameAttributeAcrossTuples()) {
        eq_attrs.push_back(p.lhs().attr);
      }
    }
    std::sort(eq_attrs.begin(), eq_attrs.end());
    eq_attrs.erase(std::unique(eq_attrs.begin(), eq_attrs.end()),
                   eq_attrs.end());

    std::vector<int> rows(2);
    auto check_pair = [&](int r, int j) {
      rows[0] = r;
      rows[1] = j;
      if (ops.Condition(rows, &touches) && touches) {
        out.push_back({static_cast<int>(k), rows});
      }
      rows[0] = j;
      rows[1] = r;
      if (ops.Condition(rows, &touches) && touches) {
        out.push_back({static_cast<int>(k), rows});
      }
    };

    if (eq_attrs.empty()) {
      std::vector<char> pskip;
      for (int r : rwc) {
        ops.PartnerBlockSkips(r, &pskip);
        for (int j = 0; j < n; ++j) {
          if (!pskip.empty() &&
              pskip[static_cast<size_t>(j >> EncodedRelation::kBlockShift)]) {
            continue;
          }
          if (j == r) continue;
          // Pairs with both rows in rwc are produced from the smaller
          // row's iteration only, to avoid duplicates.
          if (in_rwc[j] && j < r) continue;
          check_pair(r, j);
        }
      }
      continue;
    }

    // Hash groups on the equality attributes.
    std::unordered_map<std::vector<Code>, std::vector<int>, CodeVecHash>
        groups;
    for (int i = 0; i < n; ++i) {
      bool usable = false;
      std::vector<Code> key = ops.KeyOf(i, eq_attrs, &usable);
      if (usable) groups[std::move(key)].push_back(i);
    }
    // Rows whose equality-attribute cells are in C: their join values may
    // change, so they pair with anything.
    std::vector<int> eq_changing_rows;
    std::vector<bool> eq_cell_changing(n, false);
    for (const Cell& cell : changing) {
      if (cell.row >= n || eq_cell_changing[cell.row]) continue;
      if (std::find(eq_attrs.begin(), eq_attrs.end(), cell.attr) !=
          eq_attrs.end()) {
        eq_cell_changing[cell.row] = true;
        eq_changing_rows.push_back(cell.row);
      }
    }
    // Ascending, so partner (and therefore suspect) order never depends
    // on the changing set's hash iteration order.
    std::sort(eq_changing_rows.begin(), eq_changing_rows.end());

    std::vector<bool> seen_partner(n, false);
    for (int r : rwc) {
      // Collect candidate partners (deduplicated via seen_partner).
      std::vector<int> partners;
      auto add_partner = [&](int j) {
        if (j == r || seen_partner[j]) return;
        if (in_rwc[j] && j < r) return;  // produced from j's iteration
        seen_partner[j] = true;
        partners.push_back(j);
      };
      if (eq_cell_changing[r]) {
        // This row's join cells change: every row is a candidate.
        for (int j = 0; j < n; ++j) add_partner(j);
      } else {
        bool usable = false;
        std::vector<Code> key = ops.KeyOf(r, eq_attrs, &usable);
        if (usable) {
          auto it = groups.find(key);
          if (it != groups.end()) {
            for (int j : it->second) add_partner(j);
          }
        }
        for (int j : eq_changing_rows) add_partner(j);
      }
      for (int j : partners) check_pair(r, j);
      for (int j : partners) seen_partner[j] = false;
    }
  }
  return out;
}

// =====================================================================
// The boxed reference: serial scans of the row-major Relation that share
// no code with the encoded backend above (dc/violation.h says who uses
// them). Violations come out in the encoded scans' order, so capped
// prefixes and truncated flags match too.
// =====================================================================

namespace {

// Rows bucketed on the join attributes, blocks ordered by first member;
// with no join attribute, one block of all rows. Numerics key on
// numeric(), the EvalOp '=' that dictionary codes follow (Int(1) meets
// Double(1.0)); rows NULL or fresh on a join attribute never satisfy '='.
std::vector<std::vector<int>> ReferenceBlocks(const Relation& I,
                                              const std::vector<AttrId>& join) {
  auto hash = [](const std::vector<Value>& key) {
    size_t seed = 0x345678;
    for (const Value& v : key) seed = seed * 1000003 ^ v.Hash();
    return seed;
  };
  std::unordered_map<std::vector<Value>, std::vector<int>, decltype(hash)>
      buckets;
  for (int i = 0; i < I.num_rows(); ++i) {
    std::vector<Value> key;
    key.reserve(join.size());
    for (AttrId a : join) {
      const Value& v = I.Get(i, a);
      if (v.is_null() || v.is_fresh()) break;
      key.push_back(v.is_numeric() ? Value::Double(v.numeric()) : v);
    }
    if (key.size() == join.size()) buckets[std::move(key)].push_back(i);
  }
  std::vector<std::vector<int>> blocks;
  for (auto& [key, members] : buckets) blocks.push_back(std::move(members));
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

}  // namespace

std::vector<Violation> FindViolationsOfCapped(
    const Relation& I, const DenialConstraint& constraint,
    int constraint_index, int64_t max_violations, bool* truncated) {
  std::vector<Violation> out;
  if (truncated) *truncated = false;
  const std::vector<Predicate>& preds = constraint.predicates();
  if (preds.empty()) return out;
  const bool unary = constraint.NumTupleVars() == 1;
  std::vector<std::vector<int>> blocks =
      ReferenceBlocks(I, unary ? std::vector<AttrId>{}
                               : EqualityJoinAttrs(preds));
  EvalCounters local;
  std::vector<int> rows(unary ? 1 : 2);
  // Records `rows` when it violates; false once the cap is exceeded.
  auto visit = [&] {
    for (const Predicate& p : preds) {
      ++local.predicate_evals;
      if (!p.Eval(I, rows)) return true;
    }
    if (static_cast<int64_t>(out.size()) >= max_violations) return false;
    out.push_back({constraint_index, rows});
    return true;
  };
  auto scan = [&] {
    for (const std::vector<int>& block : blocks) {
      for (int i : block) {
        rows[0] = i;
        if (unary) {
          if (!visit()) return false;
          continue;
        }
        for (int j : block) {
          rows[1] = j;
          if (i != j && !visit()) return false;
        }
      }
    }
    return true;
  };
  const bool complete = scan();
  if (truncated && !complete) *truncated = true;
  eval_counters::AddScan(local, /*truncated=*/!complete);
  return out;
}

std::vector<Violation> FindViolationsOf(const Relation& I,
                                        const DenialConstraint& constraint,
                                        int constraint_index) {
  return FindViolationsOfCapped(I, constraint, constraint_index,
                                std::numeric_limits<int64_t>::max(), nullptr);
}

std::vector<Violation> FindViolations(const Relation& I,
                                      const ConstraintSet& sigma) {
  std::vector<Violation> out;
  for (size_t k = 0; k < sigma.size(); ++k) {
    std::vector<Violation> part =
        FindViolationsOf(I, sigma[k], static_cast<int>(k));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

bool Satisfies(const Relation& I, const ConstraintSet& sigma) {
  for (const DenialConstraint& c : sigma) {
    bool violated = false;  // a cap of 0 truncates on the first violation
    FindViolationsOfCapped(I, c, 0, /*max_violations=*/0, &violated);
    if (violated) return false;
  }
  return true;
}

std::vector<Violation> FindSuspects(const Relation& I,
                                    const ConstraintSet& sigma,
                                    const CellSet& changing) {
  const int n = I.num_rows();
  // A tuple list can only touch C through a row owning a changing cell.
  std::vector<char> owns(static_cast<size_t>(n), 0);
  for (const Cell& cell : changing) {
    if (cell.row >= 0 && cell.row < n) owns[static_cast<size_t>(cell.row)] = 1;
  }
  std::vector<Violation> out;
  for (size_t k = 0; k < sigma.size(); ++k) {
    const DenialConstraint& c = sigma[k];
    std::vector<int> rows(c.NumTupleVars() == 1 ? 1 : 2);
    // Definition 6: every predicate off C holds, and some predicate is on C.
    auto visit = [&] {
      bool touches = false;
      for (const Predicate& p : c.predicates()) {
        bool on_c = changing.count({rows[p.lhs().tuple], p.lhs().attr}) > 0 ||
                    (!p.has_constant() &&
                     changing.count({rows[p.rhs_cell().tuple],
                                     p.rhs_cell().attr}) > 0);
        if (!on_c && !p.Eval(I, rows)) return;
        touches |= on_c;
      }
      if (touches) out.push_back({static_cast<int>(k), rows});
    };
    for (int i = 0; i < n; ++i) {
      rows[0] = i;
      if (rows.size() == 1) {
        if (owns[static_cast<size_t>(i)]) visit();
        continue;
      }
      for (int j = 0; j < n; ++j) {
        rows[1] = j;
        if (j != i && (owns[static_cast<size_t>(i)] ||
                       owns[static_cast<size_t>(j)])) {
          visit();
        }
      }
    }
  }
  return out;
}

}  // namespace cvrepair
