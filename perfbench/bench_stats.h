#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

// The benchmark's own arithmetic: nearest-rank percentiles and the
// ten-samples-beyond rule, the open-loop generator that times each batch
// from its due time, the failure count, and the stage subtractions of the
// traced run. Header-only so selftest.cc checks exactly what driver.cc runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile among n samples: the
/// smallest rank r with r >= p/100 * n (clamped to [1, n]; 0 when n = 0).
inline size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  double exact = p * static_cast<double>(n) / 100.0;
  auto r = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(r, 1, n);
}

/// Nearest-rank percentile of `samples` (unsorted); 0 for no samples.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

/// Samples strictly above the p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) {
  return n - NearestRank(n, p);
}

/// A tail percentile is reported as such only with at least ten samples
/// beyond it (p99 therefore needs n >= 1000).
inline bool TailResolved(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= 10;
}

/// Outcome of one open-loop phase. Times are seconds on the loop's clock;
/// vectors are indexed by batch (every batch is eventually applied).
struct OpenLoopStats {
  /// Due time -> return of the Pump that applied the batch.
  std::vector<double> latency;
  /// First submit attempt minus due time.
  std::vector<double> late;
  /// Admitting submit -> start of the Pump that applied the batch.
  std::vector<double> queue_wait;
  /// Batches the engine rejected at least once.
  std::vector<bool> bounced;
  int rejected = 0;  ///< count of bounced batches
  int max_depth = 0;
};

/// Single-threaded open-loop generator: batch i is due at start + i / rate
/// and is submitted as soon as it is due, however far the engine lags; the
/// engine is pumped (one batch per call) whenever nothing can be submitted.
/// A rejected batch counts as bounced and is offered again after the next
/// Pump, ahead of later batches, so the engine sees every edit in order.
/// Clock provides Now() and SleepUntil(t); Engine provides Submit(i) ->
/// admitted, Depth() and Pump() (applies the oldest pending batch).
/// Latency runs from the due time, so a stall is charged to every batch
/// queued behind it.
template <typename Clock, typename Engine>
OpenLoopStats RunOpenLoop(int batches, double rate, Clock& clock,
                          Engine& engine) {
  OpenLoopStats out;
  const auto n = static_cast<size_t>(batches);
  out.latency.assign(n, 0.0);
  out.late.assign(n, 0.0);
  out.queue_wait.assign(n, 0.0);
  out.bounced.assign(n, false);
  const double start = clock.Now();
  auto due = [&](int i) { return start + static_cast<double>(i) / rate; };
  std::deque<std::pair<int, double>> pending;  // batch, admitted at
  int next = 0;
  int attempted = -1;    // last batch whose first attempt was recorded
  bool blocked = false;  // `next` bounced; wait for a Pump
  while (next < batches || !pending.empty()) {
    double now = clock.Now();
    if (next < batches && !blocked && due(next) <= now) {
      if (attempted < next) {
        out.late[static_cast<size_t>(next)] = now - due(next);
        attempted = next;
      }
      if (engine.Submit(next)) {
        pending.push_back({next, now});
        ++next;
      } else {
        if (!out.bounced[static_cast<size_t>(next)]) ++out.rejected;
        out.bounced[static_cast<size_t>(next)] = true;
        blocked = true;
      }
      out.max_depth = std::max(out.max_depth, engine.Depth());
      continue;
    }
    if (!pending.empty()) {
      auto [i, admitted_at] = pending.front();
      pending.pop_front();
      out.queue_wait[static_cast<size_t>(i)] = clock.Now() - admitted_at;
      engine.Pump();
      out.latency[static_cast<size_t>(i)] = clock.Now() - due(i);
      blocked = false;
      continue;
    }
    if (blocked) {  // rejected with nothing pending: retry at once
      blocked = false;
      continue;
    }
    clock.SleepUntil(due(next));
  }
  return out;
}

/// Batches that count as failed: every bounced batch, and — when the
/// phase misses its limit, i.e. its p99 latency exceeds `limit` — every
/// batch above the limit. Each batch counts once. A phase that meets the
/// limit at p99 fails no batch on latency alone.
inline int CountFailed(const OpenLoopStats& stats, double limit) {
  const bool missed = Percentile(stats.latency, 99) > limit;
  int failed = 0;
  for (size_t i = 0; i < stats.latency.size(); ++i) {
    bool late = missed && stats.latency[i] > limit;
    failed += (stats.bounced[i] || late) ? 1 : 0;
  }
  return failed;
}

/// Stage times of the replayed candidate solves (seconds, summed).
struct ReplayTimes {
  double build = 0.0;     ///< ConflictHypergraph::Build
  double cover = 0.0;     ///< ApproximateVertexCover
  double suspects = 0.0;  ///< FindSuspects, timed on its own
  double solve = 0.0;     ///< SolveComponents, which rescans suspects
};

/// SolveComponents time net of the suspect scan it repeats internally.
inline double SolverSelfSeconds(const ReplayTimes& t) {
  return t.solve - t.suspects;
}

/// Search time the replayed stages do not account for: costing, instance
/// copies and loop bookkeeping.
inline double UnattributedSeconds(double search, const ReplayTimes& t) {
  return search - (t.build + t.cover + t.suspects + SolverSelfSeconds(t));
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
