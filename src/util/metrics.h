#ifndef CVREPAIR_UTIL_METRICS_H_
#define CVREPAIR_UTIL_METRICS_H_

// Unified metrics registry: every subsystem counter (scan work, solver
// cache traffic, streaming ingest, thread-pool scheduling)
// lives behind one named handle so a whole run can be snapshotted, diffed,
// and exported as machine-readable JSON. Current namespaces: "eval.*"
// (violation scans + block scans: predicate/code evals, partition
// work, and the zone-map pair blocks_scanned/blocks_skipped — consults
// that ran vs. pruned a column block), "cache.*" (materialized component
// cache),
// "repair.*" (per-run outcome, PublishRepairStats), "stream.*" (streaming
// batch repair: batches/edits/rows_ingested/rows_rechecked/
// components_resolved/cells_changed), "serve.*" (repair-as-a-service:
// admission batches_admitted/batches_rejected/sessions_opened, sharded
// engine batches_applied/shard_local_components/cross_shard_components/
// rows_migrated/cells_changed), "pool.*" (runtime-only scheduling).
// Counters are relaxed atomics — hot loops keep bulk-flushing local
// tallies exactly as before; the registry only changes where the totals
// live.
//
// The export contract (see DESIGN.md §8): *work* counters are functions of
// the workload alone — the same repair produces the same values at any
// --threads setting — and make up metrics.json, the file CI diffs against
// checked-in baselines. *Runtime* counters (pool chunk claims and the
// like) depend on scheduling, never enter metrics.json, and exist for
// humans reading full snapshots or traces.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace cvrepair {

/// Determinism class of a counter; only kWork counters are exported to
/// metrics.json and gated by CI.
enum class MetricKind {
  kWork,     ///< same workload => same value at any thread count
  kRuntime,  ///< scheduling-dependent (pool chunks, helper wakeups)
};

/// A named monotonically increasing int64 counter. Handles are stable for
/// the process lifetime; increments are relaxed atomics (statistics, not
/// synchronization — totals are exact once the measured code has joined).
class MetricCounter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  MetricKind kind() const { return kind_; }

 private:
  friend class MetricsRegistry;
  MetricCounter(std::string name, MetricKind kind)
      : name_(std::move(name)), kind_(kind) {}

  std::string name_;
  MetricKind kind_;
  std::atomic<int64_t> value_{0};
};

/// Flat name → value view of a registry (std::map: deterministic order).
using MetricsSnapshot = std::map<std::string, int64_t>;

/// The central registry. `Global()` is the process-wide instance every
/// subsystem publishes into; separate instances exist only for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Returns the handle registered under `name`, creating it on first use.
  /// The kind is fixed by the first registration. Thread-safe; the handle
  /// stays valid for the registry's lifetime, so callers cache it and
  /// never pay the lookup on a hot path.
  MetricCounter* GetCounter(const std::string& name,
                            MetricKind kind = MetricKind::kWork);

  /// Every registered counter, including runtime ones.
  MetricsSnapshot SnapshotAll() const;

  /// Only the deterministic work counters — the metrics.json content.
  MetricsSnapshot SnapshotWork() const;

  /// Zeroes every counter (handles stay valid). Call between runs when a
  /// snapshot should describe one run, not the process history.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
};

/// Renders a snapshot as the stable metrics.json format: one flat JSON
/// object, keys sorted (the map order), one "name": value pair per line,
/// no timestamps or floats — byte-identical across runs of the same
/// workload.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// MetricsToJson to a file. Returns false when the file cannot be written.
bool WriteMetricsJsonFile(const std::string& path,
                          const MetricsSnapshot& snapshot);

/// Per-key `after - before` (keys missing from `before` count as 0; keys
/// only in `before` are kept negated). Use around a run to report its
/// delta against a registry that was not reset.
MetricsSnapshot MetricsDiff(const MetricsSnapshot& after,
                            const MetricsSnapshot& before);

}  // namespace cvrepair

#endif  // CVREPAIR_UTIL_METRICS_H_
