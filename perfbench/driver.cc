// The repo benchmark driver: generates one workload from a seed, runs it
// against the library's public API, checks the outputs, and prints one JSON
// line of metrics (see README.md for the workloads and metric definitions).
//
//   perfbench_driver --workload hosp_batch --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant, which times calls into each module from here and prints the
// per-layer metrics. Human-readable detail goes to stderr.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/parser.h"
#include "dc/violation.h"
#include "eval/metrics.h"
#include "graph/conflict_hypergraph.h"
#include "graph/vertex_cover.h"
#include "relation/csv.h"
#include "relation/domain_stats.h"
#include "relation/encoded.h"
#include "relation/schema_parser.h"
#include "repair/cvtolerant.h"
#include "repair/streaming.h"
#include "repair/vfree.h"
#include "serve/server.h"
#include "solver/materialized_cache.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "variation/variant_generator.h"

namespace {

using namespace cvrepair;
using perfbench::Median;
using perfbench::Percentile;

constexpr int kBatchSize = 32;           // edits per streamed batch
constexpr int kMinSessionBatches = 1000;  // p99 needs 10 samples beyond
constexpr double kLatencyLimit = 0.020;  // serve p99 limit, seconds
constexpr int kLoadRepeats = 101;        // CSV/DC loads per setup_s
constexpr int kOpenRepeats = 3;          // session opens per setup_s
constexpr int kMinRounds = 2;            // timed rounds per batch run

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

[[noreturn]] void Fail(const std::string& message) {
  throw std::runtime_error(message);
}

// ---------------------------------------------------------------- inputs

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct WorkloadSpec {
  const char* name;
  bool census;   // CENSUS generator, else HOSP
  int size;      // hospitals (HOSP) or rows (CENSUS)
  int threads;   // repair engine threads
  bool session;  // stream/serve: a session over a replayed edit stream
  bool serve;    // open loop through RepairServer, else closed-loop stream
  int instances;  // batch workloads: instances generated per seed
};

// census_batch repairs four instances per seed: the repair time of one
// 2000-row instance depends on the seed by up to 40% (seed 13 vs 14), and
// the mean of four halves that spread across seeds; so does pooled F1.
const WorkloadSpec kWorkloads[] = {
    {"hosp_batch", false, 200, 4, false, false, 1},
    {"census_batch", true, 2000, 1, false, false, 4},
    {"hosp_stream", false, 100, 1, true, false, 1},
    {"hosp_serve", false, 100, 1, true, true, 1},
};

/// Generator seed of instance `i` of a workload seed: the seed itself for
/// one instance, and consecutive seeds from instances * seed otherwise.
uint64_t InstanceSeed(const WorkloadSpec& spec, uint64_t seed, int i) {
  return static_cast<uint64_t>(spec.instances) * seed +
         static_cast<uint64_t>(i);
}

// Open-loop rates of the serve workload's two phases, batches/s.
constexpr double kLoRate = 50.0;
constexpr double kHiRate = 100.0;
// Minimum batches per phase: the lo phase reports p90 (300 batches leave
// thirty beyond it). The hi phase's p99 (tail.p99_ms) read 6-14 ms from
// run to run with 1000 batches, only ten beyond it, so it runs 1500.
constexpr int kLoMinBatches = 300;
constexpr int kHiMinBatches = 1500;
// Closed-loop stream length per second of --seconds.
constexpr int kStreamBatchesPerSecond = 250;

/// The generated workload in the textual form a user hands the library,
/// plus the ground truth the accuracy check needs.
struct Inputs {
  std::string schema_text;
  std::string csv_text;
  std::string dc_text;
  Relation clean;
  PredicateSpaceOptions space;
};

Inputs Generate(const WorkloadSpec& spec, uint64_t seed) {
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.seed = seed * 7919 + 17;
  Relation dirty;
  ConstraintSet sigma;
  Inputs in;
  if (spec.census) {
    CensusConfig config;
    config.num_rows = spec.size;
    config.seed = seed;
    CensusData data = MakeCensus(config);
    noise.target_attrs = data.noise_attrs;
    dirty = InjectNoise(data.clean, noise).dirty;
    sigma = data.given;
    in.clean = std::move(data.clean);
    in.space = data.space;
  } else {
    HospConfig config;
    config.num_hospitals = spec.size;
    config.seed = seed;
    HospData data = MakeHosp(config);
    noise.target_attrs = data.noise_attrs;
    dirty = InjectNoise(data.clean, noise).dirty;
    sigma = data.given_oversimplified;
    in.clean = std::move(data.clean);
    in.space = data.space;
  }
  in.schema_text = SchemaToString(dirty.schema());
  in.csv_text = WriteCsvString(dirty);
  in.dc_text = ToString(sigma, dirty.schema());
  return in;
}

struct Loaded {
  Relation dirty;
  ConstraintSet sigma;
};

/// The relation layer's entry: schema, CSV and DC text to (I, Σ).
Loaded Load(const Inputs& in) {
  ParseSchemaResult schema = ParseSchema(in.schema_text);
  if (!schema.ok()) Fail("schema: " + schema.error);
  CsvResult csv = ReadCsvString(*schema.schema, in.csv_text);
  if (!csv.ok()) Fail("csv: " + csv.error);
  ParseSetResult dcs = ParseConstraintSet(*schema.schema, in.dc_text);
  if (!dcs.ok()) Fail("constraints: " + dcs.error);
  return {std::move(*csv.relation), std::move(*dcs.constraints)};
}

/// Loads kLoadRepeats times; returns the last load and the median time.
std::pair<Loaded, double> TimedLoad(const Inputs& in) {
  std::vector<double> times;
  std::optional<Loaded> last;
  for (int i = 0; i < kLoadRepeats; ++i) {
    double t0 = Now();
    last.emplace(Load(in));
    times.push_back(Now() - t0);
  }
  return {std::move(*last), Median(times)};
}

CVTolerantOptions RepairOptions(const Inputs& in, int threads) {
  CVTolerantOptions options;
  options.variants.theta = 1.0;
  options.variants.cost_model.lambda = -0.5;
  options.variants.space = in.space;
  options.threads = threads;
  return options;
}

// --------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  int attempted = 0;
  int failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Σ′ and cost of the (initial) repair, for the recorded-value check.
  std::string sigma_text;
  double cost = 0.0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? ", " : "") << JsonString(m.name) << ": {\"value\": "
        << Number(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  out << "}, \"check\": {\"sigma\": " << JsonString(r.sigma_text)
      << ", \"cost\": " << Number(r.cost) << "}}";
  std::cout << out.str() << std::endl;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A session percentile, which must have ten samples beyond it.
double ResolvedPercentile(const std::vector<double>& samples, double p) {
  if (!perfbench::TailResolved(samples.size(), p)) {
    Fail("too few samples for p" + Number(p) + " with ten beyond it");
  }
  return Percentile(samples, p);
}

bool ViolationFree(const Relation& I, const ConstraintSet& sigma) {
  // The boxed full scan: independent of the encoded backend and of the
  // delta-maintained indexes the repair paths use.
  return FindViolations(I, sigma).empty();
}

bool SameCells(const Relation& a, const Relation& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (int r = 0; r < a.num_rows(); ++r) {
    if (a.row(r) != b.row(r)) return false;
  }
  return true;
}

// ------------------------------------------------------------ traced run

int64_t Delta(const MetricsSnapshot& after, const MetricsSnapshot& before,
              const std::string& key) {
  auto a = after.find(key);
  auto b = before.find(key);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

/// Registry counters of the workload's measured phase.
void AddPhaseCounters(const MetricsSnapshot& after,
                      const MetricsSnapshot& before, Result* out) {
  int64_t hits = Delta(after, before, "cache.lookup_hits");
  int64_t misses = Delta(after, before, "cache.lookup_misses");
  out->Add("cache.hit_ratio",
           Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
           "ratio");
  out->Add("pool.helper_dispatches",
           static_cast<double>(Delta(after, before, "pool.helper_dispatches")),
           "count");
}

/// Per-layer numbers of one θ-tolerant repair: an untraced
/// CVTolerantRepair for the registry counters and the reference Σ′, then
/// the factored path stage by stage, then a replay of every candidate the
/// search solved or aborted through the vfree pipeline stages. Returns the
/// untraced repair; with `phase_counters` the cache and pool counters of
/// that repair are reported too.
RepairResult TraceRepair(const Relation& I, const ConstraintSet& sigma,
                         const CVTolerantOptions& options, bool phase_counters,
                         Result* out) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricsSnapshot before = reg.SnapshotAll();
  double t0 = Now();
  RepairResult reference = CVTolerantRepair(I, sigma, options);
  const double untraced_s = Now() - t0;
  MetricsSnapshot after = reg.SnapshotAll();

  // The factored path, one timed call per module.
  double t = Now();
  EncodedRelation encoded(I);
  const double encode_s = Now() - t;
  const EncodedRelation* E = &encoded;
  VariantGenOptions gen = options.variants;
  gen.always_include_original = gen.always_include_original && gen.theta >= 0;
  gen.data = &I;
  t = Now();
  std::vector<SigmaVariant> variants =
      GenerateSigmaVariants(sigma, I.schema(), gen);
  const double generate_s = Now() - t;
  t = Now();
  std::map<DenialConstraint, VariantFacts> facts =
      ScanVariantFacts(I, sigma, variants, options, E);
  const double facts_s = Now() - t;
  VariantFactsFn facts_of = [&](const DenialConstraint& c)
      -> const VariantFacts& { return facts.at(c); };
  int64_t fresh = 1;
  t = Now();
  VariantSearchResult search = CVTolerantSearchWithFacts(
      I, sigma, variants, facts_of, options, &fresh, E);
  const double search_s = Now() - t;

  // Traced-run consistency: the factored path must settle on the untraced
  // repair's Σ′ at the same cost. A mismatch is reported, not adjusted.
  bool consistent = search.have_result &&
                    search.variant == reference.satisfied_constraints &&
                    search.cost == reference.stats.repair_cost;
  if (!consistent) {
    std::cerr << "FINDING: factored search differs from CVTolerantRepair ("
              << (search.have_result ? "cost " + Number(search.cost)
                                     : std::string("no result"))
              << " vs " << Number(reference.stats.repair_cost) << ")\n";
  }

  // Replay the solved/aborted candidates in the search's order (stable
  // ascending δ_l over the non-hopeless variants) with one shared cache.
  VfreeOptions vopts = options.vfree;
  if (vopts.threads == 0) vopts.threads = options.threads;
  vopts.use_encoded = options.use_encoded;
  DomainStats stats_of_I(I);
  std::vector<std::pair<double, size_t>> order;
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    double delta_l = 0.0;
    bool hopeless = false;
    for (const DenialConstraint& phi : variants[vi].constraints) {
      hopeless |= facts.at(phi).hopeless;
      delta_l = std::max(delta_l, facts.at(phi).delta_l);
    }
    if (!hopeless) order.push_back({delta_l, vi});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  MaterializedCache cache;
  perfbench::ReplayTimes times;
  int64_t edges = 0, cover_cells = 0, suspects = 0, components = 0;
  int replayed = 0;
  int64_t replay_fresh = 1;
  for (const auto& [delta_l, vi] : order) {
    double solved = search.solved_costs[vi];
    double abort_at = search.abort_bounds[vi];
    if (std::isnan(solved) && std::isnan(abort_at)) continue;
    ++replayed;
    const ConstraintSet& set = variants[vi].constraints;
    std::vector<Violation> violations;
    for (size_t i = 0; i < set.size(); ++i) {
      for (Violation v : facts.at(set[i]).violations) {
        v.constraint_index = static_cast<int>(i);
        violations.push_back(std::move(v));
      }
    }
    CanonicalizeViolations(&violations);
    t = Now();
    ConflictHypergraph g =
        ConflictHypergraph::Build(I, set, violations, vopts.cost);
    times.build += Now() - t;
    t = Now();
    VertexCover cover = ApproximateVertexCover(g, vopts.cover, &stats_of_I);
    times.cover += Now() - t;
    std::vector<Cell> changing = cover.Cells(g);
    CellSet changing_set(changing.begin(), changing.end());
    t = Now();
    std::optional<ScopedRepair> scoped = SolveComponents(
        I, stats_of_I, set, changing,
        std::isnan(abort_at) ? std::numeric_limits<double>::infinity()
                             : abort_at,
        vopts, options.enable_sharing ? &cache : nullptr, nullptr,
        &replay_fresh, E);
    times.solve += Now() - t;
    // The suspect scan SolveComponents ran first thing, repeated on its own
    // after it (the second of two identical scans, like the one inside).
    t = Now();
    suspects += static_cast<int64_t>(FindSuspects(*E, set, changing_set).size());
    times.suspects += Now() - t;
    edges += g.num_edges();
    cover_cells += static_cast<int64_t>(changing.size());
    if (scoped) components += scoped->components;
  }
  std::cerr << "  untraced " << untraced_s << " s; encode " << encode_s
            << ", generate " << generate_s << ", facts " << facts_s
            << ", search " << search_s << " s; replayed " << replayed
            << " candidate solves\n";

  const RepairStats& st = reference.stats;
  int64_t facts_violations = 0, facts_hopeless = 0;
  for (const auto& [c, f] : facts) {
    facts_violations += static_cast<int64_t>(f.violations.size());
    facts_hopeless += f.hopeless ? 1 : 0;
  }
  int64_t scanned = Delta(after, before, "eval.blocks_scanned");
  int64_t skipped = Delta(after, before, "eval.blocks_skipped");
  out->Add("relation.encode_s", encode_s, "s");
  out->Add("variation.generate_s", generate_s, "s");
  out->Add("variation.variants", static_cast<double>(variants.size()), "count");
  out->Add("dc.facts_s", facts_s, "s");
  out->Add("dc.facts_violations", static_cast<double>(facts_violations), "count");
  out->Add("dc.facts_hopeless", static_cast<double>(facts_hopeless), "count");
  out->Add("eval.code_predicate_evals",
           static_cast<double>(Delta(after, before, "eval.code_predicate_evals")),
           "count");
  out->Add("eval.zone_skip_ratio",
           Ratio(static_cast<double>(skipped),
                 static_cast<double>(scanned + skipped)),
           "ratio");
  out->Add("repair.search_s", search_s, "s");
  out->Add("repair.datarepair_calls", st.datarepair_calls, "count");
  out->Add("repair.prune_ratio",
           Ratio(st.variants_pruned_bounds, st.variants_enumerated), "ratio");
  out->Add("graph.build_s", times.build, "s");
  out->Add("graph.cover_s", times.cover, "s");
  out->Add("graph.edges", static_cast<double>(edges), "count");
  out->Add("graph.cover_cells", static_cast<double>(cover_cells), "count");
  out->Add("dc.suspects_s", times.suspects, "s");
  out->Add("dc.suspects", static_cast<double>(suspects), "count");
  out->Add("solver.solve_s", perfbench::SolverSelfSeconds(times), "s");
  out->Add("solver.components", static_cast<double>(components), "count");
  out->Add("solver.fresh_frac", Ratio(st.fresh_assignments, st.changed_cells),
           "ratio");
  out->Add("repair.unattributed_s",
           perfbench::UnattributedSeconds(search_s, times), "s");
  out->Add("trace.overhead_s",
           encode_s + generate_s + facts_s + search_s - untraced_s, "s");
  out->Add("trace.consistent", consistent ? 1.0 : 0.0, "bool");
  if (phase_counters) AddPhaseCounters(after, before, out);
  return reference;
}

void AddStreamCounters(const StreamingRepairer& s, double violations_sum,
                       Result* out) {
  const StreamTotals& t = s.totals();
  out->Add("stream.rows_rechecked_per_edit",
           Ratio(static_cast<double>(t.rows_rechecked), static_cast<double>(t.edits)),
           "count");
  out->Add("stream.violations_per_batch",
           Ratio(violations_sum, static_cast<double>(t.batches)), "count");
  out->Add("stream.components_per_batch",
           Ratio(static_cast<double>(t.components_resolved),
                 static_cast<double>(t.batches)),
           "count");
  out->Add("stream.cache_invalidations_per_batch",
           Ratio(static_cast<double>(t.cache_invalidations),
                 static_cast<double>(t.batches)),
           "count");
  out->Add("stream.live_rows", s.current().num_rows(), "count");
}

void AddZeroMetrics(const std::vector<std::pair<const char*, const char*>>& ms,
                    Result* out) {
  for (const auto& [name, unit] : ms) out->Add(name, 0.0, unit);
}

const std::vector<std::pair<const char*, const char*>> kStreamLayer = {
    {"stream.rows_rechecked_per_edit", "count"},
    {"stream.violations_per_batch", "count"},
    {"stream.components_per_batch", "count"},
    {"stream.cache_invalidations_per_batch", "count"},
    {"stream.live_rows", "count"}};

const std::vector<std::pair<const char*, const char*>> kServeLayer = {
    {"serve.lo_p50_ms", "ms"},         {"serve.lo_p90_ms", "ms"},
    {"serve.apply_ms_p50", "ms"},      {"serve.apply_ms_p99", "ms"},
    {"serve.queue_wait_ms_p99", "ms"}, {"serve.queue_depth_max", "count"},
    {"serve.rejected", "count"},       {"serve.cross_shard_frac", "ratio"},
    {"gen.late_ms_p99", "ms"}};

// ------------------------------------------------------- batch workloads

/// One generated batch instance, loaded, with its options.
struct BatchInstance {
  Inputs in;
  Loaded loaded;
  double load_s = 0.0;
  CVTolerantOptions options;
  std::optional<RepairResult> first;  // the first repair, the reference
};

/// The recorded-value check covers every instance: Σ′ texts in instance
/// order (headed per instance when there are several) and the summed cost.
void SetCheck(const std::vector<BatchInstance>& batch, Result* out) {
  out->sigma_text.clear();
  out->cost = 0.0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const RepairResult& r = *batch[i].first;
    if (batch.size() > 1) {
      out->sigma_text += "# instance " + std::to_string(i) + "\n";
    }
    out->sigma_text +=
        ToString(r.satisfied_constraints, batch[i].loaded.dirty.schema());
    out->cost += r.stats.repair_cost;
  }
}

Result RunBatch(const WorkloadSpec& spec, const Args& args) {
  Result out;
  ThreadPool::SetNumThreads(spec.threads);
  std::vector<BatchInstance> batch(static_cast<size_t>(spec.instances));
  double load_s = 0.0;
  for (int i = 0; i < spec.instances; ++i) {
    BatchInstance& b = batch[static_cast<size_t>(i)];
    b.in = Generate(spec, InstanceSeed(spec, args.seed, i));
    auto [loaded, t] = TimedLoad(b.in);
    b.loaded = std::move(loaded);
    b.load_s = t;
    load_s += t;
    b.options = RepairOptions(b.in, spec.threads);
  }

  // Repairs instance `i`; checks it is violation-free under its Σ′ and, on
  // a repeat, identical to the instance's first repair.
  auto repair = [&](BatchInstance& b, int i) {
    RepairResult r =
        CVTolerantRepair(b.loaded.dirty, b.loaded.sigma, b.options);
    ++out.attempted;
    bool ok = ViolationFree(r.repaired, r.satisfied_constraints);
    if (b.first) {
      ok = ok && r.satisfied_constraints == b.first->satisfied_constraints &&
           r.stats.repair_cost == b.first->stats.repair_cost &&
           SameCells(r.repaired, b.first->repaired);
    } else {
      b.first = std::move(r);
    }
    if (!ok) {
      ++out.failed;
      out.Check(false, "repair " + std::to_string(out.attempted) +
                           " (instance " + std::to_string(i) +
                           ") is not violation-free or not deterministic");
    }
  };

  if (args.trace) {
    // Per-layer numbers of instance 0; the others are repaired untraced
    // for the recorded-value check.
    BatchInstance& b0 = batch[0];
    out.Add("relation.load_s", b0.load_s, "s");
    RepairResult r = TraceRepair(b0.loaded.dirty, b0.loaded.sigma, b0.options,
                                 true, &out);
    AddZeroMetrics(kStreamLayer, &out);
    AddZeroMetrics(kServeLayer, &out);
    out.Add("tail.p99_ms", r.stats.elapsed_seconds * 1e3, "ms");
    ++out.attempted;
    bool ok = ViolationFree(r.repaired, r.satisfied_constraints);
    out.Check(ok, "batch repair is not violation-free under its Σ′");
    if (!ok) ++out.failed;
    b0.first = std::move(r);
    for (int i = 1; i < spec.instances; ++i) {
      repair(batch[static_cast<size_t>(i)], i);
    }
    SetCheck(batch, &out);
    return out;
  }

  // One untimed warm-up repair (the process's first touch of the memo and
  // graph memory made it 20-40% slower than the rest), then rounds that
  // repair each instance once: at least kMinRounds, and more while the
  // next one, as long as the last, still ends within --seconds. A round's
  // time over the instance count is the mean time of one repair.
  repair(batch[0], 0);
  std::vector<double> times;
  const double start = Now();
  while (static_cast<int>(times.size()) < kMinRounds ||
         Now() - start + times.back() * spec.instances <= args.seconds) {
    double t0 = Now();
    for (int i = 0; i < spec.instances; ++i) {
      repair(batch[static_cast<size_t>(i)], i);
    }
    times.push_back((Now() - t0) / spec.instances);
  }

  // F1 pooled over the instances' cells.
  AccuracyResult acc;
  for (const BatchInstance& b : batch) {
    AccuracyResult a =
        CellAccuracy(b.in.clean, b.loaded.dirty, b.first->repaired);
    acc.hits += a.hits;
    acc.repaired_cells += a.repaired_cells;
    acc.truth_cells += a.truth_cells;
    std::cerr << spec.name << ": cost " << b.first->stats.repair_cost << ", "
              << b.first->stats.ToString() << "\n";
  }
  const double precision =
      acc.repaired_cells == 0 ? 1.0 : acc.hits / acc.repaired_cells;
  const double recall = acc.truth_cells == 0 ? 1.0 : acc.hits / acc.truth_cells;
  std::cerr << spec.name << ": " << times.size() << " rounds of "
            << spec.instances << " repairs, mean repair (s):";
  for (double t : times) std::cerr << " " << t;
  std::cerr << "\n";
  out.Add("setup_s", load_s, "s");
  out.Add("p50_ms", Median(times) * 1e3, "ms");
  out.Add("p90_ms", Percentile(times, 90) * 1e3, "ms");
  out.Add("items_per_s", batch[0].loaded.dirty.num_rows() / Median(times),
          "1/s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  out.Add("f1",
          precision + recall == 0
              ? 0.0
              : 2.0 * precision * recall / (precision + recall),
          "ratio");
  SetCheck(batch, &out);
  return out;
}

// ----------------------------------------------------- session workloads

struct SteadyClock {
  double Now() const { return ::Now(); }
  /// Sleeps to within a millisecond of `t`, then spins: a plain sleep
  /// wakes up to several milliseconds late on a loaded machine, and that
  /// lateness would be charged to the batch as latency.
  void SleepUntil(double t) const {
    constexpr double kSpin = 0.001;
    double d = t - ::Now();
    if (d > 2 * kSpin) {
      std::this_thread::sleep_for(std::chrono::duration<double>(d - kSpin));
    }
    while (::Now() < t) {
    }
  }
};

struct ServeEngine {
  ServeSession* session;
  const std::vector<std::vector<RowEdit>>* batches;
  int offset;  // stream position of the phase's batch 0
  bool Submit(int i) {
    return session->Submit((*batches)[static_cast<size_t>(offset + i)])
        .admitted;
  }
  int Depth() const { return session->depth(); }
  void Pump() { session->Pump(); }
};

/// Shared set-up of the session workloads: the replayed edit stream over
/// the loaded HOSP instance, and the clean counterpart of its base prefix.
struct SessionInputs {
  Inputs in;
  Loaded loaded;
  double load_s = 0.0;
  ReplayWorkload replay;
  Relation clean_base;
};

SessionInputs MakeSessionInputs(const WorkloadSpec& spec, const Args& args,
                                int batches) {
  SessionInputs s;
  s.in = Generate(spec, args.seed);
  auto [loaded, load_s] = TimedLoad(s.in);
  s.loaded = std::move(loaded);
  s.load_s = load_s;
  s.replay = MakeReplayWorkload(s.loaded.dirty, batches, kBatchSize,
                                args.seed * 104729 + 3);
  s.clean_base = s.in.clean;
  s.clean_base.Truncate(s.replay.base.num_rows());
  return s;
}

void AddSessionE2E(double setup_s, const std::vector<double>& latency,
                   double edits, double wall_s, const SessionInputs& s,
                   const Relation& initial, Result* out) {
  AccuracyResult acc = CellAccuracy(s.clean_base, s.replay.base, initial);
  out->Add("setup_s", setup_s, "s");
  out->Add("p50_ms", Median(latency) * 1e3, "ms");
  // The bounded tail is p90. The p99 (tail.p99_ms, traced run) has only
  // 10-15 samples beyond it and read 5.4-11.5 ms across seeds on
  // hosp_serve: too unsteady to bound.
  out->Add("p90_ms", ResolvedPercentile(latency, 90) * 1e3, "ms");
  out->Add("items_per_s", edits / wall_s, "1/s");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  out->Add("f1", acc.f_measure, "ratio");
}

StreamingOptions StreamOptions(const Inputs& in, int threads) {
  StreamingOptions options;
  options.repair = RepairOptions(in, threads);
  return options;
}

Result RunStream(const WorkloadSpec& spec, const Args& args) {
  Result out;
  // A fixed stream length, so runs of two commits apply the same edits.
  const int batches =
      std::max(kMinSessionBatches, kStreamBatchesPerSecond * args.seconds);
  SessionInputs s = MakeSessionInputs(spec, args, batches);
  ThreadPool::SetNumThreads(spec.threads);
  StreamingOptions options = StreamOptions(s.in, spec.threads);
  if (args.trace) {
    out.Add("relation.load_s", s.load_s, "s");
    TraceRepair(s.replay.base, s.loaded.sigma, options.repair, false, &out);
  }

  std::vector<double> opens;
  std::unique_ptr<StreamingRepairer> stream;
  for (int i = 0; i < kOpenRepeats; ++i) {
    stream.reset();
    double t0 = Now();
    stream = std::make_unique<StreamingRepairer>(s.replay.base, s.loaded.sigma,
                                                 options);
    opens.push_back(Now() - t0);
  }
  Relation initial = stream->current();
  out.sigma_text = ToString(stream->variant(), initial.schema());
  out.cost = stream->initial_stats().repair_cost;

  std::vector<double> latency;
  double violations = 0.0, edits = 0.0;
  MetricsSnapshot before = MetricsRegistry::Global().SnapshotAll();
  const double start = Now();
  for (const std::vector<RowEdit>& batch : s.replay.batches) {
    double t0 = Now();
    StreamBatchResult r = stream->ApplyBatch(batch);
    latency.push_back(Now() - t0);
    violations += r.violations;
    edits += r.edits;
    ++out.attempted;
    if (!stream->IsViolationFree()) {
      ++out.failed;
      out.Check(false, "stream batch left violations");
    }
  }
  const double wall = Now() - start;
  out.Check(ViolationFree(stream->current(), stream->variant()),
            "final streamed instance is not violation-free");
  if (!out.correct && out.failed == 0) out.failed = 1;
  std::cerr << spec.name << ": " << latency.size() << " batches in " << wall
            << " s\n";

  if (args.trace) {
    AddPhaseCounters(MetricsRegistry::Global().SnapshotAll(), before, &out);
    AddStreamCounters(*stream, violations, &out);
    AddZeroMetrics(kServeLayer, &out);
    out.Add("tail.p99_ms", ResolvedPercentile(latency, 99) * 1e3, "ms");
  } else {
    AddSessionE2E(Median(opens), latency, edits, wall, s, initial, &out);
  }
  return out;
}

Result RunServe(const WorkloadSpec& spec, const Args& args) {
  Result out;
  // Half of --seconds per phase, with a minimum batch count in each.
  auto phase_batches = [&](double rate, int min_batches) {
    return std::max(min_batches, static_cast<int>(rate * args.seconds / 2));
  };
  const int lo = phase_batches(kLoRate, kLoMinBatches);
  const int hi = phase_batches(kHiRate, kHiMinBatches);
  SessionInputs s = MakeSessionInputs(spec, args, lo + hi);
  ThreadPool::SetNumThreads(spec.threads);
  ServeOptions options;  // the library's default session options
  options.session.repair = RepairOptions(s.in, spec.threads);
  if (args.trace) {
    out.Add("relation.load_s", s.load_s, "s");
    TraceRepair(s.replay.base, s.loaded.sigma, options.session.repair, false,
                &out);
  }

  std::vector<double> opens;
  std::unique_ptr<RepairServer> server;
  ServeSession* session = nullptr;
  for (int i = 0; i < kOpenRepeats; ++i) {
    server.reset();
    double t0 = Now();
    server = std::make_unique<RepairServer>(options);
    session = server->Open("hosp", s.replay.base, s.loaded.sigma);
    opens.push_back(Now() - t0);
  }
  if (session == nullptr) Fail("cannot open the serve session");
  Relation initial = session->repair().current();
  ConstraintSet variant = session->repair().variant();
  out.sigma_text = ToString(variant, initial.schema());
  out.cost = session->repair().initial_stats().repair_cost;

  SteadyClock clock;
  MetricsSnapshot before = MetricsRegistry::Global().SnapshotAll();
  ServeEngine lo_engine{session, &s.replay.batches, 0};
  perfbench::OpenLoopStats lo_stats =
      perfbench::RunOpenLoop(lo, kLoRate, clock, lo_engine);
  ServeEngine hi_engine{session, &s.replay.batches, lo};
  const double hi_start = Now();
  perfbench::OpenLoopStats hi_stats =
      perfbench::RunOpenLoop(hi, kHiRate, clock, hi_engine);
  const double hi_wall = Now() - hi_start;
  out.attempted = lo + hi;
  out.failed = perfbench::CountFailed(lo_stats, kLatencyLimit) +
               perfbench::CountFailed(hi_stats, kLatencyLimit);
  std::vector<double> apply = session->batch_seconds();
  ServeTotals totals = session->repair().totals();
  std::optional<Relation> final_instance = server->Close("hosp");
  MetricsSnapshot after = MetricsRegistry::Global().SnapshotAll();

  // Sharded ≡ single-session: a StreamingRepairer fed the same batches in
  // ticket order must end on the served instance, cell for cell.
  StreamingRepairer stream(s.replay.base, s.loaded.sigma,
                           StreamOptions(s.in, 1));
  double violations = 0.0;
  for (const std::vector<RowEdit>& batch : s.replay.batches) {
    violations += stream.ApplyBatch(batch).violations;
  }
  bool ok = final_instance.has_value() &&
            ViolationFree(*final_instance, variant) &&
            stream.variant() == variant &&
            ViolationFree(stream.current(), stream.variant()) &&
            SameCells(stream.current(), *final_instance);
  out.Check(ok, "served and streamed final instances differ or violate Σ′");
  if (!ok) ++out.failed;
  std::cerr << spec.name << ": " << lo << " batches at " << kLoRate << "/s, "
            << hi << " at " << kHiRate << "/s; rejected " << lo_stats.rejected
            << " + " << hi_stats.rejected << ", failed " << out.failed
            << ", max depth " << lo_stats.max_depth << " / "
            << hi_stats.max_depth << "\n";

  if (args.trace) {
    AddPhaseCounters(after, before, &out);
    AddStreamCounters(stream, violations, &out);
    out.Add("tail.p99_ms", ResolvedPercentile(hi_stats.latency, 99) * 1e3,
            "ms");
    int64_t comps = totals.shard_local_components + totals.cross_shard_components;
    out.Add("serve.lo_p50_ms", Median(lo_stats.latency) * 1e3, "ms");
    out.Add("serve.lo_p90_ms", ResolvedPercentile(lo_stats.latency, 90) * 1e3,
            "ms");
    out.Add("serve.apply_ms_p50", Median(apply) * 1e3, "ms");
    out.Add("serve.apply_ms_p99", Percentile(apply, 99) * 1e3, "ms");
    out.Add("serve.queue_wait_ms_p99",
            Percentile(hi_stats.queue_wait, 99) * 1e3, "ms");
    out.Add("serve.queue_depth_max",
            std::max(lo_stats.max_depth, hi_stats.max_depth), "count");
    out.Add("serve.rejected", lo_stats.rejected + hi_stats.rejected, "count");
    out.Add("serve.cross_shard_frac",
            Ratio(static_cast<double>(totals.cross_shard_components),
                  static_cast<double>(comps)),
            "ratio");
    out.Add("gen.late_ms_p99", Percentile(hi_stats.late, 99) * 1e3, "ms");
  } else {
    AddSessionE2E(Median(opens), hi_stats.latency,
                  static_cast<double>(hi) * kBatchSize, hi_wall, s, initial,
                  &out);
  }
  return out;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (args.seconds < 1) Fail("--seconds must be at least 1");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = ParseArgs(argc, argv);
    for (const WorkloadSpec& spec : kWorkloads) {
      if (args.workload != spec.name) continue;
      Result r = !spec.session ? RunBatch(spec, args)
                 : spec.serve  ? RunServe(spec, args)
                               : RunStream(spec, args);
      PrintResult(r);
      return 0;
    }
    Fail("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
