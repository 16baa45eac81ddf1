// Repair-as-a-service (serve/): a served session must stay violation-free
// under its variant and bit-identical — cost, changed cells, components,
// fresh ids included — to a StreamingRepairer fed the same edit sequence
// directly, across datasets, strategies, thread counts, drain schedules and
// variant switches; the admission edge must reject at the watermark
// deterministically, re-admit after a drain, and never lose an accepted
// batch, even across Close.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/violation.h"
#include "repair/streaming.h"
#include "repair/subset.h"

namespace cvrepair {
namespace {

struct Workload {
  Relation dirty;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
};

Workload MakeHospWorkload() {
  HospConfig config;
  config.num_hospitals = 6;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = hosp.noise_attrs;
  return {InjectNoise(hosp.clean, noise).dirty, hosp.given_oversimplified,
          hosp.space};
}

Workload MakeCensusWorkload() {
  CensusConfig config;
  config.num_rows = 120;
  CensusData census = MakeCensus(config);
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.target_attrs = census.noise_attrs;
  return {InjectNoise(census.clean, noise).dirty, census.given, {}};
}

StreamingOptions MakeStreamingOptions(const Workload& w, int threads) {
  StreamingOptions options;
  options.repair.variants.space = w.space;
  options.repair.threads = threads;
  return options;
}

void ExpectExactlyEqual(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (AttrId at = 0; at < a.num_attributes(); ++at) {
      EXPECT_TRUE(a.Get(r, at) == b.Get(r, at))
          << "cell (" << r << "," << at << "): " << a.Get(r, at).ToString()
          << " vs " << b.Get(r, at).ToString();
    }
  }
}

/// Drives one replay through a RepairServer session (Submit, then Pump,
/// batch by batch) and through a StreamingRepairer directly, and pins
/// batch-by-batch bit-identity: same variant, same violation count, same
/// cost/cells/components, same cells including fresh ids. Under the delete
/// strategy the re-solves must also have tombstoned at least one tuple.
void RunServedVsStreamed(const Workload& w, int threads,
                         RepairStrategy strategy = RepairStrategy::kUpdate) {
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, /*num_batches=*/4,
                                             /*batch_size=*/8, /*seed=*/7);
  ServeOptions options;
  options.session = MakeStreamingOptions(w, threads);
  options.session.repair.vfree.strategy = strategy;
  RepairServer server;
  ServeSession* session = server.Open("replay", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  StreamingRepairer streamer(replay.base, w.sigma, options.session);
  const StreamingRepairer& served = session->repair();
  ASSERT_TRUE(served.variant() == streamer.variant());
  ASSERT_TRUE(served.IsViolationFree());
  ExpectExactlyEqual(served.current(), streamer.current());

  int tombstoned = 0;
  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const Relation before = served.current();
    ASSERT_TRUE(session->Submit(replay.batches[b]).admitted);
    ASSERT_EQ(session->Pump(), 1);
    StreamBatchResult rs = session->last_result();
    StreamBatchResult rt = streamer.ApplyBatch(replay.batches[b]);
    for (int r = 0; r < before.num_rows(); ++r) {
      tombstoned += RowDeleted(before, served.current(), r) ? 1 : 0;
    }
    EXPECT_TRUE(served.IsViolationFree());
    EXPECT_EQ(rs.violations, rt.violations);
    EXPECT_EQ(rs.repair_cost, rt.repair_cost);  // bit-identical, not close
    EXPECT_EQ(rs.cells_changed, rt.cells_changed);
    EXPECT_EQ(rs.components, rt.components);
    ExpectExactlyEqual(served.current(), streamer.current());
  }
  EXPECT_EQ(session->applied(), static_cast<int64_t>(replay.batches.size()));
  if (strategy == RepairStrategy::kDelete) {
    EXPECT_GE(tombstoned, 1);
  }
  EXPECT_TRUE(FindViolations(served.current(), served.variant()).empty());
  std::optional<Relation> final_instance = server.Close("replay");
  ASSERT_TRUE(final_instance.has_value());
  ExpectExactlyEqual(*final_instance, streamer.current());
}

// The acceptance matrix: hosp and census at 1 and 4 threads.
TEST(ServeTest, HospServedMatchesStreamed1Thread) {
  RunServedVsStreamed(MakeHospWorkload(), 1);
}
TEST(ServeTest, HospServedMatchesStreamed4Threads) {
  RunServedVsStreamed(MakeHospWorkload(), 4);
}
TEST(ServeTest, CensusServedMatchesStreamed1Thread) {
  RunServedVsStreamed(MakeCensusWorkload(), 1);
}
TEST(ServeTest, CensusServedMatchesStreamed4Threads) {
  RunServedVsStreamed(MakeCensusWorkload(), 4);
}

// The delete-strategy arm (selected by the CI strategy matrix's
// ServeTest.Delete* filter): the per-batch re-solve retires violations by
// tombstoning tuples, and the served session must still equal the direct
// stream batch by batch, at both thread counts.
TEST(ServeTest, DeleteStrategyServedMatchesStreamedReplay) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunServedVsStreamed(MakeHospWorkload(), threads, RepairStrategy::kDelete);
  }
}

// A served session follows a variant switch like a stream does: with
// reopen_variants on a drifting stream, the served engine re-opens the
// variant search mid-session and ends on the direct stream's Σ' and cells.
TEST(ServeTest, ServedSessionFollowsVariantSwitch) {
  Workload w = MakeHospWorkload();
  ServeOptions options;
  options.session = MakeStreamingOptions(w, 1);
  options.session.reopen_variants = true;
  ReplayWorkload replay = MakeDriftWorkload(w.dirty, /*num_batches=*/6,
                                            /*batch_size=*/10, /*seed=*/29);
  RepairServer server;
  ServeSession* session = server.Open("drift", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  StreamingRepairer streamer(replay.base, w.sigma, options.session);
  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    ASSERT_TRUE(session->Submit(replay.batches[b]).admitted);
    ASSERT_EQ(session->Pump(), 1);
    StreamBatchResult rs = session->last_result();
    StreamBatchResult rt = streamer.ApplyBatch(replay.batches[b]);
    EXPECT_EQ(rs.reopened, rt.reopened);
    EXPECT_EQ(rs.variant_switched, rt.variant_switched);
    EXPECT_TRUE(session->repair().variant() == streamer.variant());
    ExpectExactlyEqual(session->repair().current(), streamer.current());
  }
  EXPECT_GT(session->repair().totals().variant_reopens, 0);
  EXPECT_TRUE(session->repair().IsViolationFree());
}

// ---------------------------------------------------------------------------
// Admission control

ServeOptions SmallServeOptions(const Workload& w, int watermark) {
  ServeOptions options;
  options.session.repair.variants.space = w.space;
  options.admission.queue_watermark = watermark;
  return options;
}

// At the watermark, Submit rejects — deterministically, with a retry hint
// and no ticket — and a drained queue re-admits.
TEST(ServeTest, SubmitRejectsAtWatermarkAndReadmitsAfterDrain) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 5, 4, /*seed=*/9);
  RepairServer server;
  ServeSession* session = server.Open("hosp", replay.base, w.sigma,
                                      SmallServeOptions(w, /*watermark=*/2));
  ASSERT_NE(session, nullptr);
  std::vector<SubmitOutcome> outcomes;
  for (const std::vector<RowEdit>& batch : replay.batches) {
    outcomes.push_back(session->Submit(batch));
  }
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].admitted);
  EXPECT_TRUE(outcomes[1].admitted);
  EXPECT_EQ(outcomes[0].ticket, 0);
  EXPECT_EQ(outcomes[1].ticket, 1);
  for (size_t i = 2; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].admitted);
    EXPECT_EQ(outcomes[i].ticket, -1);
    EXPECT_GT(outcomes[i].retry_after_seconds, 0.0);
    EXPECT_EQ(outcomes[i].queue_depth, 2);
  }
  EXPECT_EQ(session->depth(), 2);
  EXPECT_EQ(session->rejected(), 3);

  EXPECT_EQ(session->Flush(), 2);
  EXPECT_EQ(session->depth(), 0);
  EXPECT_EQ(session->applied(), 2);

  // Drained queue re-admits: the previously rejected batches go through.
  for (size_t i = 2; i < replay.batches.size(); ++i) {
    SubmitOutcome again = session->Submit(replay.batches[i]);
    EXPECT_TRUE(again.admitted);
    session->Pump();
  }
  EXPECT_EQ(session->applied(), 5);
  // One latency sample per applied batch, in ticket order.
  EXPECT_EQ(session->batch_seconds().size(), 5u);
  EXPECT_TRUE(FindViolations(session->repair().current(),
                             session->repair().variant())
                  .empty());
}

// Close flushes the accepted-but-unapplied tail: the final instance equals
// a directly driven session over the same batches, nothing is lost.
TEST(ServeTest, CloseFlushesAcceptedBatchesWithoutLoss) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 3, 6, /*seed=*/17);
  ServeOptions options = SmallServeOptions(w, /*watermark=*/8);

  RepairServer server;
  ServeSession* session = server.Open("hosp", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    ASSERT_TRUE(session->Submit(batch).admitted);
  }
  EXPECT_EQ(session->applied(), 0);  // everything still queued
  std::optional<Relation> final_instance = server.Close("hosp");
  ASSERT_TRUE(final_instance.has_value());
  EXPECT_EQ(server.Find("hosp"), nullptr);

  StreamingRepairer twin(replay.base, w.sigma, options.session);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    twin.ApplyBatch(batch);
  }
  ExpectExactlyEqual(*final_instance, twin.current());
}

// The background worker drains the queue in ticket order; the close still
// hands back the same instance as a synchronous twin.
TEST(ServeTest, BackgroundWorkerMatchesSynchronousDrain) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 3, 6, /*seed=*/23);
  ServeOptions options = SmallServeOptions(w, /*watermark=*/8);
  options.admission.background = true;

  RepairServer server;
  ServeSession* session = server.Open("hosp", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    ASSERT_TRUE(session->Submit(batch).admitted);
  }
  std::optional<Relation> final_instance = server.Close("hosp");
  ASSERT_TRUE(final_instance.has_value());

  options.admission.background = false;
  StreamingRepairer twin(replay.base, w.sigma, options.session);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    twin.ApplyBatch(batch);
  }
  ExpectExactlyEqual(*final_instance, twin.current());
}

TEST(ServeTest, ServerHostsMultipleNamedSessions) {
  Workload hosp = MakeHospWorkload();
  Workload census = MakeCensusWorkload();
  RepairServer server;
  ASSERT_NE(server.Open("hosp", hosp.dirty, hosp.sigma,
                        SmallServeOptions(hosp, 4)),
            nullptr);
  ASSERT_NE(server.Open("census", census.dirty, census.sigma,
                        SmallServeOptions(census, 4)),
            nullptr);
  EXPECT_EQ(server.Open("hosp", hosp.dirty, hosp.sigma), nullptr);
  EXPECT_EQ(server.SessionNames(),
            (std::vector<std::string>{"census", "hosp"}));
  EXPECT_NE(server.Find("census"), nullptr);
  // FlushAll drains every session's queue: one no-op batch each.
  for (const char* name : {"hosp", "census"}) {
    ServeSession* session = server.Find(name);
    ASSERT_NE(session, nullptr);
    const Relation& current = session->repair().current();
    ASSERT_TRUE(session
                    ->Submit({RowEdit::Update(0, 0, current.Get(0, 0))})
                    .admitted);
  }
  EXPECT_EQ(server.FlushAll(), 2);
  EXPECT_TRUE(server.Close("census").has_value());
  EXPECT_FALSE(server.Close("census").has_value());
  EXPECT_EQ(server.SessionNames(), (std::vector<std::string>{"hosp"}));
}

// ---------------------------------------------------------------------------
// Latency histogram (bench/bench_util.h)

TEST(ServeTest, LatencyHistogramNearestRankOnFixedSample) {
  bench::LatencyHistogram h;
  EXPECT_EQ(h.Percentile(50.0), 0.0);  // empty
  // 1..100 in a scrambled but fixed order.
  std::vector<double> sample;
  for (int i = 0; i < 100; ++i) {
    sample.push_back(static_cast<double>((i * 37) % 100 + 1));
  }
  h.RecordAll(sample);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.p50(), 50.0);   // nearest-rank: the 50th smallest
  EXPECT_EQ(h.p99(), 99.0);   // the 99th smallest
  EXPECT_EQ(h.Percentile(100.0), 100.0);
  EXPECT_EQ(h.Percentile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.TotalSeconds(), 5050.0);
  bench::LatencyHistogram tiny;
  tiny.Record(3.0);
  EXPECT_EQ(tiny.p50(), 3.0);
  EXPECT_EQ(tiny.p99(), 3.0);
}

// ---------------------------------------------------------------------------
// Fuzz: random watermarks × batch shapes × pump interleavings × background
// worker on/off × 1 or 4 threads, served (through the full server path) ≡
// streamed replay.

int FuzzScale() {
  static const int scale = [] {
    const char* v = std::getenv("CVREPAIR_FUZZ_ITERS");
    int s = (v != nullptr && v[0] != '\0') ? std::atoi(v) : 1;
    return s > 0 ? s : 1;
  }();
  return scale;
}

class ServeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ServeFuzz, RandomScheduleMatchesStreamedReplay) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 9973 + 17);
  Workload w = (seed % 2 == 0) ? MakeHospWorkload() : MakeCensusWorkload();
  const int num_batches = 2 + static_cast<int>(rng() % 3);
  const int batch_size = 4 + static_cast<int>(rng() % 6);
  const int watermark = 1 + static_cast<int>(rng() % num_batches);
  const bool background = rng() % 2 == 0;
  const int threads = rng() % 2 == 0 ? 1 : 4;
  SCOPED_TRACE("seed=" + std::to_string(seed) + " batches=" +
               std::to_string(num_batches) + "x" +
               std::to_string(batch_size) + " watermark=" +
               std::to_string(watermark) + " background=" +
               std::to_string(background) + " threads=" +
               std::to_string(threads));
  ReplayWorkload replay = MakeReplayWorkload(
      w.dirty, num_batches, batch_size, static_cast<uint64_t>(seed) + 101);

  ServeOptions options;
  options.session = MakeStreamingOptions(w, threads);
  options.admission.queue_watermark = watermark;
  options.admission.background = background;
  RepairServer server;
  ServeSession* session =
      server.Open("fuzz", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  // Closed-loop with a random pump interleaving: rejected batches pump the
  // queue and retry (racing the background worker when it runs), so the
  // admitted order — and hence the repaired instance — is the canonical
  // batch order regardless of schedule.
  for (const std::vector<RowEdit>& batch : replay.batches) {
    while (!session->Submit(batch).admitted) {
      if (session->Pump() == 0) std::this_thread::yield();
    }
    if (rng() % 2 == 0) session->Pump();
  }
  std::optional<Relation> final_instance = server.Close("fuzz");
  ASSERT_TRUE(final_instance.has_value());

  StreamingRepairer streamer(replay.base, w.sigma, options.session);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    streamer.ApplyBatch(batch);
  }
  ExpectExactlyEqual(*final_instance, streamer.current());
  EXPECT_TRUE(
      FindViolations(*final_instance, streamer.variant()).empty());
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, ServeFuzz,
                         ::testing::Range(0, 2 * FuzzScale()));

}  // namespace
}  // namespace cvrepair
