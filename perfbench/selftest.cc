// Self-test of the benchmark's own arithmetic (bench_stats.h): percentiles
// and the ten-samples-beyond rule, open-loop due-time latency under a
// stall, the stage subtractions, and the failure count. Exits non-zero on
// the first broken expectation.
//
//   perfbench_selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentiles() {
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  Expect(Percentile(v, 50) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(v, 99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(v, 100) == 100, "p100 is the maximum");
  Expect(Percentile({7.0}, 99) == 7.0, "any percentile of one sample");
  Expect(Percentile({}, 50) == 0.0, "no samples reads 0");
  Expect(Median({3, 1, 2, 4}) == 2, "nearest-rank median takes the lower");
  Expect(NearestRank(1000, 99) == 990, "p99 of 1000 is rank 990");
  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Expect(TailResolved(1000, 99), "p99 is resolved at 1000 samples");
  Expect(!TailResolved(999, 99), "p99 is not resolved at 999 samples");
  Expect(TailResolved(100, 90) && !TailResolved(99, 90),
         "p90 needs 100 samples");
}

// A fake clock and a FIFO engine whose Pump advances time by a scripted
// service time: the open loop runs exactly as against the real server.
struct FakeClock {
  double now = 0.0;
  double Now() const { return now; }
  void SleepUntil(double t) {
    if (t > now) now = t;
  }
};

struct FakeEngine {
  FakeClock* clock;
  std::vector<double> service;  // per submission index
  int watermark = 1000;
  std::deque<int> queue;
  bool Submit(int i) {
    if (static_cast<int>(queue.size()) >= watermark) return false;
    queue.push_back(i);
    return true;
  }
  int Depth() const { return static_cast<int>(queue.size()); }
  void Pump() {
    clock->now += service[static_cast<size_t>(queue.front())];
    queue.pop_front();
  }
};

void TestOpenLoopStall() {
  using namespace perfbench;
  FakeClock clock;
  FakeEngine engine{&clock, std::vector<double>(20, 0.002)};
  engine.service[5] = 0.055;  // one apply stalls for 55 ms
  OpenLoopStats s = RunOpenLoop(20, 100.0, clock, engine);  // due every 10 ms
  Expect(s.latency.size() == 20 && s.rejected == 0, "all 20 admitted");
  Expect(Near(s.latency[4], 0.002), "unqueued batch: latency = apply");
  Expect(Near(s.latency[5], 0.055), "stalled batch: latency = its apply");
  // Batch 6 was due at 60 ms, submitted 45 ms late at 105 ms, and applied
  // from 105 to 107 ms: latency runs from the due time, not the submit.
  Expect(Near(s.late[6], 0.045), "generator lateness is measured");
  Expect(Near(s.queue_wait[6], 0.0), "first batch behind the stall waits 0");
  Expect(Near(s.latency[6], 0.047), "stall is charged from the due time");
  Expect(Near(s.latency[7], 0.039), "and to the batch queued behind it");
  Expect(Near(s.queue_wait[7], 0.002), "which waited for batch 6's apply");
  Expect(s.max_depth == 5, "five batches queued behind the stall");
  Expect(Near(s.latency[19], 0.002), "the backlog drains");
  Expect(CountFailed(s, 0.020) == 5,
         "p99 over the limit: batches 5..9 count as failed");
}

void TestLimitAppliesToP99() {
  using namespace perfbench;
  OpenLoopStats s;
  s.latency.assign(1000, 0.005);
  s.bounced.assign(1000, false);
  for (int i = 0; i < 10; ++i) s.latency[static_cast<size_t>(i) * 97] = 0.030;
  Expect(Percentile(s.latency, 99) == 0.005, "ten slow batches sit beyond p99");
  Expect(CountFailed(s, 0.020) == 0, "a phase meeting p99 fails no batch");
  s.latency[500] = 0.030;  // the eleventh moves p99 over the limit
  Expect(CountFailed(s, 0.020) == 11, "missing p99 fails every slow batch");
  s.bounced[500] = true;
  Expect(CountFailed(s, 0.020) == 11, "a bounced slow batch counts once");
}

void TestRejections() {
  using namespace perfbench;
  FakeClock clock;
  FakeEngine engine{&clock, std::vector<double>(10, 0.030)};
  engine.watermark = 1;
  // Due every 10 ms, 30 ms per apply: the engine cannot keep up, so the
  // queue sits at its watermark and due batches bounce until a Pump.
  OpenLoopStats s = RunOpenLoop(10, 100.0, clock, engine);
  Expect(s.rejected > 0, "an overloaded engine rejects");
  Expect(Near(clock.now, 0.300), "every batch is still applied, in order");
  int bounced = 0, failed_expected = 0;
  for (size_t i = 0; i < s.latency.size(); ++i) {
    bounced += s.bounced[i] ? 1 : 0;
    failed_expected += (s.bounced[i] || s.latency[i] > 0.020) ? 1 : 0;
  }
  Expect(bounced == s.rejected, "a batch bounced twice counts once");
  Expect(CountFailed(s, 0.020) == failed_expected,
         "bounced and over-limit batches count as failed, once each");
  OpenLoopStats fixed;
  fixed.latency = {0.010, 0.030, 0.020, 0.001};
  fixed.bounced = {false, false, false, true};
  fixed.rejected = 1;
  Expect(CountFailed(fixed, 0.020) == 2,
         "one over-limit batch plus one rejection; the limit is inclusive");
  fixed.latency = {0.010, 0.015, 0.020, 0.001};
  Expect(CountFailed(fixed, 0.020) == 1,
         "a rejection fails even when the phase meets its limit");
  fixed.latency = {0.010, 0.030, 0.020, 0.001};
  fixed.bounced = {false, true, false, false};
  Expect(CountFailed(fixed, 0.020) == 1,
         "a rejected batch that is also late fails once");
}

void TestSubtractions() {
  using namespace perfbench;
  ReplayTimes t;
  t.build = 1.0;
  t.cover = 0.5;
  t.suspects = 2.0;
  t.solve = 5.0;  // includes its own 2 s suspect rescan
  Expect(Near(SolverSelfSeconds(t), 3.0), "solve minus its suspect scan");
  Expect(Near(UnattributedSeconds(10.0, t), 3.5),
         "search minus build, cover, suspects and solver self time");
  t.solve = 1.0;  // a solve faster than the separately timed scan
  Expect(SolverSelfSeconds(t) < 0, "the subtraction is not clamped");
}

}  // namespace

int main() {
  TestPercentiles();
  TestOpenLoopStall();
  TestLimitAppliesToP99();
  TestRejections();
  TestSubtractions();
  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
