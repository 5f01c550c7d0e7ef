// Tests of the benchmark's own arithmetic. Checks use CHECK (never
// assert, which NDEBUG would remove); the process exits 1 on any failure.
// Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using namespace perfbench;

void TestPercentiles() {
  // 1..100 ms: nearest rank p50 = 50, p95 = 95.
  std::vector<double> lat;
  for (int i = 1; i <= 100; ++i) lat.push_back(i);
  LatencySummary s = SummarizeLatency(lat, 0);
  CHECK(s.samples == 100);
  CHECK(Near(s.p50_ms, 50));
  CHECK(Near(s.p95_ms, 95));
  CHECK(s.beyond_p95 == 5);

  // 94 completed + 6 refused: the refused sort beyond every latency, so
  // p95 (rank 95 of 100) is a refused request and reads as beyond limit.
  std::vector<double> lat94(lat.begin(), lat.begin() + 94);
  s = SummarizeLatency(lat94, 6);
  CHECK(s.samples == 100);
  CHECK(std::isinf(s.p95_ms));
  CHECK(Near(s.p50_ms, 50));

  // 95 completed + 5 refused: p95 is still the 95th latency.
  std::vector<double> lat95(lat.begin(), lat.begin() + 95);
  s = SummarizeLatency(lat95, 5);
  CHECK(Near(s.p95_ms, 95));
  CHECK(s.beyond_p95 == 5);

  // All refused: both percentiles beyond limit.
  s = SummarizeLatency({}, 5);
  CHECK(std::isinf(s.p50_ms) && std::isinf(s.p95_ms));

  CHECK(Near(Median({3, 1, 2}), 2));
  CHECK(Near(Median({4, 1, 2, 3}), 2.5));
  CHECK(std::isnan(Median({})));
  CHECK(Near(NearestRank({5}, 0.99), 5));
}

void TestCrossing() {
  std::vector<LlPoint> trace = {
      {1, 0.5, -10.0}, {2, 1.0, -9.0}, {3, 1.6, -8.0}, {4, 2.0, -7.5}};
  double it = 0, sec = 0;
  // -8.5 lies halfway between sweeps 2 and 3.
  CHECK(CrossingPoint(trace, -8.5, &it, &sec));
  CHECK(Near(it, 2.5));
  CHECK(Near(sec, 1.3));
  // Exactly on an evaluation.
  CHECK(CrossingPoint(trace, -8.0, &it, &sec));
  CHECK(Near(it, 2.0 + 1.0) && Near(sec, 1.6));
  // Already reached at the first point: that point.
  CHECK(CrossingPoint(trace, -11.0, &it, &sec));
  CHECK(Near(it, 1) && Near(sec, 0.5));
  // Never reached.
  CHECK(!CrossingPoint(trace, -7.0, &it, &sec));
  // A dip after the crossing does not move it (first crossing counts).
  std::vector<LlPoint> dip = {{1, 1, -9}, {2, 2, -7}, {3, 3, -9}, {4, 4, -6}};
  CHECK(CrossingPoint(dip, -8, &it, &sec));
  CHECK(Near(it, 1.5) && Near(sec, 1.5));
}

void TestFastestRun() {
  // Three runs of three sweeps; run 2 stalls on sweep 2.
  std::vector<std::vector<double>> runs = {
      {1.0, 0.5, 0.4}, {1.2, 5.0, 0.4}, {1.1, 0.6, 0.5}};
  std::vector<double> fastest = PerIndexMin(runs);
  CHECK(fastest.size() == 3);
  CHECK(Near(fastest[0], 1.0) && Near(fastest[1], 0.5) &&
        Near(fastest[2], 0.4));
  // Shortest run bounds the length.
  CHECK(PerIndexMin({{1, 2, 3}, {1, 2}}).size() == 2);
  CHECK(PerIndexMin({}).empty());
  // Cumulative trace: LL -9, -8, -7 → crossing -7.5 halfway into sweep 3.
  std::vector<LlPoint> trace = FastestRunTrace(runs, {-9, -8, -7});
  CHECK(trace.size() == 3);
  CHECK(Near(trace[2].seconds, 1.9) && Near(trace[2].iteration, 3));
  double it = 0, sec = 0;
  CHECK(CrossingPoint(trace, -7.5, &it, &sec));
  CHECK(Near(it, 2.5) && Near(sec, 1.5 + 0.5 * 0.4));
}

void TestReplayLatency() {
  // Each request is timed by its fastest replay; a request refused in one
  // replay but served in another takes the served time, and one refused in
  // every replay stays beyond every limit.
  const std::vector<std::vector<double>> replays = {
      {5, kBeyondLimit, 9, kBeyondLimit}, {4, 7, 12, kBeyondLimit},
      {6, 8, 10, kBeyondLimit}};
  const std::vector<double> fastest = PerIndexMin(replays);
  CHECK(fastest.size() == 4);
  CHECK(Near(fastest[0], 4) && Near(fastest[1], 7) && Near(fastest[2], 9));
  CHECK(fastest[3] == kBeyondLimit);
  const LatencySummary s = SummarizeLatency(fastest, 0);
  CHECK(s.samples == 4 && Near(s.p50_ms, 7) && s.p95_ms == kBeyondLimit);
}

void TestSelfTime() {
  // parent [0,100) with children [10,30) and [20,50) (overlapping, union
  // 40) and [90,120) (clipped to 10): self = 100 - 50 = 50.
  std::vector<FlatSpan> spans(4);
  spans[0].name = "parent";
  spans[0].start_ns = 0;
  spans[0].end_ns = 100;
  spans[1].name = "a";
  spans[1].start_ns = 10;
  spans[1].end_ns = 30;
  spans[1].parent = 0;
  spans[2].name = "b";
  spans[2].start_ns = 20;
  spans[2].end_ns = 50;
  spans[2].parent = 0;
  spans[3].name = "c";
  spans[3].start_ns = 90;
  spans[3].end_ns = 120;
  spans[3].parent = 0;
  std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 50);
  CHECK(self[1] == 20 && self[2] == 30 && self[3] == 30);

  // Tracer: parents across tracks resolve after merging.
  Tracer tracer(2);
  SpanId root = tracer.track(0).Begin("sweep", 1000, kNoSpan);
  SpanId child = tracer.track(1).Begin("block", 1100, root);
  tracer.track(1).End(child, 1400);
  tracer.track(0).End(root, 2000);
  std::vector<FlatSpan> flat = tracer.Collect();
  CHECK(flat.size() == 2);
  CHECK(flat[1].parent == 0 && flat[1].track == 1);
  self = SelfTimesNs(flat);
  CHECK(self[0] == 700 && self[1] == 300);
}

void TestGridAccounting() {
  // The pubmed-grid8 sum check: barrier self time plus stage time equals
  // the sweep wall time up to the gaps between driver calls.
  Tracer tracer(3);
  SpanBuffer& d = tracer.track(0);
  SpanId sweep = d.Begin("sweep", 0, kNoSpan);
  d.End(d.Begin("barrier.begin_sweep", 0, sweep), 100);
  SpanId st = d.Begin("stage", 100, sweep);
  tracer.track(1).End(tracer.track(1).Begin("block", 110, st), 500);
  tracer.track(2).End(tracer.track(2).Begin("block", 120, st), 600);
  d.End(st, 610);
  d.End(d.Begin("barrier.end_stage", 610, sweep), 700);
  d.End(d.Begin("barrier.end_sweep", 705, sweep), 800);
  d.End(sweep, 800);
  std::vector<FlatSpan> spans = tracer.Collect();
  std::vector<int64_t> self = SelfTimesNs(spans);
  double barrier = 0, stage = 0, wall = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name.rfind("barrier.", 0) == 0) barrier += self[i];
    if (spans[i].name == "stage") stage += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].name == "sweep") wall += spans[i].end_ns - spans[i].start_ns;
  }
  CHECK(Near(barrier, 285) && Near(stage, 510) && Near(wall, 800));
  // 5 ns of 800 are between driver calls: a 0.625% gap.
  CHECK(Near(AccountingGap(barrier, stage, wall), 5.0 / 800));
  CHECK(AccountingGap(barrier, stage, wall) <= 0.05);
  CHECK(AccountingGap(100, 100, 400) > 0.05);
  CHECK(std::isinf(AccountingGap(1, 1, 0)));
}

void TestHash() {
  CHECK(HashAssignments({1, 2, 3}) == HashAssignments({1, 2, 3}));
  CHECK(HashAssignments({1, 2, 3}) != HashAssignments({1, 3, 2}));
}

}  // namespace

int main() {
  TestPercentiles();
  TestCrossing();
  TestFastestRun();
  TestReplayLatency();
  TestSelfTime();
  TestGridAccounting();
  TestHash();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d checks failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
