// Distributed transport: real multi-process sweeps per worker count.
// Sweeps the worker count over the fork + socket executor (src/dist/
// dist_executor.h) and reports the measured speedup over 1 worker and over
// one in-process Iterate() thread. Every run is checked bit-identical to
// single-process Iterate() — a distributed result that is fast but
// different counts for nothing — and the bench exits non-zero otherwise.
//
// It also prints where each process's time goes (DistResult's phases, in
// seconds per sweep). On a 4-vCPU Xeon at the dist-2w shape (--scale 0.003
// --k 200 --iters 10, the committed BENCH_dist_transport.json), 2 and 4
// workers measure 1.26x and 1.20x over 1 worker and run at 0.97x and 0.92x
// of one in-process Iterate() thread (0.082 s per sweep). At 4 workers
// (0.089 s per sweep) a worker computes its blocks for 0.033 s, under
// half of the 1-worker 0.087 s, but spends 0.029 s applying peers' deltas
// and running EndStage on its full replica, more than the 0.015 s barrier
// alone at 1 worker, and 0.022 s waiting for the deltas the coordinator
// relays (its relay sends take 0.032 s per sweep).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/warp_lda.h"
#include "dist/dist_executor.h"
#include "dist/partitioner.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  double scale = 0.002;
  int64_t k = 64;
  int64_t iterations = 3;
  int64_t grid = 4;
  int64_t max_workers = 4;
  // Runs per worker count: the median run is reported, with the spread of
  // all five.
  constexpr int64_t kReps = 5;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "corpus scale vs the paper's NYTimes")
      .Int("k", &k, "number of topics")
      .Int("iters", &iterations, "sweeps per worker count")
      .Int("grid", &grid, "doc/word blocks per axis of the sweep plan")
      .Int("workers", &max_workers, "largest worker count (doubling from 1)");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "Distributed transport: real fork+socket sweeps per worker count",
      "paper §5.3.2 multi-machine schedule over src/dist/ transport");

  warplda::Corpus corpus = warplda::bench::MakeShapedCorpus("nytimes", scale);
  warplda::LdaConfig config =
      warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
  config.seed = 20160903;
  const warplda::SweepPlan plan =
      warplda::MakeSweepPlan(corpus, static_cast<uint32_t>(grid),
                             static_cast<uint32_t>(grid),
                             warplda::PartitionStrategy::kGreedy);
  std::printf("corpus: %s, K=%lld, %lldx%lld grid, %lld sweeps per point\n",
              warplda::DescribeCorpus(corpus).c_str(),
              static_cast<long long>(k), static_cast<long long>(grid),
              static_cast<long long>(grid),
              static_cast<long long>(iterations));

  // Reference: the uninterrupted single-process run every distributed
  // result must reproduce bit-for-bit. Its median time over kReps runs is
  // the one-process bar a distributed run has to beat.
  warplda::WarpLdaSampler reference;
  std::vector<double> iterate_runs;
  for (int64_t r = 0; r < kReps; ++r) {
    reference = warplda::WarpLdaSampler();
    reference.Init(corpus, config);
    const warplda::Stopwatch watch;
    for (int64_t i = 0; i < iterations; ++i) reference.Iterate();
    iterate_runs.push_back(watch.Seconds() / static_cast<double>(iterations));
  }
  std::sort(iterate_runs.begin(), iterate_runs.end());
  const double iterate_per_sweep = iterate_runs[iterate_runs.size() / 2];
  std::printf("in-process Iterate() (1 thread): %.4f s per sweep\n",
              iterate_per_sweep);

  warplda::bench::BenchJson json(
      "dist_transport", "synthetic-nytimes scale=" + std::to_string(scale));
  json.header()
      .Int("k", k)
      .Int("iterations", iterations)
      .Int("grid", grid)
      .Num("iterate_seconds_per_sweep", iterate_per_sweep)
      .Str("transport", "AF_UNIX socketpair, frame protocol v2");

  std::printf("\n%8s %12s %12s %12s %10s %8s\n", "workers", "sweep_s",
              "measured_x", "vs_iterate", "retrans", "ident");
  double base_seconds = 0.0;
  bool all_identical = true;
  std::vector<std::string> breakdown;
  for (int64_t w = 1; w <= max_workers; w *= 2) {
    // Each run: (seconds per sweep, result); every run must be identical.
    std::vector<std::pair<double, warplda::DistResult>> runs;
    bool identical = true;
    for (int64_t r = 0; r < kReps; ++r) {
      warplda::WarpLdaSampler sampler;
      sampler.Init(corpus, config);
      warplda::DistConfig dist;
      dist.num_workers = static_cast<uint32_t>(w);
      dist.iterations = static_cast<uint32_t>(iterations);
      warplda::DistResult run =
          RunDistributedSweeps(sampler, corpus, plan, dist);
      if (!run.ok) {
        std::fprintf(stderr, "dist run failed at %lld workers: %s\n",
                     static_cast<long long>(w), run.error.c_str());
        return 1;
      }
      identical =
          identical && sampler.Assignments() == reference.Assignments();
      double total = 0.0;
      for (double s : run.sweep_seconds) total += s;
      runs.emplace_back(total / static_cast<double>(iterations),
                        std::move(run));
    }
    std::sort(runs.begin(), runs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const double per_sweep = runs[runs.size() / 2].first;
    const warplda::DistResult& result = runs[runs.size() / 2].second;
    if (w == 1) base_seconds = per_sweep;
    const double measured = base_seconds / per_sweep;
    const double vs_iterate = iterate_per_sweep / per_sweep;

    all_identical = all_identical && identical;
    const uint64_t retransmits = result.coordinator_stats.retransmits +
                                 result.worker_stats.retransmits;
    std::printf("%8lld %12.4f %11.2fx %11.2fx %10llu %8s\n",
                static_cast<long long>(w), per_sweep, measured, vs_iterate,
                static_cast<unsigned long long>(retransmits),
                identical ? "yes" : "NO");

    // Per-process breakdown, seconds per sweep: the coordinator's phases
    // and the mean over workers of theirs.
    const double n = static_cast<double>(iterations);
    const warplda::DistResult::CoordinatorPhases& cp =
        result.coordinator_phases;
    warplda::DistResult::WorkerPhases wp;
    for (const warplda::DistResult::WorkerPhases& p : result.worker_phases) {
      const double share = 1.0 / static_cast<double>(w);
      wp.compute_s += p.compute_s * share;
      wp.send_s += p.send_s * share;
      wp.apply_s += p.apply_s * share;
      wp.wait_s += p.wait_s * share;
      wp.barrier_s += p.barrier_s * share;
      wp.loop_s += p.loop_s * share;
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%8lld %8.4f %8.4f %8.4f %8.4f %8.4f | %8.4f %8.4f %8.4f "
                  "%8.4f %8.4f",
                  static_cast<long long>(w), cp.pump_s / n, cp.relay_s / n,
                  cp.wait_s / n, cp.barrier_s / n, cp.capture_s / n,
                  wp.compute_s / n, wp.send_s / n, wp.apply_s / n,
                  wp.wait_s / n, wp.barrier_s / n);
    breakdown.push_back(line);

    json.AddRow()
        .Int("workers", w)
        .Int("reps", kReps)
        .Num("seconds_per_sweep", per_sweep)
        .Num("seconds_per_sweep_min", runs.front().first)
        .Num("seconds_per_sweep_max", runs.back().first)
        .Num("measured_speedup", measured)
        .Num("speedup_vs_iterate", vs_iterate)
        .Int("retransmits", static_cast<int64_t>(retransmits))
        .Int("frames_sent",
             static_cast<int64_t>(result.coordinator_stats.frames_sent +
                                  result.worker_stats.frames_sent))
        .Str("bit_identical", identical ? "yes" : "no")
        .Num("coord_pump_s_per_sweep", cp.pump_s / n)
        .Num("coord_relay_s_per_sweep", cp.relay_s / n)
        .Num("coord_wait_s_per_sweep", cp.wait_s / n)
        .Num("coord_barrier_s_per_sweep", cp.barrier_s / n)
        .Num("coord_capture_s_per_sweep", cp.capture_s / n)
        .Num("worker_compute_s_per_sweep", wp.compute_s / n)
        .Num("worker_send_s_per_sweep", wp.send_s / n)
        .Num("worker_apply_s_per_sweep", wp.apply_s / n)
        .Num("worker_wait_s_per_sweep", wp.wait_s / n)
        .Num("worker_barrier_s_per_sweep", wp.barrier_s / n);
  }
  json.Write("BENCH_dist_transport.json");

  std::printf("\nper-process breakdown of each median run, seconds per "
              "sweep (worker columns: mean over workers)\n");
  std::printf("%8s %8s %8s %8s %8s %8s | %8s %8s %8s %8s %8s\n", "workers",
              "c.pump", "c.relay", "c.wait", "c.barr", "c.capt", "w.comp",
              "w.send", "w.apply", "w.wait", "w.barr");
  for (const std::string& line : breakdown) std::printf("%s\n", line.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a distributed run diverged from Iterate()\n");
    return 1;
  }
  std::printf("\nall worker counts bit-identical to Iterate()\n");
  return 0;
}
