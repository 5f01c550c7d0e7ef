// Fig 9: scalability. Three panels:
//  (a) multi-thread speedup of Iterate() (the trivial plan's two whole-item
//      spans as item-range tasks on the sampler's own pool), the median of
//      kReps runs per thread count with their min/max, each run checked
//      bit-identical to the 1-thread run; on a single-core CI box the curve
//      is flat — the harness still runs;
//  (b) multi-thread speedup of the parallel grid-sweep executor (wavefront
//      block scheduling over an 8×8 SweepPlan, per-worker scratch and ck
//      deltas), checked bit-identical against the serial Iterate() run;
//  (c) convergence + throughput on the largest feasible ClueWeb-shaped
//      corpus, trained through the grid executor (TrainOptions::
//      grid_execution).
// The multi-machine speedup is measured over real worker processes by
// bench/dist_transport (BENCH_dist_transport.json).
// Measured rows are also written to BENCH_fig9.json (machine readable) so
// the perf trajectory is tracked across commits.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel_executor.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "dist/partitioner.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  double scale = 0.002;
  int64_t k = 200;
  int64_t iterations = 10;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "corpus scale")
      .Int("k", &k, "topics")
      .Int("iters", &iterations, "iterations per measurement");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "Fig 9: scalability (threads, large-scale run)",
      "Fig 9 — thread speedup (Iterate + grid executor), ClueWeb "
      "convergence and throughput");

  char dataset[64];
  std::snprintf(dataset, sizeof(dataset), "synthetic-nytimes scale=%g", scale);
  warplda::bench::BenchJson json("fig9", dataset);

  // (a) threads, Iterate() on the sampler's pool. Runs are interleaved
  // across thread counts (rep-major), so a host slowdown lands on every
  // series rather than on one.
  {
    constexpr int kReps = 5;
    const uint32_t kThreads[] = {1u, 2u, 4u, 8u};
    warplda::Corpus corpus =
        warplda::bench::MakeShapedCorpus("nytimes", scale);
    std::printf("\n(a) Iterate() thread scaling on %s, K=%lld, median of %d "
                "runs (host has %u cores)\n",
                warplda::DescribeCorpus(corpus).c_str(),
                static_cast<long long>(k), kReps,
                std::thread::hardware_concurrency());
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = 2;
    std::vector<std::vector<double>> mtoks(std::size(kThreads));
    std::vector<warplda::TopicId> expected;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t t = 0; t < std::size(kThreads); ++t) {
        warplda::WarpLdaOptions options;
        options.num_threads = kThreads[t];
        warplda::WarpLdaSampler sampler(options);
        sampler.Init(corpus, config);
        sampler.Iterate();  // warm-up
        warplda::Stopwatch watch;
        for (int64_t i = 0; i < iterations; ++i) sampler.Iterate();
        const double seconds = watch.Seconds();
        mtoks[t].push_back(corpus.num_tokens() * iterations / seconds / 1e6);
        if (expected.empty()) expected = sampler.Assignments();
        identical = identical && sampler.Assignments() == expected;
      }
    }
    double base = 0.0;
    for (size_t t = 0; t < std::size(kThreads); ++t) {
      std::vector<double>& runs = mtoks[t];
      std::sort(runs.begin(), runs.end());
      const double median = runs[runs.size() / 2];
      if (t == 0) base = median;
      std::printf("  threads %2u  %8.2f Mtok/s (min %.2f, max %.2f)  "
                  "speedup %.2fx\n",
                  kThreads[t], median, runs.front(), runs.back(),
                  median / base);
      json.AddRow()
          .Str("panel", "iterate")
          .Int("threads", kThreads[t])
          .Int("reps", kReps)
          .Num("tokens_per_sec", median * 1e6)
          .Num("tokens_per_sec_min", runs.front() * 1e6)
          .Num("tokens_per_sec_max", runs.back() * 1e6)
          .Num("speedup", median / base);
    }
    std::printf("  every run bit-identical to the 1-thread run: %s\n",
                identical ? "yes" : "NO (BUG)");
    std::fflush(stdout);
    if (!identical) return 1;
  }

  // (b) threads, grid-sweep executor (wavefront over an 8×8 plan).
  {
    warplda::Corpus corpus =
        warplda::bench::MakeShapedCorpus("nytimes", scale);
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = 2;
    warplda::SweepPlan plan = warplda::MakeSweepPlan(
        corpus, 8, 8, warplda::PartitionStrategy::kGreedy);
    std::printf("\n(b) grid-executor thread scaling, 8x8 plan, same corpus\n");

    // Serial reference trajectory: the determinism oracle for every thread
    // count below (grid execution must reproduce Iterate() exactly).
    warplda::WarpLdaSampler reference;
    reference.Init(corpus, config);
    for (int64_t i = 0; i < iterations + 1; ++i) reference.Iterate();
    const std::vector<warplda::TopicId> expected = reference.Assignments();

    double base = 0.0;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      warplda::ParallelExecutor executor(threads);
      warplda::WarpLdaSampler sampler;
      sampler.Init(corpus, config);
      executor.RunSweep(sampler, plan);  // warm-up
      warplda::Stopwatch watch;
      for (int64_t i = 0; i < iterations; ++i) {
        executor.RunSweep(sampler, plan);
      }
      double seconds = watch.Seconds();
      double throughput = corpus.num_tokens() * iterations / seconds / 1e6;
      if (threads == 1) base = seconds;
      const bool identical = sampler.Assignments() == expected;
      std::printf("  threads %2u  %8.2f Mtok/s  speedup %.2fx  "
                  "bit-identical to Iterate(): %s\n",
                  threads, throughput, base / seconds,
                  identical ? "yes" : "NO (BUG)");
      std::fflush(stdout);
      json.AddRow()
          .Str("panel", "grid-sweep")
          .Int("threads", threads)
          .Num("tokens_per_sec", throughput * 1e6)
          .Num("wall_ms", seconds * 1e3)
          .Num("speedup", base / seconds)
          .Str("bit_identical", identical ? "yes" : "no");
    }
  }

  // (c) largest feasible run, trained through the grid executor.
  {
    warplda::Corpus corpus =
        warplda::bench::MakeShapedCorpus("clueweb", scale / 500);
    const uint32_t threads =
        std::min(8u, std::max(1u, std::thread::hardware_concurrency()));
    std::printf("\n(c) ClueWeb-shaped run: %s, K=%lld, M=1, grid-executed on "
                "%u threads\n",
                warplda::DescribeCorpus(corpus).c_str(),
                static_cast<long long>(k), threads);
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = 1;
    warplda::WarpLdaSampler sampler;
    warplda::TrainOptions options;
    options.iterations = static_cast<uint32_t>(4 * iterations);
    options.eval_every = static_cast<uint32_t>(iterations);
    options.grid_execution = true;
    options.sweep_plan = warplda::MakeSweepPlan(corpus, 8, 8);
    options.sweep_threads = threads;
    warplda::TrainResult result = Train(sampler, corpus, config, options);
    for (const auto& stat : result.history) {
      std::printf("  iter %3u  t %7.2fs  ll %.6g  %.2fM tok/s\n",
                  stat.iteration, stat.seconds, stat.log_likelihood,
                  stat.tokens_per_second / 1e6);
      json.AddRow()
          .Str("panel", "clueweb-grid-train")
          .Int("threads", threads)
          .Int("iteration", stat.iteration)
          .Num("tokens_per_sec", stat.tokens_per_second)
          .Num("wall_ms", stat.seconds * 1e3)
          .Num("log_likelihood", stat.log_likelihood);
    }
  }

  json.Write("BENCH_fig9.json");
  std::printf(
      "\nPaper: 17x speedup on 24 cores, 13.5x on 16 machines, 11G tok/s on\n"
      "256 machines with K=1e6. The harness reproduces the curves' shape at\n"
      "the hardware available (thread speedup is bounded by physical cores).\n");
  return 0;
}
