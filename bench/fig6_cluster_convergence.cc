// Fig 6: distributed convergence on the ClueWeb12 subset, WarpLDA (M=4) vs
// LightLDA (M=16). Substitution: the corpus is ClueWeb-shaped and the
// machines are W forked worker processes on one host (src/dist/), W
// capped at the host's hardware threads. Every time on the axes is
// measured, none is modeled:
//  * WarpLDA's time axis is the per-sweep wall time of a real
//    RunDistributedSweeps over a W×W plan. Its log-likelihood points come
//    from an in-process Iterate() run of the same sweeps, and the bench
//    fails unless that run's final assignments are bit-identical to the
//    distributed run's.
//  * LightLDA has no distributed path; its time axis is its own measured
//    single-process Train() time.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "baselines/light_lda.h"
#include "bench/bench_common.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "dist/dist_executor.h"
#include "dist/partitioner.h"
#include "eval/log_likelihood.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  double scale = 1e-5;
  int64_t workers = 2;
  int64_t k = 300;
  int64_t iterations = 40;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "ClueWeb12-subset scale")
      .Int("workers", &workers,
           "worker processes (capped at hardware threads)")
      .Int("k", &k, "topics (paper: 1e4)")
      .Int("iters", &iterations, "training iterations");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "Fig 6: distributed convergence, ClueWeb12 subset",
      "Fig 6 — WarpLDA(M=4) vs LightLDA(M=16), 32 machines");

  const uint32_t num_workers = static_cast<uint32_t>(std::clamp<int64_t>(
      workers, 1, std::max(1u, std::thread::hardware_concurrency())));
  warplda::Corpus corpus =
      warplda::bench::MakeShapedCorpus("clueweb", scale);
  std::printf("corpus: %s, K=%lld, %u worker processes\n\n",
              warplda::DescribeCorpus(corpus).c_str(),
              static_cast<long long>(k), num_workers);

  const uint32_t eval_every = 4;

  // WarpLDA: real distributed sweeps for the time axis, the in-process
  // run of the same sweeps for the log-likelihood axis.
  {
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = 4;
    const warplda::SweepPlan plan =
        warplda::MakeSweepPlan(corpus, num_workers, num_workers);

    warplda::WarpLdaSampler distributed;
    distributed.Init(corpus, config);
    warplda::DistConfig dist;
    dist.num_workers = num_workers;
    dist.iterations = static_cast<uint32_t>(iterations);
    const warplda::DistResult run =
        RunDistributedSweeps(distributed, corpus, plan, dist);
    if (!run.ok) {
      std::fprintf(stderr, "FAIL: distributed run: %s\n", run.error.c_str());
      return 1;
    }

    warplda::WarpLdaSampler in_process;
    in_process.Init(corpus, config);
    std::printf("WarpLDA(M=%u): %ux%u plan over %u worker processes, "
                "measured sweep wall time\n",
                config.mh_steps, num_workers, num_workers, num_workers);
    double seconds = 0.0;
    for (int64_t iter = 1; iter <= iterations; ++iter) {
      in_process.Iterate();
      seconds += run.sweep_seconds[iter - 1];
      if (iter % eval_every == 0 || iter == iterations) {
        const double ll = warplda::JointLogLikelihood(
            corpus, in_process.Assignments(), config.num_topics,
            config.alpha, config.beta);
        std::printf("  iter %3lld  time %8.3fs  ll %.6g\n",
                    static_cast<long long>(iter), seconds, ll);
        std::fflush(stdout);
      }
    }
    if (in_process.Assignments() != distributed.Assignments()) {
      std::fprintf(stderr,
                   "FAIL: distributed assignments differ from the "
                   "in-process run\n");
      return 1;
    }
    std::printf("  distributed run bit-identical to in-process Iterate(): "
                "yes\n");
  }

  // LightLDA: single-process training, its own measured time.
  {
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = 16;
    warplda::TrainOptions options;
    options.iterations = static_cast<uint32_t>(iterations);
    options.eval_every = eval_every;
    warplda::LightLdaSampler light;
    warplda::TrainResult result = Train(light, corpus, config, options);
    std::printf("\n%s(M=%u): one process, measured Train() time\n",
                light.name().c_str(), config.mh_steps);
    for (const auto& stat : result.history) {
      std::printf("  iter %3u  time %8.3fs  ll %.6g\n", stat.iteration,
                  stat.seconds, stat.log_likelihood);
    }
    std::fflush(stdout);
  }

  std::printf(
      "\nPaper's claim: WarpLDA reaches any given likelihood ~10x sooner in\n"
      "wall time than LightLDA in the 32-machine setting.\n");
  return 0;
}
