// nytimes-iterate and pubmed-grid8: Train() from a fresh Init until the
// per-token log likelihood crosses a fixed target, repeated for the run's
// seconds; the trained model is published and served between trainings.
// Parameters (perfbench/workloads.json): scale, k, sweeps, eval_every,
// ll_target, threads, rate_qps, and for pubmed-grid8 blocks.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_executor.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "dist/partitioner.h"
#include "serve_load.h"
#include "stats.h"
#include "traced_sampler.h"
#include "workloads.h"

namespace perfbench {

using warplda::Corpus;
using warplda::LdaConfig;
using warplda::SweepPlan;
using warplda::TrainOptions;
using warplda::TrainResult;
using warplda::WarpLdaOptions;
using warplda::WarpLdaSampler;

namespace {

struct TrainSpec {
  warplda::SyntheticConfig shape;
  uint32_t k = 0;
  uint32_t sweeps = 0;      ///< sweep budget of one training
  /// LL evaluation cadence of the timed trainings; time_to_ll_s
  /// interpolates between evaluations. The traced run evaluates after
  /// every sweep, for sampler.iters_to_ll.
  uint32_t eval_every = 1;
  double ll_target = 0.0;   ///< per-token joint log likelihood
  bool grid = false;        ///< Train(grid_execution) over blocks × blocks
  uint32_t blocks = 1;
  uint32_t threads = 0;
  double rate_qps = 0.0;    ///< offered rate serving the trained model
};

TrainSpec CommonSpec(const Params& p) {
  TrainSpec s;
  s.k = p.GetUint("k");
  s.sweeps = p.GetUint("sweeps");
  s.eval_every = p.GetUint("eval_every");
  s.ll_target = p.Get("ll_target");
  s.threads = p.GetUint("threads");
  s.rate_qps = p.Get("rate_qps");
  return s;
}

TrainSpec NytimesSpec(const Params& p) {
  TrainSpec s = CommonSpec(p);
  s.shape = warplda::NYTimesShape(p.Get("scale"));
  return s;
}

TrainSpec PubmedSpec(const Params& p) {
  TrainSpec s = CommonSpec(p);
  s.shape = warplda::PubMedShape(p.Get("scale"));
  s.grid = true;
  s.blocks = p.GetUint("blocks");
  return s;
}

struct SetupTimes {
  double generate_s = 0.0;
  double init_s = 0.0;
  double total_s = 0.0;
};

// Everything before the first timed sweep: corpus generation, Init, the
// sweep plan and the executor. Repeated; the last corpus/plan are kept.
SetupTimes SetupOnce(const TrainSpec& spec, uint64_t seed, Corpus* corpus,
                     SweepPlan* plan) {
  SetupTimes t;
  const int64_t t0 = NowNs();
  *corpus = MakeCorpus(spec.shape, seed);
  const int64_t t1 = NowNs();
  WarpLdaSampler sampler(
      WarpLdaOptions{.num_threads = spec.grid ? 1u : spec.threads});
  sampler.Init(*corpus, MakeLdaConfig(spec.k, seed));
  const int64_t t2 = NowNs();
  if (spec.grid) {
    *plan = warplda::MakeSweepPlan(*corpus, spec.blocks, spec.blocks);
    warplda::ParallelExecutor executor(spec.threads);
  }
  const int64_t t3 = NowNs();
  t.generate_s = (t1 - t0) * 1e-9;
  t.init_s = (t2 - t1) * 1e-9;
  t.total_s = (t3 - t0) * 1e-9;
  return t;
}

struct TrainRep {
  TrainResult result;
  std::vector<LlPoint> trace;
  std::vector<double> sweep_s;  ///< per evaluation interval
  std::vector<double> ll;       ///< joint LL at each evaluation
  double iters_to_ll = 0.0;
  bool reached = false;
};

TrainOptions Options(const TrainSpec& spec, const SweepPlan& plan,
                     uint32_t eval_every) {
  TrainOptions o;
  o.iterations = spec.sweeps;
  o.eval_every = eval_every;
  o.grid_execution = spec.grid;
  o.sweep_plan = plan;
  o.sweep_threads = spec.threads;
  return o;
}

TrainRep TrainOnce(const TrainSpec& spec, warplda::Sampler& sampler,
                   const Corpus& corpus, const LdaConfig& config,
                   const SweepPlan& plan, uint32_t eval_every,
                   const warplda::TrainCallback& callback = nullptr) {
  TrainRep rep;
  rep.result = warplda::Train(sampler, corpus, config,
                              Options(spec, plan, eval_every), callback);
  double previous = 0.0;
  for (const auto& h : rep.result.history) {
    rep.trace.push_back(LlPoint{static_cast<double>(h.iteration), h.seconds,
                                h.log_likelihood});
    rep.sweep_s.push_back(h.seconds - previous);
    rep.ll.push_back(h.log_likelihood);
    previous = h.seconds;
  }
  const double level =
      spec.ll_target * static_cast<double>(corpus.num_tokens());
  double seconds = 0.0;
  rep.reached = CrossingPoint(rep.trace, level, &rep.iters_to_ll, &seconds);
  return rep;
}

void CheckRep(const TrainSpec& spec, const WarpLdaSampler& sampler,
              const TrainRep& rep, Report& report) {
  report.Attempt(CountsMatchAssignments(sampler.topic_counts(),
                                        rep.result.assignments, spec.k),
                 "topic_counts() differs from the histogram of Assignments()",
                 true);
  report.Attempt(rep.reached,
                 "LL target " + std::to_string(spec.ll_target) +
                     "/token not reached in " + std::to_string(spec.sweeps) +
                     " sweeps",
                 true);
}

// Per-layer sweep metrics from the traced run's spans.
void ReportSweepLayers(const TrainSpec& spec, const std::vector<FlatSpan>& spans,
                       Report& report) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  const char* sweep_name = spec.grid ? "sweep" : "sampler.iterate";
  std::vector<double> sweep_s;
  double wall = 0, barrier = 0, stage = 0, busy = 0;
  std::vector<double> block_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    const FlatSpan& s = spans[i];
    if (s.name == sweep_name) {
      sweep_s.push_back(s.seconds());
      wall += s.seconds();
    } else if (s.name.rfind("barrier.", 0) == 0) {
      barrier += self[i] * 1e-9;
    } else if (s.name == "stage") {
      stage += s.seconds();
    } else if (s.name == "block") {
      block_us.push_back(s.seconds() * 1e6);
      busy += s.seconds();
    }
  }
  const double median = Median(sweep_s);
  report.Set("sampler.sweep_s_p50", median);
  report.Set("sampler.first_sweep_extra_s",
             sweep_s.empty() ? 0.0 : sweep_s.front() - median);
  if (!spec.grid) return;
  const double n = static_cast<double>(sweep_s.size());
  report.Set("sampler.block_calls_per_sweep", block_us.size() / n);
  report.Set("sampler.block_busy_s", busy / n);
  report.Set("sampler.block_us_p50", NearestRank(block_us, 0.50));
  report.Set("sampler.block_us_p99", NearestRank(block_us, 0.99));
  report.Set("sampler.barrier_s", barrier / n);
  report.Set("sampler.barrier_share", barrier / wall);
  report.Set("executor.stage_s", stage / n);
  report.Set("executor.idle_share", 1.0 - busy / (spec.threads * stage));
  const double gap = AccountingGap(barrier, stage, wall);
  report.Note("grid accounting: barrier " + std::to_string(barrier) +
              " s + stage " + std::to_string(stage) + " s vs sweep wall " +
              std::to_string(wall) + " s (gap " + std::to_string(gap) + ")");
  report.Attempt(gap <= 0.05,
                 "barrier + stage time misses the sweep wall time by " +
                     std::to_string(gap * 100) + "%",
                 true);
}

void RunTraining(const TrainSpec& spec, const Args& args, Report& report) {
  const LdaConfig config = MakeLdaConfig(spec.k, args.seed);
  Corpus corpus;
  SweepPlan plan;
  std::vector<double> setup_s, generate_s, init_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SetupTimes t = SetupOnce(spec, args.seed, &corpus, &plan);
    setup_s.push_back(t.total_s);
    generate_s.push_back(t.generate_s);
    init_s.push_back(t.init_s);
  }
  report.Note("corpus " + warplda::DescribeCorpus(corpus) + ", K=" +
              std::to_string(spec.k));
  const WarpLdaOptions sampler_options{
      .num_threads = spec.grid ? 1u : spec.threads};

  if (!args.trace) {
    report.Set("setup_s", Median(setup_s));
    std::vector<std::vector<double>> sweep_s;
    std::vector<double> ll;
    uint64_t first_hash = 0;
    std::unique_ptr<FinalModelServing> serving;
    std::string each;
    // Rounds: a training from a fresh Init, then one serving round of the
    // model it trained (the same model every time: the hash check below).
    double round_s = 0.0;
    for (int round = 0; KeepMeasuring(args, round, round_s); ++round) {
      const int64_t round_start = NowNs();
      WarpLdaSampler sampler(sampler_options);
      TrainRep rep =
          TrainOnce(spec, sampler, corpus, config, plan, spec.eval_every);
      CheckRep(spec, sampler, rep, report);
      const uint64_t h = HashAssignments(rep.result.assignments);
      if (round == 0) {
        first_hash = h;
        ll = rep.ll;
        report.Note(LlTrajectoryNote(rep.trace, corpus.num_tokens()));
        serving = std::make_unique<FinalModelServing>(
            std::make_shared<const warplda::TopicModel>(
                rep.result.ToModel(corpus, config)),
            corpus, spec.rate_qps, args.seed);
      }
      report.Attempt(h == first_hash,
                     "repeated training from the same seed diverged", true);
      each += " " + std::to_string(rep.trace.back().seconds);
      sweep_s.push_back(std::move(rep.sweep_s));
      serving->session().Round(report);
      round_s = (NowNs() - round_start) * 1e-9;
    }
    report.Note(std::to_string(sweep_s.size()) + " rounds; trainings of " +
                std::to_string(spec.sweeps) + " sweeps, sampling s:" + each);
    // Per-interval minima across the trainings (same seed, same trajectory,
    // same work per interval): time stolen by the host only ever adds.
    const std::vector<LlPoint> fastest =
        FastestRunTrace(sweep_s, ll, spec.eval_every);
    const double sampling_s = fastest.back().seconds;
    report.Set("tokens_per_s",
               static_cast<double>(corpus.num_tokens()) * spec.sweeps /
                   sampling_s);
    double iters = 0.0;
    double ttl = 0.0;
    const bool reached = CrossingPoint(
        fastest, spec.ll_target * static_cast<double>(corpus.num_tokens()),
        &iters, &ttl);
    report.Set("time_to_ll_s", reached ? ttl : kBeyondLimit);
    serving->ReportEndToEnd(report);
    return;
  }

  // ---- traced run: one untraced training, one through the wrapper, and
  // one with the library's hot-path metrics on for the acceptance ratio
  // (kept apart, so neither timed training pays for the metrics).
  report.Set("corpus.generate_s", Median(generate_s));
  report.Set("sampler.init_s", Median(init_s));
  WarpLdaSampler plain(sampler_options);
  TrainRep untraced = TrainOnce(spec, plain, corpus, config, plan, 1);
  CheckRep(spec, plain, untraced, report);

  Tracer tracer(2 + spec.threads);
  WarpLdaSampler inner(sampler_options);
  TracedWarpLda traced_sampler(inner, tracer);
  std::vector<double> eval_s;
  TrainRep traced = TrainOnce(spec, traced_sampler, corpus, config, plan, 1,
                              [&](const warplda::IterationStat&) {
                                eval_s.push_back(
                                    traced_sampler.EndEvaluation());
                              });
  CheckRep(spec, inner, traced, report);
  report.Attempt(HashAssignments(traced.result.assignments) ==
                     HashAssignments(untraced.result.assignments),
                 "traced and untraced runs ended with different assignments",
                 true);
  WarpLdaSampler counted(sampler_options);
  report.Set("sampler.mh_accept_ratio", MhAcceptRatio([&] {
               TrainOnce(spec, counted, corpus, config, plan, 1);
             }));
  report.Set("sampler.iters_to_ll", traced.iters_to_ll);
  report.Set("eval.ll_s_p50", Median(eval_s));
  // Per-sweep throughput T / median sweep, traced against untraced.
  report.Set("trace.overhead_pct",
             100.0 * (1.0 - Median(untraced.sweep_s) / Median(traced.sweep_s)));

  FinalModelServing(std::make_shared<const warplda::TopicModel>(
                        traced.result.ToModel(corpus, config)),
                    corpus, spec.rate_qps, args.seed)
      .ReportLayers(report, &tracer.track(tracer.num_tracks() - 1));
  const std::vector<FlatSpan> spans = tracer.Collect();
  ReportSweepLayers(spec, spans, report);
  const std::string path = TracePath(args);
  report.Attempt(WriteChromeTrace(spans, path), "cannot write " + path, true);
  report.Note("chrome trace: " + path);
}

}  // namespace

void RunNytimesIterate(const Args& args, Report& report) {
  RunTraining(NytimesSpec(args.params), args, report);
}

void RunPubmedGrid8(const Args& args, Report& report) {
  RunTraining(PubmedSpec(args.params), args, report);
}

}  // namespace perfbench
