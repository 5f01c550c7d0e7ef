// dist-2w: RunDistributedSweeps with forked workers over AF_UNIX (the
// default DistConfig channel options) on a NYTimes-shaped corpus; shape,
// K, plan and worker count are parameters (perfbench/workloads.json). A failed run (ok == false) counts in `failed`; it is never
// retried away. The LL trajectory is read from an in-process Iterate() run
// of the same sweeps, which the output check proves bit-identical to the
// distributed one, so time_to_ll_s interpolates the distributed run's
// cumulative sweep seconds at the reference's crossing point.
#include <memory>
#include <string>
#include <vector>

#include "core/warp_lda.h"
#include "dist/dist_executor.h"
#include "dist/partitioner.h"
#include "eval/log_likelihood.h"
#include "serve_load.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using warplda::Corpus;
using warplda::WarpLdaOptions;
using warplda::WarpLdaSampler;

namespace {

struct DistWorkload {
  double scale = 0.0;  ///< NYTimes shape scale
  uint32_t k = 0;
  uint32_t blocks = 0;   ///< blocks × blocks plan
  uint32_t workers = 0;  ///< forked worker processes
  uint32_t sweeps = 0;
  double ll_target = 0.0;  ///< per token
  double rate_qps = 0.0;   ///< offered rate serving the final model

  explicit DistWorkload(const Params& p)
      : scale(p.Get("scale")),
        k(p.GetUint("k")),
        blocks(p.GetUint("blocks")),
        workers(p.GetUint("workers")),
        sweeps(p.GetUint("sweeps")),
        ll_target(p.Get("ll_target")),
        rate_qps(p.Get("rate_qps")) {}
};

struct Reference {
  std::vector<double> ll;  ///< joint LL after each sweep
  double iters_to_ll = 0.0;
  bool reached = false;
  uint64_t hash = 0;
  std::vector<double> eval_s;
  std::string trajectory;
  /// The final model. Every distributed run ends bit-identical to this
  /// run (checked), so it is also the model those runs would serve.
  std::shared_ptr<const warplda::TopicModel> model;
};

// In-process run of the same sweeps: the bit-identity oracle and the LL
// trajectory. Runs before the timed region.
Reference RunReference(const DistWorkload& wl, const Corpus& corpus,
                       const warplda::LdaConfig& config,
                       SpanBuffer* trace_spans) {
  Reference ref;
  WarpLdaSampler sampler(WarpLdaOptions{.num_threads = 4});
  sampler.Init(corpus, config);
  std::vector<LlPoint> trace;
  for (uint32_t i = 1; i <= wl.sweeps; ++i) {
    sampler.Iterate();
    const int64_t t0 = NowNs();
    trace.push_back({static_cast<double>(i), static_cast<double>(i),
                     warplda::JointLogLikelihood(corpus, sampler.Assignments(),
                                                 config.num_topics,
                                                 config.alpha, config.beta)});
    const int64_t t1 = NowNs();
    ref.eval_s.push_back((t1 - t0) * 1e-9);
    if (trace_spans != nullptr) {
      trace_spans->End(trace_spans->Begin("eval.joint_ll", t0, kNoSpan), t1);
    }
  }
  for (const LlPoint& p : trace) ref.ll.push_back(p.ll);
  ref.trajectory = LlTrajectoryNote(trace, corpus.num_tokens());
  double seconds_unused = 0.0;
  ref.reached = CrossingPoint(
      trace, wl.ll_target * static_cast<double>(corpus.num_tokens()),
      &ref.iters_to_ll, &seconds_unused);
  ref.hash = HashAssignments(sampler.Assignments());
  ref.model = sampler.ExportSharedModel();
  return ref;
}

struct DistRep {
  warplda::DistResult result;
  double spawn_s = 0.0;
};

DistRep RunOnce(const DistWorkload& wl, const Corpus& corpus, const warplda::LdaConfig& config,
                const warplda::SweepPlan& plan, const Reference& ref,
                SpanBuffer* trace, Report& report) {
  DistRep rep;
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  warplda::DistConfig dc;
  dc.num_workers = wl.workers;
  dc.iterations = wl.sweeps;
  const int64_t t0 = NowNs();
  const SpanId run =
      trace != nullptr ? trace->Begin("dist.run_distributed_sweeps") : kNoSpan;
  dc.on_workers_spawned = [&](const std::vector<int>&) {
    const int64_t now = NowNs();
    rep.spawn_s = (now - t0) * 1e-9;
    if (trace != nullptr) trace->End(trace->Begin("dist.spawn", t0, run), now);
  };
  rep.result = warplda::RunDistributedSweeps(sampler, corpus, plan, dc);
  if (trace != nullptr) trace->End(run);
  const warplda::DistResult& r = rep.result;
  report.Attempt(r.ok, "distributed run failed: " + r.error, false);
  if (!r.ok) return rep;
  report.Attempt(r.iterations_completed == wl.sweeps &&
                     HashAssignments(sampler.Assignments()) == ref.hash,
                 "distributed assignments differ from in-process Iterate()",
                 true);
  report.Attempt(CountsMatchAssignments(sampler.topic_counts(),
                                        sampler.Assignments(), wl.k),
                 "topic_counts() differs from the histogram of Assignments()",
                 true);
  return rep;
}

}  // namespace

void RunDist2w(const Args& args, Report& report) {
  const DistWorkload wl(args.params);
  const warplda::LdaConfig config = MakeLdaConfig(wl.k, args.seed);
  Corpus corpus;
  warplda::SweepPlan plan;
  std::vector<double> prep_s, generate_s, init_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t t0 = NowNs();
    corpus = MakeCorpus(warplda::NYTimesShape(wl.scale), args.seed);
    const int64_t t1 = NowNs();
    WarpLdaSampler sampler;
    sampler.Init(corpus, config);
    const int64_t t2 = NowNs();
    plan = warplda::MakeSweepPlan(corpus, wl.blocks, wl.blocks);
    const int64_t t3 = NowNs();
    generate_s.push_back((t1 - t0) * 1e-9);
    init_s.push_back((t2 - t1) * 1e-9);
    prep_s.push_back((t3 - t0) * 1e-9);
  }
  report.Note("corpus " + warplda::DescribeCorpus(corpus) + ", K=" +
              std::to_string(wl.k));
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(2);
  const Reference ref =
      RunReference(wl, corpus, config, args.trace ? &tracer->track(0) : nullptr);
  report.Note(ref.trajectory);
  report.Attempt(ref.reached, "LL target not reached in the sweep budget",
                 true);

  std::vector<DistRep> reps;
  std::unique_ptr<FinalModelServing> serving;
  if (args.trace) {
    // One untraced and one traced distributed run.
    reps.push_back(RunOnce(wl, corpus, config, plan, ref, nullptr, report));
    reps.push_back(
        RunOnce(wl, corpus, config, plan, ref, &tracer->track(0), report));
  } else {
    // Rounds: a distributed run, then one serving round of the final model
    // (every run ends bit-identical to the reference, so it is the model
    // each of them trained).
    serving = std::make_unique<FinalModelServing>(ref.model, corpus,
                                                  wl.rate_qps, args.seed);
    double round_s = 0.0;
    for (int round = 0; KeepMeasuring(args, round, round_s); ++round) {
      const int64_t round_start = NowNs();
      reps.push_back(RunOnce(wl, corpus, config, plan, ref, nullptr, report));
      serving->session().Round(report);
      round_s = (NowNs() - round_start) * 1e-9;
    }
  }
  std::vector<std::vector<double>> runs_sweep_s;
  std::vector<double> spawn, sweep_s;
  // Transport totals over the successful runs: coordinator plus worker
  // channel ends, each byte and frame counted once, by its sender.
  double sweeps = 0, bytes = 0, frames = 0, retransmits = 0, recoveries = 0;
  for (const DistRep& rep : reps) {
    const warplda::DistResult& r = rep.result;
    if (!r.ok) continue;
    runs_sweep_s.push_back(r.sweep_seconds);
    spawn.push_back(rep.spawn_s);
    sweep_s.insert(sweep_s.end(), r.sweep_seconds.begin(),
                   r.sweep_seconds.end());
    sweeps += r.iterations_completed;
    bytes += r.coordinator_stats.bytes_sent + r.worker_stats.bytes_sent;
    frames += r.coordinator_stats.frames_sent + r.worker_stats.frames_sent;
    retransmits +=
        r.coordinator_stats.retransmits + r.worker_stats.retransmits;
    recoveries += r.recoveries;
  }
  report.Note(std::to_string(reps.size()) + " distributed runs of " +
              std::to_string(wl.sweeps) + " sweeps, " +
              std::to_string(runs_sweep_s.size()) + " ok");

  if (!args.trace) {
    report.Set("setup_s", Median(prep_s) + Median(spawn));
    // Per-sweep minima across the runs (all bit-identical to the
    // reference, so they share its LL trajectory and its work per sweep):
    // time stolen by the host, or a retransmit stall, only adds to a sweep.
    const std::vector<LlPoint> fastest = FastestRunTrace(runs_sweep_s, ref.ll);
    double iters = 0.0;
    double ttl = kBeyondLimit;
    if (fastest.size() == wl.sweeps) {
      report.Set("tokens_per_s",
                 static_cast<double>(corpus.num_tokens()) * wl.sweeps /
                     fastest.back().seconds);
      CrossingPoint(fastest,
                    wl.ll_target * static_cast<double>(corpus.num_tokens()),
                    &iters, &ttl);
    }
    report.Set("time_to_ll_s", ttl);
    serving->ReportEndToEnd(report);
    return;
  }

  report.Set("corpus.generate_s", Median(generate_s));
  report.Set("sampler.init_s", Median(init_s));
  report.Set("sampler.iters_to_ll", ref.iters_to_ll);
  report.Set("eval.ll_s_p50", Median(ref.eval_s));
  report.Set("dist.spawn_s", Median(spawn));
  report.Set("dist.sweep_s_p50", Median(sweep_s));
  if (sweeps > 0) {
    report.Set("dist.bytes_per_sweep", bytes / sweeps);
    report.Set("dist.frames_per_sweep", frames / sweeps);
    report.Set("dist.retransmits_per_sweep", retransmits / sweeps);
    report.Set("dist.recoveries", recoveries);
  }
  if (reps.size() == 2 && reps[0].result.ok && reps[1].result.ok) {
    const double untraced = Median(reps[0].result.sweep_seconds);
    const double traced = Median(reps[1].result.sweep_seconds);
    report.Set("trace.overhead_pct", 100.0 * (traced - untraced) / traced);
  }
  FinalModelServing(ref.model, corpus, wl.rate_qps, args.seed)
      .ReportLayers(report, &tracer->track(1));
  const std::vector<FlatSpan> spans = tracer->Collect();
  const std::string path = TracePath(args);
  report.Attempt(WriteChromeTrace(spans, path), "cannot write " + path, true);
  report.Note("chrome trace: " + path);
}

}  // namespace perfbench
