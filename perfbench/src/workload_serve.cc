// serve-publish: train-while-serve without the training CPU. Set-up trains
// a NYTimes-shaped model to the LL target and keeps the exports of its last
// sweeps; during the measurement a publisher thread cycles through them
// with ModelStore::PublishDelta at a fixed cadence while an open-loop
// paced generator drives a 2-worker InferenceServer (4 threads in all:
// generator, 2 workers, publisher).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "core/warp_lda.h"
#include "serve/model_store.h"
#include "serve/server.h"
#include "serve_load.h"
#include "stats.h"
#include "traced_sampler.h"
#include "workloads.h"

namespace perfbench {

using warplda::Corpus;
using warplda::TopicModel;
using warplda::WordId;

namespace {

struct ServeWorkload {
  double scale = 0.0;       ///< NYTimes shape scale
  uint32_t k = 0;
  uint32_t sweeps = 0;      ///< set-up training sweeps
  double ll_target = 0.0;   ///< per token
  uint32_t exports = 0;     ///< consecutive sweeps kept for the publisher
  uint32_t train_threads = 0;  ///< set-up training only
  int publish_every_ms = 0;
  double rate_qps = 0.0;

  explicit ServeWorkload(const Params& p)
      : scale(p.Get("scale")),
        k(p.GetUint("k")),
        sweeps(p.GetUint("sweeps")),
        ll_target(p.Get("ll_target")),
        exports(p.GetUint("exports")),
        train_threads(p.GetUint("train_threads")),
        publish_every_ms(static_cast<int>(p.GetUint("publish_every_ms"))),
        rate_qps(p.Get("rate_qps")) {}
};

/// What set-up leaves behind for the measurement.
struct Served {
  Corpus corpus;
  std::vector<std::shared_ptr<const TopicModel>> exports;
  /// changed[i]: words whose rows differ between exports[i-1] and
  /// exports[i] (cyclically, so the publisher can wrap around).
  std::vector<std::vector<WordId>> changed;
  std::unique_ptr<warplda::serve::ModelStore> store;
  std::unique_ptr<warplda::serve::InferenceServer> server;
  size_t current_export = 0;  ///< export the store's current version holds
  double time_to_ll_s = 0.0;
  bool reached = false;
  bool counts_ok = false;
  uint64_t final_hash = 0;  ///< of the set-up training's assignments
  double generate_s = 0.0;
  double init_s = 0.0;
  double iters_to_ll = 0.0;
  std::string trajectory;
  std::vector<double> sweep_s;  // per set-up training sweep
  std::vector<double> ll;       // joint LL after each sweep
  std::vector<double> eval_s;   // traced set-up only
};

std::unique_ptr<Served> SetUp(const ServeWorkload& wl, uint64_t seed,
                              Tracer* tracer) {
  auto s = std::make_unique<Served>();
  const int64_t t0 = NowNs();
  s->corpus = MakeCorpus(warplda::NYTimesShape(wl.scale), seed);
  const int64_t t1 = NowNs();
  s->generate_s = (t1 - t0) * 1e-9;

  const warplda::LdaConfig config = MakeLdaConfig(wl.k, seed);
  warplda::WarpLdaSampler sampler(
      warplda::WarpLdaOptions{.num_threads = wl.train_threads});
  warplda::TrainOptions options;
  options.iterations = wl.sweeps;
  options.eval_every = 1;
  std::vector<std::shared_ptr<const TopicModel>> exports;
  auto keep_export = [&](const warplda::IterationStat& stat) {
    if (stat.iteration + wl.exports <= wl.sweeps) return;
    const SpanId span =
        tracer != nullptr
            ? tracer->track(0).Begin("sampler.export_shared_model")
            : kNoSpan;
    exports.push_back(sampler.ExportSharedModel());
    if (tracer != nullptr) tracer->track(0).End(span);
  };
  warplda::TrainResult result;
  if (tracer == nullptr) {
    result = warplda::Train(sampler, s->corpus, config, options, keep_export);
  } else {
    TracedWarpLda traced(sampler, *tracer);
    result = warplda::Train(traced, s->corpus, config, options,
                            [&](const warplda::IterationStat& stat) {
                              s->eval_s.push_back(traced.EndEvaluation());
                              keep_export(stat);
                            });
    for (const FlatSpan& span : tracer->Collect()) {
      if (span.name == "sampler.init") s->init_s = span.seconds();
    }
  }
  s->counts_ok = CountsMatchAssignments(sampler.topic_counts(),
                                        result.assignments, wl.k);
  s->final_hash = HashAssignments(result.assignments);
  std::vector<LlPoint> trace;
  double previous = 0.0;
  for (const auto& h : result.history) {
    trace.push_back({static_cast<double>(h.iteration), h.seconds,
                     h.log_likelihood});
    s->sweep_s.push_back(h.seconds - previous);
    s->ll.push_back(h.log_likelihood);
    previous = h.seconds;
  }
  s->trajectory = LlTrajectoryNote(trace, s->corpus.num_tokens());
  s->reached = CrossingPoint(
      trace, wl.ll_target * static_cast<double>(s->corpus.num_tokens()),
      &s->iters_to_ll, &s->time_to_ll_s);

  s->exports = std::move(exports);
  const size_t n = s->exports.size();
  for (size_t i = 0; i < n; ++i) {
    s->changed.push_back(
        s->exports[i]->ChangedWords(*s->exports[(i + n - 1) % n]));
  }
  s->store = std::make_unique<warplda::serve::ModelStore>();
  s->store->Publish(s->exports[0]);
  warplda::serve::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  s->server = std::make_unique<warplda::serve::InferenceServer>(
      *s->store, server_options);
  return s;
}

/// Cycles PublishDelta through the exports every `every_ms` until
/// stopped; records each call's latency and which export each version is.
class Publisher {
 public:
  Publisher(Served& served, int every_ms, SpanBuffer* trace)
      : served_(served),
        every_ms_(every_ms),
        trace_(trace),
        version_export_{{served.store->version(), served.current_export}},
        thread_([this] { Loop(); }) {}
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  const std::vector<double>& publish_ms() const { return publish_ms_; }
  std::shared_ptr<const TopicModel> ModelFor(uint64_t version) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = version_export_.find(version);
    return it == version_export_.end() ? nullptr : served_.exports[it->second];
  }

 private:
  void Loop() {
    size_t next = served_.current_export + 1;
    auto due = std::chrono::steady_clock::now();
    while (!stop_.load()) {
      due += std::chrono::milliseconds(every_ms_);
      std::this_thread::sleep_until(due);
      const size_t i = next % served_.exports.size();
      const SpanId span =
          trace_ != nullptr ? trace_->Begin("store.publish_delta") : kNoSpan;
      const int64_t t0 = NowNs();
      auto snapshot =
          served_.store->PublishDelta(served_.exports[i], served_.changed[i]);
      publish_ms_.push_back((NowNs() - t0) * 1e-6);
      if (trace_ != nullptr) trace_->End(span);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        version_export_[snapshot->version()] = i;
      }
      served_.current_export = i;  // read by the next Publisher only
      ++next;
    }
  }

  Served& served_;
  int every_ms_;
  SpanBuffer* trace_;
  std::atomic<bool> stop_{false};
  std::vector<double> publish_ms_;  // publisher thread only until Stop()
  mutable std::mutex mutex_;
  std::map<uint64_t, size_t> version_export_;  // guarded by mutex_
  std::thread thread_;  // last: starts after the members it uses exist
};

void CheckSetUp(const Served& s, Report& report) {
  report.Attempt(s.counts_ok,
                 "topic_counts() differs from the histogram of Assignments()",
                 true);
  report.Attempt(s.reached, "served model did not reach the LL target", true);
}

}  // namespace

void RunServePublish(const Args& args, Report& report) {
  const ServeWorkload wl(args.params);
  if (!args.trace) {
    std::vector<double> setup_s;
    std::vector<std::vector<double>> sweep_s;
    std::unique_ptr<Served> served;
    for (int r = 0; r < kSetupRepeats; ++r) {
      served.reset();  // one set-up alive at a time
      const int64_t t0 = NowNs();
      served = SetUp(wl, args.seed, nullptr);
      setup_s.push_back((NowNs() - t0) * 1e-9);
      CheckSetUp(*served, report);
      sweep_s.push_back(served->sweep_s);
    }
    report.Note("corpus " + warplda::DescribeCorpus(served->corpus) +
                ", K=" + std::to_string(wl.k));
    report.Note(served->trajectory);
    report.Set("setup_s", Median(setup_s));
    // Per-sweep minima across the set-up trainings (same seed, same
    // trajectory): time stolen by the host only ever adds to a sweep.
    double iters = 0.0;
    double ttl = kBeyondLimit;
    CrossingPoint(FastestRunTrace(sweep_s, served->ll),
                  wl.ll_target * static_cast<double>(served->corpus.num_tokens()),
                  &iters, &ttl);
    report.Set("time_to_ll_s", ttl);
    LoadGenerator gen(served->corpus, wl.k,
                      served->server->options().inference.iterations);
    Publisher publisher(*served, wl.publish_every_ms, nullptr);
    ServingSession session(*served->server, gen, wl.rate_qps, args.seed);
    double round_s = 0.0;
    for (int round = 0; KeepMeasuring(args, round, round_s); ++round) {
      const int64_t round_start = NowNs();
      session.Round(report);
      round_s = (NowNs() - round_start) * 1e-9;
    }
    publisher.Stop();
    const ServeOutcome out = session.Finish(
        [&](uint64_t v) { return publisher.ModelFor(v); }, report);
    report.Attempt(publisher.publish_ms().size() >= 10,
                   "publisher made fewer than 10 publishes", true);
    report.Note(std::to_string(publisher.publish_ms().size()) +
                " publishes during serving");
    report.Set("tokens_per_s", out.engine_tokens_per_s);
    report.Set("serve_p50_ms", out.latency.p50_ms);
    report.Set("serve_p95_ms", out.latency.p95_ms);
    report.Set("serve_max_qps", out.max_qps);
    report.Set("peak_rss_mb", out.peak_rss_mb);
    served->server->Shutdown();
    return;
  }

  // ---- traced run: an untraced set-up and fixed-rate window, then traced
  // ones on the same seed, so both serve the same requests. The acceptance
  // ratio comes from a set-up of its own with the library's metrics on.
  const uint64_t untraced_hash = SetUp(wl, args.seed, nullptr)->final_hash;
  report.Set("sampler.mh_accept_ratio",
             MhAcceptRatio([&] { SetUp(wl, args.seed, nullptr); }));
  Tracer setup_tracer(2);  // set-up training (Iterate has no block calls)
  Tracer tracer(2);        // generator, publisher
  std::unique_ptr<Served> served = SetUp(wl, args.seed, &setup_tracer);
  CheckSetUp(*served, report);
  report.Attempt(served->final_hash == untraced_hash,
                 "traced and untraced set-up trainings ended with different "
                 "assignments",
                 true);
  report.Set("corpus.generate_s", served->generate_s);
  report.Set("sampler.init_s", served->init_s);
  const double sweep_p50 = Median(served->sweep_s);
  report.Set("sampler.sweep_s_p50", sweep_p50);
  report.Set("sampler.first_sweep_extra_s",
             served->sweep_s.empty() ? 0.0 : served->sweep_s[0] - sweep_p50);
  report.Set("sampler.iters_to_ll", served->iters_to_ll);
  report.Set("eval.ll_s_p50", Median(served->eval_s));

  LoadGenerator gen(served->corpus, wl.k,
                    served->server->options().inference.iterations);
  double untraced_tps = 0.0;
  {
    Publisher publisher(*served, wl.publish_every_ms, nullptr);
    ServingSession session(*served->server, gen, wl.rate_qps, args.seed);
    session.FixedReplay(report);
    publisher.Stop();
    untraced_tps =
        session
            .Finish([&](uint64_t v) { return publisher.ModelFor(v); }, report)
            .engine_tokens_per_s;
  }
  Publisher publisher(*served, wl.publish_every_ms, &tracer.track(1));
  ServingSession session(*served->server, gen, wl.rate_qps, args.seed);
  session.FixedReplay(report, &tracer.track(0));
  publisher.Stop();
  const ServeOutcome out = session.Finish(
      [&](uint64_t v) { return publisher.ModelFor(v); }, report);
  ReportServerLayers(out.fixed, served->server->Stats(), report);
  report.Set("store.publish_ms_p50", Median(publisher.publish_ms()));
  double max_ms = 0.0;
  for (double v : publisher.publish_ms()) max_ms = std::max(max_ms, v);
  report.Set("store.publish_ms_max", max_ms);
  report.Set("store.snapshot_mb",
             served->store->Current()->ApproxBytes() / 1e6);
  report.Set("trace.overhead_pct",
             100.0 * (untraced_tps - out.engine_tokens_per_s) / untraced_tps);
  served->server->Shutdown();

  std::vector<FlatSpan> spans = setup_tracer.Collect();
  std::vector<FlatSpan> serve_spans = tracer.Collect();
  const int64_t base = static_cast<int64_t>(spans.size());
  for (FlatSpan& s : serve_spans) {
    if (s.parent >= 0) s.parent += base;
    s.track += setup_tracer.num_tracks();
    spans.push_back(std::move(s));
  }
  const std::string path = TracePath(args);
  report.Attempt(WriteChromeTrace(spans, path), "cannot write " + path, true);
  report.Note("chrome trace: " + path);
}

}  // namespace perfbench
