#include "serve_load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <thread>
#include <utility>

#include "serve/engine.h"
#include "serve/model_store.h"
#include "util/rng.h"
#include "tracer.h"

namespace perfbench {

using warplda::Rng;
using warplda::WordId;
using warplda::serve::InferenceResult;
using warplda::serve::InferenceServer;

namespace {

// Every this many requests of a window is a spot request whose θ̂ is kept
// and recomputed afterwards with SharedInferenceEngine.
constexpr uint64_t kSpotEvery = 97;
// Window lengths in seconds of offered load; a window's request count is
// its rate times its length, so a seed always sends the same requests. At
// the lowest workload rate (90 req/s) a fixed-rate window holds 270
// requests, so serve_p95_ms has 13 samples beyond it. The fixed-rate window
// is replayed with the same schedule, documents and request seeds, and each
// request is timed by its fastest replay: the queueing the schedule causes
// is the same in every replay, while time the host steals lands on
// different requests each time and only ever adds.
constexpr double kWarmupSeconds = 0.5;
constexpr double kFixedSeconds = 3.0;
// A saturated replay sends this many seconds' worth of requests at three
// times the fixed rate (about the server's capacity, since each workload's
// rate is a third of it), keeping two full batches (ServerOptions::
// max_batch is 8) per worker in flight so no worker ever waits for work;
// max_qps is the fastest replay's completion rate.
constexpr double kSaturateRateFactor = 3.0;
constexpr double kSaturateSeconds = 1.0;
constexpr uint32_t kSaturateInFlightPerWorker = 16;  // two batches of 8
// The generator wakes at least this often: to observe completions, so a
// request that completes behind an older one is timed within this much of
// its completion, and to keep its sends on schedule. A thread that sleeps
// for milliseconds on a virtual machine can wake milliseconds late (the
// host parks an idle vCPU), and that delay would enter every latency the
// generator measures.
constexpr int64_t kPollNs = 100000;

uint64_t Requests(double rate_qps, double seconds) {
  return static_cast<uint64_t>(std::llround(rate_qps * seconds));
}

struct Pending {
  uint64_t index;
  int64_t scheduled_ns;
  uint32_t doc;
  uint64_t seed;
  std::future<InferenceResult> future;
};

bool ThetaOk(const std::vector<double>& theta, uint32_t k) {
  if (theta.size() != k) return false;
  double sum = 0.0;
  for (double v : theta) sum += v;
  return std::fabs(sum - 1.0) <= 1e-9;
}

}  // namespace

std::vector<WordId> LoadGenerator::Query(uint32_t doc) const {
  auto span = corpus_.doc_tokens(doc);
  return std::vector<WordId>(span.begin(), span.end());
}

WindowResult LoadGenerator::Run(InferenceServer& server, double rate_qps,
                                uint64_t requests, uint64_t seed,
                                SpanBuffer* trace) const {
  WindowResult w;
  // Requests are paced: request i is due i / rate_qps after the start.
  // Poisson arrivals would add queueing behind random bursts, whose tail
  // differs from seed to seed far more than the program's own latency does.
  // Everything random (documents, per-request seeds) is drawn before the
  // first send.
  Rng rng(seed ^ 0x5E12E5EEDULL);
  std::vector<int64_t> offset_ns(requests);
  std::vector<uint32_t> doc(requests);
  std::vector<uint64_t> req_seed(requests);
  std::vector<std::vector<WordId>> words(requests);
  w.sampled_tokens.resize(requests);
  for (uint64_t i = 0; i < requests; ++i) {
    offset_ns[i] =
        static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_qps);
    doc[i] = rng.NextInt(corpus_.num_docs());
    req_seed[i] = rng.Next();
    words[i] = Query(doc[i]);
    w.sampled_tokens[i] =
        static_cast<double>(words[i].size()) * mh_iterations_;
  }
  w.latency_ms.assign(requests, kBeyondLimit);
  w.infer_s.assign(requests, kBeyondLimit);
  w.lateness_ms.reserve(requests);
  std::vector<Pending> pending;
  pending.reserve(1024);

  const int64_t start = NowNs() + 1000000;  // first send 1 ms from now
  uint64_t next = 0;
  auto observe = [&](Pending& p) {
    const SpanId span =
        trace != nullptr ? trace->Begin("loadgen.resolve") : kNoSpan;
    try {
      InferenceResult r = p.future.get();
      const int64_t done = NowNs();
      w.latency_ms[p.index] = (done - p.scheduled_ns) * 1e-6;
      w.queue_us.push_back(r.queue_micros);
      w.infer_us.push_back(r.infer_micros);
      w.infer_s[p.index] = r.infer_micros * 1e-6;
      if (!ThetaOk(r.theta, k_)) ++w.bad_theta;
      if (p.index % kSpotEvery == 0) {
        w.spots.push_back(WindowResult::Spot{p.doc, p.seed, r.model_version,
                                             std::move(r.theta)});
      }
    } catch (...) {
      ++w.failed;
    }
    if (trace != nullptr) trace->End(span);
  };

  while (next < requests || !pending.empty()) {
    const int64_t now = NowNs();
    if (next < requests && now >= start + offset_ns[next]) {
      const int64_t scheduled = start + offset_ns[next];
      w.lateness_ms.push_back((now - scheduled) * 1e-6);
      std::future<InferenceResult> f;
      const SpanId span =
          trace != nullptr ? trace->Begin("loadgen.submit") : kNoSpan;
      const bool accepted =
          server.TrySubmit(std::move(words[next]), req_seed[next], &f);
      if (trace != nullptr) trace->End(span);
      ++w.sent;
      if (accepted) {
        pending.push_back(Pending{next, scheduled, doc[next], req_seed[next],
                                  std::move(f)});
      } else {
        ++w.refused;
      }
      ++next;
      continue;  // catch up on overdue sends before polling
    }
    // Observe every completed request, oldest first (pending stays in
    // submission order).
    size_t kept = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        observe(pending[i]);
      } else {
        if (kept != i) pending[kept] = std::move(pending[i]);
        ++kept;
      }
    }
    pending.resize(kept);
    // Block (without spinning) until the oldest request completes, the
    // next send is due or the poll interval ends, whichever comes first.
    int64_t deadline = NowNs() + kPollNs;
    if (next < requests) deadline = std::min(deadline, start + offset_ns[next]);
    const auto until = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline));
    if (!pending.empty()) {
      pending.front().future.wait_until(until);
    } else {
      std::this_thread::sleep_until(until);
    }
  }
  return w;
}

double LoadGenerator::Saturate(InferenceServer& server, uint64_t requests,
                               uint32_t in_flight, uint64_t seed) const {
  Rng rng(seed ^ 0x5A7ULL);
  std::vector<std::vector<WordId>> words(requests);
  std::vector<uint64_t> req_seed(requests);
  for (uint64_t i = 0; i < requests; ++i) {
    words[i] = Query(rng.NextInt(corpus_.num_docs()));
    req_seed[i] = rng.Next();
  }
  std::vector<std::future<InferenceResult>> pending;
  bool ok = true;
  uint64_t next = 0;
  const int64_t start = NowNs();
  while (next < requests || !pending.empty()) {
    while (next < requests && pending.size() < in_flight) {
      std::future<InferenceResult> f;
      if (!server.TrySubmit(std::move(words[next]), req_seed[next], &f)) {
        ok = false;
      } else {
        pending.push_back(std::move(f));
      }
      ++next;
    }
    size_t kept = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        try {
          pending[i].get();
        } catch (...) {
          ok = false;
        }
      } else {
        if (kept != i) pending[kept] = std::move(pending[i]);
        ++kept;
      }
    }
    pending.resize(kept);
    // Nothing more to send: block until the oldest request completes or
    // the poll interval ends.
    if (!pending.empty() && (pending.size() >= in_flight || next >= requests)) {
      pending.front().wait_for(std::chrono::nanoseconds(kPollNs));
    }
  }
  const double seconds = (NowNs() - start) * 1e-9;
  return ok ? seconds : -1.0;
}

void ReportServerLayers(const WindowResult& w,
                        const warplda::serve::ServerStats& stats,
                        Report& report) {
  report.Set("server.queue_us_p50", NearestRank(w.queue_us, 0.50));
  report.Set("server.queue_us_p99", NearestRank(w.queue_us, 0.99));
  report.Set("server.infer_us_p50", NearestRank(w.infer_us, 0.50));
  report.Set("server.infer_us_p99", NearestRank(w.infer_us, 0.99));
  report.Set("server.mean_batch", stats.mean_batch);
  report.Set("loadgen.lateness_ms_p99", NearestRank(w.lateness_ms, 0.99));
}

ServingSession::ServingSession(InferenceServer& server,
                               const LoadGenerator& gen, double rate_qps,
                               uint64_t seed)
    : server_(server), gen_(gen), rate_qps_(rate_qps), seed_(seed) {
  gen_.Run(server_, rate_qps_, Requests(rate_qps_, kWarmupSeconds),
           seed_ ^ 0xA11CE, nullptr);
  server_.Drain();
}

void ServingSession::FixedReplay(Report& report, SpanBuffer* trace) {
  fixed_.push_back(gen_.Run(server_, rate_qps_,
                            Requests(rate_qps_, kFixedSeconds),
                            seed_ ^ 0xF17ED, trace));
  server_.Drain();
  report.AttemptMany(fixed_.back().sent,
                     fixed_.back().refused + fixed_.back().failed);
}

void ServingSession::SaturatedReplay() {
  saturated_s_.push_back(gen_.Saturate(
      server_, Requests(kSaturateRateFactor * rate_qps_, kSaturateSeconds),
      kSaturateInFlightPerWorker * kServerWorkers, seed_ ^ 0xC105ED));
  server_.Drain();
}

ServeOutcome ServingSession::Finish(const ModelForVersion& models,
                                    Report& report) {
  ServeOutcome out;
  std::vector<std::vector<double>> latencies, infer_s;
  uint64_t bad_theta = 0;
  for (const WindowResult& w : fixed_) {
    latencies.push_back(w.latency_ms);
    infer_s.push_back(w.infer_s);
    bad_theta += w.bad_theta;
  }
  out.latency = SummarizeLatency(PerIndexMin(latencies), 0);
  const std::vector<double> fastest_infer_s = PerIndexMin(infer_s);
  double sampled_tokens = 0.0;
  double infer_seconds = 0.0;
  for (size_t i = 0; i < fastest_infer_s.size(); ++i) {
    if (fastest_infer_s[i] == kBeyondLimit) continue;  // failed every time
    sampled_tokens += fixed_.front().sampled_tokens[i];
    infer_seconds += fastest_infer_s[i];
  }
  out.engine_tokens_per_s =
      infer_seconds > 0 ? sampled_tokens / infer_seconds : 0.0;
  out.peak_rss_mb = PeakRssMb();
  const WindowResult& first = fixed_.front();
  report.Note("serve fixed rate " + std::to_string(rate_qps_) + " req/s, " +
              std::to_string(fixed_.size()) + " replays of " +
              std::to_string(first.sent) +
              " whole-document requests, each timed by its fastest: p50 " +
              std::to_string(out.latency.p50_ms) + " ms, p95 " +
              std::to_string(out.latency.p95_ms) + " ms (" +
              std::to_string(out.latency.beyond_p95) +
              " beyond); first replay p95 " +
              std::to_string(NearestRank(first.latency_ms, 0.95)) +
              " ms, send lateness p99 " +
              std::to_string(NearestRank(first.lateness_ms, 0.99)) + " ms");

  if (!saturated_s_.empty()) {
    const double fastest =
        *std::min_element(saturated_s_.begin(), saturated_s_.end());
    const bool ok = std::all_of(saturated_s_.begin(), saturated_s_.end(),
                                [](double s) { return s > 0; });
    report.Attempt(ok, "a closed-loop request was refused or failed", true);
    const uint64_t requests =
        Requests(kSaturateRateFactor * rate_qps_, kSaturateSeconds);
    out.max_qps = ok ? static_cast<double>(requests) / fastest : 0.0;
    report.Note("closed loop: " + std::to_string(requests) + " requests, " +
                std::to_string(kSaturateInFlightPerWorker * kServerWorkers) +
                " in flight, fastest of " +
                std::to_string(saturated_s_.size()) + " replays " +
                std::to_string(fastest) + " s");
  }

  // Output checks, after every timed window.
  report.Attempt(bad_theta == 0,
                 std::to_string(bad_theta) +
                     " θ̂ results of wrong length or not summing to 1",
                 true);
  std::map<uint64_t, std::unique_ptr<warplda::serve::SharedInferenceEngine>>
      engines;
  uint64_t spot_mismatch = 0;
  size_t spot_count = 0;
  for (const WindowResult& w : fixed_) {
    for (const WindowResult::Spot& s : w.spots) {
      ++spot_count;
      auto& engine = engines[s.version];
      if (engine == nullptr) {
        auto model = models(s.version);
        if (model == nullptr) {
          ++spot_mismatch;
          continue;
        }
        engine = std::make_unique<warplda::serve::SharedInferenceEngine>(
            std::make_shared<const warplda::serve::ModelSnapshot>(model,
                                                                  s.version),
            server_.options().inference);
      }
      if (engine->InferTheta(gen_.Query(s.doc), s.seed) != s.theta) {
        ++spot_mismatch;
      }
    }
  }
  report.Attempt(spot_mismatch == 0 && spot_count > 0,
                 std::to_string(spot_mismatch) + " of " +
                     std::to_string(spot_count) +
                     " spot requests differ from SharedInferenceEngine",
                 true);
  out.fixed = std::move(fixed_.front());
  return out;
}

namespace {

warplda::serve::ModelStore& PublishFirst(
    warplda::serve::ModelStore& store,
    std::shared_ptr<const warplda::TopicModel> model) {
  store.Publish(std::move(model));
  return store;
}

warplda::serve::ServerOptions ServingOptions() {
  warplda::serve::ServerOptions options;
  options.num_workers = kServerWorkers;
  return options;
}

}  // namespace

FinalModelServing::FinalModelServing(
    std::shared_ptr<const warplda::TopicModel> model,
    const warplda::Corpus& corpus, double rate_qps, uint64_t seed)
    : model_(std::move(model)),
      server_(PublishFirst(store_, model_), ServingOptions()),
      gen_(corpus, model_->num_topics(),
           server_.options().inference.iterations),
      session_(server_, gen_, rate_qps, seed) {}

ServeOutcome FinalModelServing::Finish(Report& report) {
  return session_.Finish(
      [&](uint64_t v) {
        return v == 1 ? model_ : std::shared_ptr<const warplda::TopicModel>();
      },
      report);
}

void FinalModelServing::ReportEndToEnd(Report& report) {
  const ServeOutcome out = Finish(report);
  report.Set("serve_p50_ms", out.latency.p50_ms);
  report.Set("serve_p95_ms", out.latency.p95_ms);
  report.Set("serve_max_qps", out.max_qps);
  report.Set("peak_rss_mb", out.peak_rss_mb);
}

void FinalModelServing::ReportLayers(Report& report, SpanBuffer* trace) {
  session_.FixedReplay(report, trace);
  const ServeOutcome out = Finish(report);
  ReportServerLayers(out.fixed, server_.Stats(), report);
}

}  // namespace perfbench
