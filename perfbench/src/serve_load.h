// Serving measurement shared by every workload: an open-loop paced load
// generator that submits with TrySubmit on a precomputed schedule and times
// each request from its scheduled send until its result is observed, played
// several times with the same schedule; then a closed loop that keeps the
// server saturated for its highest completion rate. The generator is one
// thread; it both sends and polls futures, so no collector thread adds to
// the workload's thread budget. Each workload's offered rate is a parameter
// in perfbench/workloads.json; the rest of the method is fixed here.
#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.h"
#include "serve/model_store.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

/// InferenceServer worker threads on every workload that serves.
inline constexpr uint32_t kServerWorkers = 2;

/// One open-loop window at a fixed offered rate.
struct WindowResult {
  uint64_t sent = 0;
  uint64_t refused = 0;  ///< TrySubmit returned false (queue full)
  uint64_t failed = 0;   ///< future resolved with an exception
  /// Per request, in schedule order: from its scheduled send until its
  /// result was observed; kBeyondLimit when refused or failed.
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;  ///< how late each send left
  std::vector<double> queue_us;     ///< InferenceResult::queue_micros
  std::vector<double> infer_us;     ///< InferenceResult::infer_micros
  /// Per request, in schedule order: doc tokens × MH iterations, and
  /// infer_micros in seconds (kBeyondLimit when refused or failed).
  std::vector<double> sampled_tokens;
  std::vector<double> infer_s;
  uint64_t bad_theta = 0;           ///< θ̂ of wrong length or sum
  struct Spot {
    uint32_t doc = 0;
    uint64_t seed = 0;
    uint64_t version = 0;
    std::vector<double> theta;
  };
  std::vector<Spot> spots;  ///< fixed-seed requests kept for re-checking

};

/// Model a given snapshot version was published from (for spot checks).
using ModelForVersion =
    std::function<std::shared_ptr<const warplda::TopicModel>(uint64_t)>;

class LoadGenerator {
 public:
  /// A request is one whole document of `corpus` (which must outlive this
  /// object), as bench/serve_throughput serves them.
  LoadGenerator(const warplda::Corpus& corpus, uint32_t num_topics,
                uint32_t mh_iterations)
      : corpus_(corpus), k_(num_topics), mh_iterations_(mh_iterations) {}
  /// The words of request document `doc`.
  std::vector<warplda::WordId> Query(uint32_t doc) const;

  /// Sends `requests` requests, one every 1 / `rate_qps` seconds, with
  /// documents and request seeds drawn from `seed`. With `trace`, records a
  /// span around each TrySubmit and each future resolution.
  WindowResult Run(warplda::serve::InferenceServer& server, double rate_qps,
                   uint64_t requests, uint64_t seed, SpanBuffer* trace) const;

  /// Closed loop: sends `requests` requests (documents and seeds drawn
  /// from `seed`), keeping `in_flight` of them outstanding, and returns the
  /// seconds from the first send until the last result. Returns a negative
  /// value when a request was refused or failed.
  double Saturate(warplda::serve::InferenceServer& server, uint64_t requests,
                  uint32_t in_flight, uint64_t seed) const;

 private:
  const warplda::Corpus& corpus_;
  uint32_t k_;
  uint32_t mh_iterations_;
};

struct ServeOutcome {
  /// Of each request's fastest latency across the fixed-rate replays.
  LatencySummary latency;
  /// Completions per second of the fastest saturated closed-loop replay.
  double max_qps = 0.0;
  /// Σ tokens × iterations / Σ infer time, each request's infer time its
  /// fastest across the replays.
  double engine_tokens_per_s = 0.0;
  /// Process VmHWM after the last replay.
  double peak_rss_mb = 0.0;
  WindowResult fixed;  ///< the first fixed-rate replay
};

/// Serving measured in replays, so a workload can interleave them with its
/// other timed work and every estimate draws on the whole run rather than
/// on one stretch of it (a host that slows for seconds then slows only some
/// replays, and each estimate keeps the fastest). A fixed-rate replay plays
/// one open-loop window — the same schedule, documents and request seeds
/// every time — whose requests count in the report's attempted/failed; a
/// saturated replay plays one closed loop of the same requests every time.
class ServingSession {
 public:
  /// Warms the server up (faults in the snapshot and the workers'
  /// allocations).
  ServingSession(warplda::serve::InferenceServer& server,
                 const LoadGenerator& gen, double rate_qps, uint64_t seed);

  /// One fixed-rate replay; with `trace`, spans are recorded in it.
  void FixedReplay(Report& report, SpanBuffer* trace = nullptr);
  /// One saturated closed-loop replay.
  void SaturatedReplay();
  /// One of each.
  void Round(Report& report) {
    FixedReplay(report);
    SaturatedReplay();
  }

  /// Summarises the replays made so far and runs the output checks: every
  /// θ̂ well formed, every spot request equal to SharedInferenceEngine's
  /// answer on the snapshot version `models` returns for it, no closed-loop
  /// request refused or failed.
  ServeOutcome Finish(const ModelForVersion& models, Report& report);

 private:
  warplda::serve::InferenceServer& server_;
  const LoadGenerator& gen_;
  double rate_qps_;
  uint64_t seed_;
  std::vector<WindowResult> fixed_;
  std::vector<double> saturated_s_;  ///< negative: a request failed
};

/// A training or dist workload's final model published into a fresh
/// ModelStore and served by a fresh InferenceServer (kServerWorkers).
class FinalModelServing {
 public:
  FinalModelServing(std::shared_ptr<const warplda::TopicModel> model,
                    const warplda::Corpus& corpus, double rate_qps,
                    uint64_t seed);
  ServingSession& session() { return session_; }
  /// Finishes the session; reports serve_p50_ms, serve_p95_ms,
  /// serve_max_qps and peak_rss_mb.
  void ReportEndToEnd(Report& report);
  /// The traced run: one fixed-rate replay with spans on `trace`, then the
  /// server.* and loadgen.* per-layer metrics.
  void ReportLayers(Report& report, SpanBuffer* trace);

 private:
  ServeOutcome Finish(Report& report);

  std::shared_ptr<const warplda::TopicModel> model_;
  warplda::serve::ModelStore store_;
  warplda::serve::InferenceServer server_;
  LoadGenerator gen_;
  ServingSession session_;
};

/// Fills server.* and loadgen.* per-layer metrics from a fixed-rate window.
void ReportServerLayers(const WindowResult& w,
                        const warplda::serve::ServerStats& stats,
                        Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
