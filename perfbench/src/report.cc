#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"tokens_per_s", "tok/s"},
      {"time_to_ll_s", "s"},
      {"peak_rss_mb", "MB"},
      {"serve_p50_ms", "ms"},
      {"serve_p95_ms", "ms"},
      {"serve_max_qps", "req/s"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"corpus.generate_s", "s"},
      {"sampler.init_s", "s"},
      {"sampler.first_sweep_extra_s", "s"},
      {"sampler.sweep_s_p50", "s"},
      {"sampler.iters_to_ll", "count"},
      {"sampler.mh_accept_ratio", "ratio"},
      {"sampler.block_calls_per_sweep", "count"},
      {"sampler.block_busy_s", "s"},
      {"sampler.block_us_p50", "us"},
      {"sampler.block_us_p99", "us"},
      {"sampler.barrier_s", "s"},
      {"sampler.barrier_share", "ratio"},
      {"executor.stage_s", "s"},
      {"executor.idle_share", "ratio"},
      {"eval.ll_s_p50", "s"},
      {"dist.spawn_s", "s"},
      {"dist.sweep_s_p50", "s"},
      {"dist.bytes_per_sweep", "bytes"},
      {"dist.frames_per_sweep", "count"},
      {"dist.retransmits_per_sweep", "count"},
      {"dist.recoveries", "count"},
      {"store.publish_ms_p50", "ms"},
      {"store.publish_ms_max", "ms"},
      {"store.snapshot_mb", "MB"},
      {"server.queue_us_p50", "us"},
      {"server.queue_us_p99", "us"},
      {"server.infer_us_p50", "us"},
      {"server.infer_us_p99", "us"},
      {"server.mean_batch", "count"},
      {"loadgen.lateness_ms_p99", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

void Report::Set(const std::string& name, double value) {
  for (Entry& e : values_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  values_.push_back(Entry{name, value});
}

void Report::Attempt(bool ok, const std::string& what, bool is_output_check) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (is_output_check) correct_ = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  notes_.push_back("FAILED: " + what);
}

void Report::AttemptMany(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

// JSON has no infinity: a latency that is beyond every limit (all requests
// refused) is printed as this many milliseconds instead.
constexpr double kJsonBeyond = 1e12;

double JsonNumber(double v) {
  if (std::isnan(v)) return 0.0;
  if (std::isinf(v)) return v > 0 ? kJsonBeyond : -kJsonBeyond;
  return v;
}

}  // namespace

void Report::Print(bool trace) const {
  const auto& defs = trace ? PerLayerMetrics() : EndToEndMetrics();
  bool ok = correct_;
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  std::string json = "{";
  bool first = true;
  for (const MetricDef& d : defs) {
    const Entry* found = nullptr;
    for (const Entry& e : values_) {
      if (e.name == d.name) found = &e;
    }
    double v = 0.0;
    if (found != nullptr) {
      v = JsonNumber(found->value);
      std::printf("%-32s %.6g %s\n", d.name, found->value, d.unit);
    } else if (trace) {
      std::printf("%-32s %s\n", d.name, "0 (layer not exercised)");
    } else {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   d.name);
      ok = false;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, v, d.unit);
    json += buf;
    first = false;
  }
  json += "}";
  if (attempted_ == 0) ok = false;  // nothing was checked
  const double fail_ratio =
      attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / attempted_;
  std::printf("%-32s %.6g ratio (%llu of %llu operations)\n", "fail_ratio",
              fail_ratio, static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      ok ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
