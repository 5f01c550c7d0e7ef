#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"


namespace perfbench {

double Params::Get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::runtime_error("parameter " + name +
                             " not given (see perfbench/workloads.json)");
  }
  read_.insert(name);
  return it->second;
}

uint32_t Params::GetUint(const std::string& name) const {
  const double v = Get(name);
  if (v < 0 || v != std::floor(v) || v > 4294967295.0) {
    throw std::runtime_error("parameter " + name + " is not a whole number");
  }
  return static_cast<uint32_t>(v);
}

void Params::CheckAllRead() const {
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      throw std::runtime_error("parameter " + name + " is not used");
    }
  }
}

std::string Params::Describe() const {
  std::string out;
  for (const auto& [name, value] : values_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    out += (out.empty() ? "" : " ") + name + "=" + buf;
  }
  return out;
}

bool KeepMeasuring(const Args& args, int rounds_done, double last_round_s) {
  return rounds_done < kMinRounds ||
         (NowNs() - args.start_ns) * 1e-9 + last_round_s <= args.seconds;
}

warplda::Corpus MakeCorpus(const warplda::SyntheticConfig& shape,
                           uint64_t seed) {
  warplda::SyntheticConfig c = shape;
  c.seed = shape.seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  return warplda::GenerateLdaCorpus(c).corpus;
}

warplda::LdaConfig MakeLdaConfig(uint32_t num_topics, uint64_t seed) {
  warplda::LdaConfig config = warplda::LdaConfig::PaperDefaults(num_topics);
  config.seed = 12345 + seed;
  return config;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

bool CountsMatchAssignments(const std::vector<int64_t>& topic_counts,
                            const std::vector<uint32_t>& z, uint32_t k) {
  if (topic_counts.size() != k) return false;
  std::vector<int64_t> hist(k, 0);
  for (uint32_t t : z) {
    if (t >= k) return false;
    ++hist[t];
  }
  return hist == topic_counts;
}

double MhAcceptRatio(const std::function<void()>& run) {
  auto& registry = warplda::obs::MetricsRegistry::Global();
  const warplda::obs::Counter* proposals =
      registry.GetCounter("trainer_mh_proposals_total");
  const warplda::obs::Counter* accepts =
      registry.GetCounter("trainer_mh_accepts_total");
  const uint64_t p0 = proposals->Value();
  const uint64_t a0 = accepts->Value();
  warplda::obs::SetMetricsEnabled(true);
  run();
  warplda::obs::SetMetricsEnabled(false);
  const double proposed = static_cast<double>(proposals->Value() - p0);
  return proposed > 0 ? static_cast<double>(accepts->Value() - a0) / proposed
                      : 0.0;
}

std::string LlTrajectoryNote(const std::vector<LlPoint>& trace,
                             uint64_t tokens) {
  std::string out = "ll/token by sweep:";
  for (const LlPoint& p : trace) {
    const auto it = static_cast<uint64_t>(p.iteration);
    if (it % 5 != 0 && it != 1) continue;
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %llu:%.4f",
                  static_cast<unsigned long long>(it),
                  p.ll / static_cast<double>(tokens));
    out += buf;
  }
  return out;
}

std::string TracePath(const Args& args) {
  return args.out_dir + "/trace-" + args.workload + "-seed" +
         std::to_string(args.seed) + ".json";
}

}  // namespace perfbench
