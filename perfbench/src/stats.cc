#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

LatencySummary SummarizeLatency(const std::vector<double>& latencies_ms,
                                uint64_t refused_or_failed) {
  std::vector<double> all(latencies_ms);
  all.insert(all.end(), refused_or_failed, kBeyondLimit);
  LatencySummary s;
  s.samples = all.size();
  if (all.empty()) return s;
  s.p50_ms = NearestRank(all, 0.50);
  s.p95_ms = NearestRank(all, 0.95);
  s.beyond_p95 = static_cast<uint64_t>(std::count_if(
      all.begin(), all.end(), [&](double v) { return v > s.p95_ms; }));
  return s;
}

bool CrossingPoint(const std::vector<LlPoint>& trace, double level,
                   double* iteration, double* seconds) {
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].ll < level) continue;
    if (i == 0) {
      *iteration = trace[0].iteration;
      *seconds = trace[0].seconds;
    } else {
      const LlPoint& a = trace[i - 1];
      const LlPoint& b = trace[i];
      const double t = (level - a.ll) / (b.ll - a.ll);
      *iteration = a.iteration + t * (b.iteration - a.iteration);
      *seconds = a.seconds + t * (b.seconds - a.seconds);
    }
    return true;
  }
  return false;
}

std::vector<double> PerIndexMin(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return {};
  size_t n = runs[0].size();
  for (const auto& r : runs) n = std::min(n, r.size());
  std::vector<double> out(n, std::numeric_limits<double>::infinity());
  for (const auto& r : runs) {
    for (size_t j = 0; j < n; ++j) out[j] = std::min(out[j], r[j]);
  }
  return out;
}

std::vector<LlPoint> FastestRunTrace(
    const std::vector<std::vector<double>>& sweep_seconds,
    const std::vector<double>& ll, uint32_t sweeps_per_point) {
  const std::vector<double> fastest = PerIndexMin(sweep_seconds);
  std::vector<LlPoint> trace;
  double cumulative = 0.0;
  for (size_t j = 0; j < fastest.size() && j < ll.size(); ++j) {
    cumulative += fastest[j];
    trace.push_back(LlPoint{static_cast<double>((j + 1) * sweeps_per_point),
                            cumulative, ll[j]});
  }
  return trace;
}

double AccountingGap(double barrier_s, double stage_s, double wall_s) {
  if (wall_s <= 0.0) return std::numeric_limits<double>::infinity();
  return std::fabs(barrier_s + stage_s - wall_s) / wall_s;
}

uint64_t HashAssignments(const std::vector<uint32_t>& z) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t v : z) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace perfbench
