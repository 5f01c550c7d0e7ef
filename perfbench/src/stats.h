// Arithmetic shared by every perfbench workload: percentiles that count
// refused requests as beyond any limit, the log-likelihood crossing point,
// per-index minima across replays, and the grid time-accounting check.
// Pure functions only, so perfbench_selftest can pin each of them.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Latency recorded for a request that was refused or failed: it misses
/// every latency limit.
inline constexpr double kBeyondLimit = std::numeric_limits<double>::infinity();

/// Median of repeated measurements (mean of the middle two for even n).
/// NaN for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1]: the smallest value with at least
/// q·n values at or below it. Infinite entries (refused requests) sort last,
/// so they push the percentile to infinity once more than (1-q)·n of the
/// samples are refused. NaN for an empty input.
double NearestRank(std::vector<double> values, double q);

/// Latency percentiles of one measurement window. `latencies_ms` holds the
/// completed requests; `refused_or_failed` more are appended as kBeyondLimit.
struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  uint64_t samples = 0;     ///< completed + refused/failed
  uint64_t beyond_p95 = 0;  ///< samples strictly above p95 (>= 10 wanted)
};
LatencySummary SummarizeLatency(const std::vector<double>& latencies_ms,
                                uint64_t refused_or_failed);

/// One evaluation of a convergence trace.
struct LlPoint {
  double iteration = 0.0;  ///< sweeps completed
  double seconds = 0.0;    ///< cumulative sampling seconds
  double ll = 0.0;         ///< joint log likelihood after those sweeps
};

/// Where the trace first reaches `level`, linearly interpolated between the
/// two evaluations around the crossing (bench/fig5_convergence's rule). A
/// trace already at the level on its first point reports that point.
/// Returns false when the trace never reaches the level.
bool CrossingPoint(const std::vector<LlPoint>& trace, double level,
                   double* iteration, double* seconds);

/// Element-wise minimum across repeated runs: out[j] = min over runs of
/// runs[r][j], for j below the shortest run's length. Repeated trainings
/// of one seed do the same work sweep for sweep, and replays of a serving
/// window send the same requests on the same schedule; time stolen by
/// other tenants of the host only ever adds to a sweep or a request, so the
/// minimum is the steadiest estimate of its own cost.
std::vector<double> PerIndexMin(const std::vector<std::vector<double>>& runs);

/// Sampling-time trace of the "fastest run" from runs evaluated every
/// `sweeps_per_point` sweeps: evaluation j (1-based) is at sweep
/// j·sweeps_per_point, has the cumulative sum of the first j per-interval
/// minima and the log likelihood `ll[j-1]` (the deterministic trajectory
/// shared by every run).
std::vector<LlPoint> FastestRunTrace(
    const std::vector<std::vector<double>>& sweep_seconds,
    const std::vector<double>& ll, uint32_t sweeps_per_point = 1);

/// Grid time accounting: driver-side barrier self time plus stage time
/// should cover the sweep wall time. Returns |barrier + stage - wall| / wall.
double AccountingGap(double barrier_s, double stage_s, double wall_s);

/// Stable 64-bit FNV-1a hash of a topic assignment vector, used to compare
/// final states across runs without keeping them.
uint64_t HashAssignments(const std::vector<uint32_t>& z);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
