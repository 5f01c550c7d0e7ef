// Helpers shared by the perfbench workloads. Each workload's fixed
// parameters (corpus scale, K, sweep budget, LL target, offered rate, ...)
// live in perfbench/workloads.json alone; run.py passes them in as
// --param name=value and the workload reads them through Params.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "corpus/corpus.h"
#include "corpus/synthetic.h"
#include "eval/topic_model.h"
#include "report.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {

/// A workload's parameters from perfbench/workloads.json. Get() throws for
/// a name that was not given and CheckAllRead() for one that was given but
/// never read, so the file and the code cannot drift apart.
class Params {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;
  uint32_t GetUint(const std::string& name) const;
  void CheckAllRead() const;
  /// "name=value ..." of every parameter, for the run's notes.
  std::string Describe() const;

 private:
  std::map<std::string, double> values_;
  mutable std::set<std::string> read_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench";  ///< Chrome traces
  Params params;
  int64_t start_ns = 0;  ///< NowNs() when the workload started
};

/// Set-ups per run: setup_s is their median, so one set-up slowed by the
/// host does not move it.
inline constexpr int kSetupRepeats = 5;

/// Timed rounds per run (a training or distributed run, each followed by
/// serving replays): at least this many, so per-sweep and per-request
/// minima have rounds to choose from.
inline constexpr int kMinRounds = 3;

/// True while fewer than kMinRounds rounds are done, or while one more
/// round as long as the last (`last_round_s`) still ends within --seconds
/// of the workload's start.
bool KeepMeasuring(const Args& args, int rounds_done, double last_round_s);

/// Generated corpus for a workload and seed. The Table 3 shape is fixed by
/// the workload; the seed picks the draw.
warplda::Corpus MakeCorpus(const warplda::SyntheticConfig& shape,
                           uint64_t seed);
warplda::LdaConfig MakeLdaConfig(uint32_t num_topics, uint64_t seed);

/// VmHWM of this process, in MB.
double PeakRssMb();

/// True when `topic_counts` equals the histogram of `z` over K topics.
bool CountsMatchAssignments(const std::vector<int64_t>& topic_counts,
                            const std::vector<uint32_t>& z, uint32_t k);

/// MH acceptance ratio of the sampling `run` does: the growth of
/// trainer_mh_accepts_total over that of trainer_mh_proposals_total, with
/// the library's hot-path metrics switched on while it runs. Metrics cost
/// time on the hot path, so `run` must be a run of its own, not one whose
/// time is reported.
double MhAcceptRatio(const std::function<void()>& run);

/// "ll/token by sweep: 1:… 5:… 10:…" — the convergence trajectory a run
/// prints so LL targets can be checked against it.
std::string LlTrajectoryNote(const std::vector<LlPoint>& trace,
                             uint64_t tokens);

/// Chrome trace output path for a workload run.
std::string TracePath(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
