// The benchmark's result: every metric with its unit, the attempted/failed
// operation counts, and the outcome of the output checks. Printed as text
// lines followed by the one-line JSON object the contract in BENCHMARK.json
// expects as the last line of standard output.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (printed by --trace 0 runs) and the per-layer
/// metrics (printed by --trace 1 runs), in BENCHMARK.json order. run.py
/// checks that BENCHMARK.json lists exactly these.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  /// Records a metric; its unit comes from the catalogue above.
  void Set(const std::string& name, double value);
  /// Counts one checked operation; a false `ok` counts as failed and, when
  /// `is_output_check` is set, makes the run incorrect.
  void Attempt(bool ok, const std::string& what, bool is_output_check);
  /// Counts operations in bulk (e.g. served requests and their refusals).
  void AttemptMany(uint64_t attempted, uint64_t failed);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints notes, every catalogue metric of the chosen kind (metrics the
  /// workload does not exercise print 0 and are listed as not exercised),
  /// fail_ratio, and the final JSON line.
  void Print(bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value;
  };
  std::vector<Entry> values_;
  std::vector<std::string> notes_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
