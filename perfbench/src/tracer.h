// Outside-in span tracer: the benchmark records spans around its calls into
// the library (nothing inside src/ is instrumented for it). Each thread role
// writes its own SpanBuffer, so recording takes no lock and shares no
// counter; the buffers are merged once, after the workload ends, into a
// flat span list for self-time arithmetic and a Chrome trace file.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Names a span across buffers: (track << 32) | index within the track.
using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = ~0ULL;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;     ///< 0 while open
  SpanId parent = kNoSpan;
};

/// Spans of one thread role (the driver, or one executor worker id). Only
/// one thread may use a buffer at a time; the owner of the Tracer arranges
/// that by giving every concurrent caller its own track.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t track) : track_(track) { spans_.reserve(4096); }
  SpanId Begin(const char* name, SpanId parent = kNoSpan) {
    return Begin(name, NowNs(), parent);
  }
  SpanId Begin(const char* name, int64_t start_ns, SpanId parent) {
    spans_.push_back(Span{name, start_ns, 0, parent});
    return (static_cast<SpanId>(track_) << 32) | (spans_.size() - 1);
  }
  void End(SpanId id) { End(id, NowNs()); }
  void End(SpanId id, int64_t end_ns) {
    spans_[static_cast<uint32_t>(id)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint32_t track() const { return track_; }

 private:
  uint32_t track_;
  std::vector<Span> spans_;
};

/// A span after merging: parent is an index into the merged list (-1 for a
/// root) and `track` is the buffer it came from.
struct FlatSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint32_t track = 0;
  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  /// Track 0 is the driver; tracks 1..n are free for workers.
  explicit Tracer(uint32_t num_tracks);
  SpanBuffer& track(uint32_t i) { return *tracks_[i]; }
  uint32_t num_tracks() const { return static_cast<uint32_t>(tracks_.size()); }
  /// Merges every buffer; open spans are closed at `now`. Call only once no
  /// thread is recording.
  std::vector<FlatSpan> Collect() const;

 private:
  std::vector<std::unique_ptr<SpanBuffer>> tracks_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<FlatSpan>& spans);

/// Writes the spans as a Chrome trace_event JSON file (complete "X" events,
/// one tid per track, the parent index in args). Returns false on I/O error.
bool WriteChromeTrace(const std::vector<FlatSpan>& spans,
                      const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
