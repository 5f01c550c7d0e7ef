#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(uint32_t num_tracks) {
  for (uint32_t i = 0; i < num_tracks; ++i) {
    tracks_.push_back(std::make_unique<SpanBuffer>(i));
  }
}

std::vector<FlatSpan> Tracer::Collect() const {
  const int64_t now = NowNs();
  std::vector<size_t> offset(tracks_.size() + 1, 0);
  for (size_t t = 0; t < tracks_.size(); ++t) {
    offset[t + 1] = offset[t] + tracks_[t]->spans().size();
  }
  std::vector<FlatSpan> flat;
  flat.reserve(offset.back());
  for (size_t t = 0; t < tracks_.size(); ++t) {
    for (const Span& s : tracks_[t]->spans()) {
      FlatSpan f;
      f.name = s.name;
      f.start_ns = s.start_ns;
      f.end_ns = s.end_ns != 0 ? s.end_ns : now;
      f.track = static_cast<uint32_t>(t);
      if (s.parent != kNoSpan) {
        const size_t pt = s.parent >> 32;
        const size_t pi = static_cast<uint32_t>(s.parent);
        f.parent = static_cast<int64_t>(offset[pt] + pi);
      }
      flat.push_back(std::move(f));
    }
  }
  return flat;
}

std::vector<int64_t> SelfTimesNs(const std::vector<FlatSpan>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const FlatSpan& s : spans) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool WriteChromeTrace(const std::vector<FlatSpan>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const FlatSpan& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const FlatSpan& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.track,
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
