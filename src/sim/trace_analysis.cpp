#include "sim/trace_analysis.h"

#include <algorithm>

#include "common/string_util.h"

namespace hoh::sim {

std::vector<ConcurrencyStep> concurrency_profile(
    const std::vector<TraceSpan>& spans) {
  // Sweep line over begin/end edges; simultaneous edges process ends
  // first so a span ending exactly when another begins does not inflate
  // the peak.
  std::vector<std::pair<common::Seconds, int>> edges;
  edges.reserve(spans.size() * 2);
  for (const auto& s : spans) {
    edges.emplace_back(s.begin, +1);
    edges.emplace_back(s.end, -1);
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // -1 before +1
            });
  std::vector<ConcurrencyStep> out;
  int current = 0;
  for (const auto& [t, delta] : edges) {
    current += delta;
    if (!out.empty() && out.back().time == t) {
      out.back().concurrent = current;
    } else {
      out.push_back(ConcurrencyStep{t, current});
    }
  }
  return out;
}

int peak_concurrency(const std::vector<TraceSpan>& spans) {
  int peak = 0;
  for (const auto& step : concurrency_profile(spans)) {
    peak = std::max(peak, step.concurrent);
  }
  return peak;
}

double utilization(const std::vector<TraceSpan>& spans, int capacity,
                   common::Seconds t0, common::Seconds t1) {
  if (capacity <= 0 || t1 <= t0) return 0.0;
  double busy = 0.0;
  for (const auto& s : spans) {
    const common::Seconds lo = std::max(s.begin, t0);
    const common::Seconds hi = std::min(s.end, t1);
    if (hi > lo) busy += hi - lo;
  }
  return busy / (static_cast<double>(capacity) * (t1 - t0));
}

std::string to_csv(const Trace& trace) {
  std::string out = "time,category,name,attrs\n";
  for (const auto& e : trace.events()) {
    std::string attrs;
    for (const auto& [k, v] : e.attrs) {
      if (!attrs.empty()) attrs += ';';
      attrs += k.str() + "=" + v;
    }
    out += common::strformat("%.6f,%s,%s,%s\n", e.time, e.category.c_str(),
                             e.name.c_str(), attrs.c_str());
  }
  return out;
}

}  // namespace hoh::sim
