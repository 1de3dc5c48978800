#include "hoh_bench/span_recorder.h"

namespace hoh::bench {

void SpanRecorder::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now_ns() - open.start_ns;
  const std::int64_t self = duration - open.child_ns;
  const auto index = static_cast<std::size_t>(open.layer);
  LayerStats& s = stats_[index];
  ++s.calls;
  s.total_ns += duration;
  s.self_ns += self;
  samples_[index].push_back(open.layer == Layer::kNet ? self : duration);
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

void SpanRecorder::reset() {
  stats_ = {};
  for (auto& s : samples_) s.clear();
}

}  // namespace hoh::bench
