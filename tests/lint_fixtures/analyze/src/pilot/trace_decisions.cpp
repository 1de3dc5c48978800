// Fixture for the trace-read rule: a component under src/ that steers
// on what the trace recorded. Rollup decides what the trace stores, so
// every read below would change a decision with rollup on; the writes
// and the non-trace lookups at the end must NOT be flagged.
#include <map>
#include <string>

namespace fixture_pilot {

struct Manager {
  double learned_runtime() {
    double sum = 0.0;
    for (const auto& e : session_.trace().events()) {  // EXPECT: trace-read
      sum += e.time;
    }
    const auto done = trace_.last("unit", "Done");      // EXPECT: trace-read
    const auto exec = trace_->first("unit", "Executing");  // EXPECT: trace-read
    const auto spans = session_.trace().find_spans("unit", "exec");  // EXPECT: trace-read
    const auto stats = trace_.span_stats("unit", "exec");  // EXPECT: trace-read
    const auto counts = session_.trace().rollup("unit", "Done");  // EXPECT: trace-read
    const auto hits = trace_.find("unit");               // EXPECT: trace-read
    return sum + done->time + exec->time + spans.size() + stats.mean() +
           counts.count + hits.size();
  }

  void record_and_look_up() {
    session_.trace().record(0.0, "unit", "Done", {});
    trace_.begin_span(0.0, "unit", "exec", "u.0");
    const auto it = by_id_.find("u.0");
    if (it != by_id_.end()) last_ = it->second;
    events_seen_ = events();
  }

  int events() const { return 0; }

  std::map<std::string, int> by_id_;
  int last_ = 0;
  int events_seen_ = 0;
};

}  // namespace fixture_pilot
