// Negative fixture: src/sim/ owns the trace and its analyses, so reading
// it here must NOT be flagged by the trace-read rule.

namespace fixture_sim {

template <typename Trace>
unsigned count_events(const Trace& trace) {
  unsigned n = 0;
  for (const auto& e : trace.events()) n += e.time > 0.0 ? 1 : 0;
  return n + trace.find("unit").size();
}

}  // namespace fixture_sim
