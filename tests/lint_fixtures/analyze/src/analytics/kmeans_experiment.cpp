// Negative fixture: the experiment driver's measurement code is the
// trace-read rule's one exemption outside src/sim/ — it reports what
// the trace recorded after the run and steers nothing, so the reads
// below must NOT be flagged.

namespace fixture_analytics {

template <typename Session>
double time_to_completion(Session& session) {
  const auto started = session.trace().first("pilot", "agent_started");
  const auto last_done = session.trace().last("unit", "Done");
  return last_done->time - started->time;
}

}  // namespace fixture_analytics
