#pragma once

#include <deque>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/units.h"

/// \file trace.h
/// Event trace recorder. Simulated components emit (time, category, name,
/// attributes) records; benches and tests query them to compute derived
/// metrics like "agent start -> first unit executing" without coupling to
/// component internals. Also supports open/close spans for durations.

namespace hoh::sim {

/// An interned trace label: a category, an event or span name, or an
/// attribute key. Labels are code literals and state names, a small
/// fixed set, so each distinct text is stored once in a process-wide
/// table that never shrinks, and a record holds an 8-byte pointer per
/// label instead of a 32-byte std::string. Converts to and compares
/// with std::string.
class TraceName {
 public:
  TraceName() : TraceName(std::string_view()) {}
  TraceName(std::string_view text);
  TraceName(const std::string& text) : TraceName(std::string_view(text)) {}
  TraceName(const char* text) : TraceName(std::string_view(text)) {}

  const std::string& str() const { return *text_; }
  operator const std::string&() const { return *text_; }
  const char* c_str() const { return text_->c_str(); }

  friend bool operator==(TraceName a, TraceName b) {
    return a.text_ == b.text_;
  }
  friend bool operator==(TraceName a, const std::string& b) {
    return *a.text_ == b;
  }
  friend bool operator==(TraceName a, const char* b) {
    return *a.text_ == b;
  }

 private:
  const std::string* text_;
};

/// One attribute as a record() call site writes it, e.g.
/// `{"unit", unit_id}`. Views: a record that a rollup discards copies
/// nothing.
using TraceAttr = std::pair<std::string_view, std::string_view>;

/// Attributes of one trace record: (key, value) pairs kept sorted by
/// key in one flat vector. Reads like the std::map it replaced (at,
/// find, count, ordered iteration; the first of duplicate keys wins)
/// but costs one allocation per record instead of one tree node per
/// attribute, which matters when a run keeps every record.
class TraceAttrs {
 public:
  using value_type = std::pair<TraceName, std::string>;
  using const_iterator = std::vector<value_type>::const_iterator;

  TraceAttrs() = default;
  TraceAttrs(std::initializer_list<TraceAttr> attrs);

  /// Throws std::out_of_range for a missing key, like std::map::at.
  const std::string& at(std::string_view key) const;
  const_iterator find(std::string_view key) const;
  std::size_t count(std::string_view key) const {
    return find(key) == end() ? 0 : 1;
  }
  /// Sets \p key to \p value, adding the key when it is missing.
  void insert_or_assign(std::string_view key, std::string value);

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

 private:
  std::vector<value_type> items_;
};

/// One trace record.
struct TraceEvent {
  common::Seconds time = 0.0;
  TraceName category;  // e.g. "pilot", "yarn", "unit"
  TraceName name;      // e.g. "agent_active", "container_allocated"
  TraceAttrs attrs;
};

/// A completed duration span.
struct TraceSpan {
  common::Seconds begin = 0.0;
  common::Seconds end = 0.0;
  TraceName category;
  TraceName name;
  std::string key;  // entity id the span belongs to

  common::Seconds duration() const { return end - begin; }
};

/// Aggregate kept instead of per-event storage for a rolled-up
/// category: occurrence count plus first/last timestamps per name.
struct TraceRollup {
  std::size_t count = 0;
  common::Seconds first = 0.0;
  common::Seconds last = 0.0;
};

/// Aggregate duration statistics for spans of a rolled-up category.
struct TraceSpanStats {
  std::size_t count = 0;
  common::Seconds total = 0.0;
  common::Seconds min = 0.0;
  common::Seconds max = 0.0;

  common::Seconds mean() const {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  }
};

/// Append-only trace store.
class Trace {
 public:
  /// Appends one record. The initializer-list form builds the stored
  /// attributes only when \p category keeps records (not rolled up).
  void record(common::Seconds time, std::string category, std::string name,
              std::initializer_list<TraceAttr> attrs);
  void record(common::Seconds time, std::string category, std::string name,
              TraceAttrs attrs = {});

  /// Rollup mode (DESIGN.md §13): a web-scale run emits millions of
  /// "unit" records whose per-event storage dominates peak RSS long
  /// before the model does. A rolled-up category keeps only
  /// per-(category, name) counters {count, first, last} and per-name
  /// span duration stats. For such a category find()/find_spans()
  /// return nothing (attributes are not retained); first()/last()
  /// synthesize attribute-free events from the counters, so coarse
  /// metrics (e.g. time of the last "Done") still work.
  void enable_rollup(const std::string& category);
  bool rollup_enabled(const std::string& category) const {
    return rollup_categories_.count(category) > 0;
  }

  /// Counter for a rolled-up (category, name); count == 0 when absent.
  TraceRollup rollup(const std::string& category,
                     const std::string& name) const;

  /// Span duration stats for a rolled-up (category, name).
  TraceSpanStats span_stats(const std::string& category,
                            const std::string& name) const;

  /// Opens a span keyed by (category, name, key); closing a span that was
  /// never opened is ignored, re-opening overwrites the begin time.
  void begin_span(common::Seconds time, const std::string& category,
                  const std::string& name, const std::string& key);
  void end_span(common::Seconds time, const std::string& category,
                const std::string& name, const std::string& key);

  /// Deques, not vectors: a kept-everything trace grows by blocks
  /// instead of doubling, so it never holds up to 2x its records.
  const std::deque<TraceEvent>& events() const { return events_; }
  const std::deque<TraceSpan>& spans() const { return spans_; }

  /// All events matching category (and name, when non-empty).
  std::vector<TraceEvent> find(const std::string& category,
                               const std::string& name = "") const;

  /// First event matching; nullopt when absent.
  std::optional<TraceEvent> first(const std::string& category,
                                  const std::string& name = "") const;
  std::optional<TraceEvent> last(const std::string& category,
                                 const std::string& name = "") const;

  /// Completed spans matching category/name (name empty = all).
  std::vector<TraceSpan> find_spans(const std::string& category,
                                    const std::string& name = "") const;

  /// Serializes all events to a JSON array (for offline inspection).
  common::Json to_json() const;

  void clear();

 private:
  std::deque<TraceEvent> events_;
  std::deque<TraceSpan> spans_;
  std::map<std::string, common::Seconds> open_spans_;
  std::set<std::string> rollup_categories_;
  std::map<std::pair<std::string, std::string>, TraceRollup> rollups_;
  std::map<std::pair<std::string, std::string>, TraceSpanStats> span_stats_;
};

}  // namespace hoh::sim
