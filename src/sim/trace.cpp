#include "sim/trace.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/thread_annotations.h"

namespace hoh::sim {
namespace {

std::string span_key(const std::string& category, const std::string& name,
                     const std::string& key) {
  return category + "\x1f" + name + "\x1f" + key;
}

/// Every TraceName text, each stored once. std::set nodes never move,
/// so the pointers TraceName holds stay valid for the process lifetime.
struct NameTable {
  common::Mutex mu;
  std::set<std::string, std::less<>> texts HOH_GUARDED_BY(mu);
};

NameTable& name_table() {
  static NameTable table;
  return table;
}

/// First attribute in \p items whose key is not less than \p key.
template <typename Items>
auto lower_bound_key(Items& items, std::string_view key) {
  return std::lower_bound(
      items.begin(), items.end(), key,
      [](const TraceAttrs::value_type& item, std::string_view k) {
        return item.first.str() < k;
      });
}

}  // namespace

TraceName::TraceName(std::string_view text) {
  NameTable& table = name_table();
  common::MutexLock lock(table.mu);
  auto it = table.texts.find(text);
  if (it == table.texts.end()) it = table.texts.emplace(text).first;
  text_ = &*it;
}

TraceAttrs::TraceAttrs(std::initializer_list<TraceAttr> attrs) {
  items_.reserve(attrs.size());
  for (const auto& [key, value] : attrs) {
    const auto it = lower_bound_key(items_, key);
    if (it != items_.end() && it->first.str() == key) continue;  // first wins
    items_.emplace(it, TraceName(key), std::string(value));
  }
}

TraceAttrs::const_iterator TraceAttrs::find(std::string_view key) const {
  const auto it = lower_bound_key(items_, key);
  return it != items_.end() && it->first.str() == key ? it : items_.end();
}

const std::string& TraceAttrs::at(std::string_view key) const {
  const auto it = find(key);
  if (it == items_.end()) {
    throw std::out_of_range("TraceAttrs: no attribute " + std::string(key));
  }
  return it->second;
}

void TraceAttrs::insert_or_assign(std::string_view key, std::string value) {
  const auto it = lower_bound_key(items_, key);
  if (it != items_.end() && it->first.str() == key) {
    it->second = std::move(value);
  } else {
    items_.emplace(it, TraceName(key), std::move(value));
  }
}

void Trace::record(common::Seconds time, std::string category,
                   std::string name, std::initializer_list<TraceAttr> attrs) {
  TraceAttrs kept;  // a rolled-up category keeps no attributes
  if (!rollup_enabled(category)) kept = TraceAttrs(attrs);
  record(time, std::move(category), std::move(name), std::move(kept));
}

void Trace::record(common::Seconds time, std::string category,
                   std::string name, TraceAttrs attrs) {
  if (rollup_enabled(category)) {
    TraceRollup& r = rollups_[{std::move(category), std::move(name)}];
    if (r.count == 0) r.first = time;
    r.last = time;
    ++r.count;
    return;
  }
  events_.push_back(
      TraceEvent{time, std::move(category), std::move(name), std::move(attrs)});
}

void Trace::enable_rollup(const std::string& category) {
  rollup_categories_.insert(category);
}

TraceRollup Trace::rollup(const std::string& category,
                          const std::string& name) const {
  const auto it = rollups_.find({category, name});
  return it == rollups_.end() ? TraceRollup{} : it->second;
}

TraceSpanStats Trace::span_stats(const std::string& category,
                                 const std::string& name) const {
  const auto it = span_stats_.find({category, name});
  return it == span_stats_.end() ? TraceSpanStats{} : it->second;
}

void Trace::begin_span(common::Seconds time, const std::string& category,
                       const std::string& name, const std::string& key) {
  open_spans_[span_key(category, name, key)] = time;
}

void Trace::end_span(common::Seconds time, const std::string& category,
                     const std::string& name, const std::string& key) {
  auto it = open_spans_.find(span_key(category, name, key));
  if (it == open_spans_.end()) return;
  if (rollup_enabled(category)) {
    const common::Seconds duration = time - it->second;
    TraceSpanStats& s = span_stats_[{category, name}];
    if (s.count == 0) {
      s.min = duration;
      s.max = duration;
    } else {
      s.min = std::min(s.min, duration);
      s.max = std::max(s.max, duration);
    }
    s.total += duration;
    ++s.count;
    open_spans_.erase(it);
    return;
  }
  spans_.push_back(TraceSpan{it->second, time, category, name, key});
  open_spans_.erase(it);
}

std::vector<TraceEvent> Trace::find(const std::string& category,
                                    const std::string& name) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.category == category && (name.empty() || e.name == name)) {
      out.push_back(e);
    }
  }
  return out;
}

std::optional<TraceEvent> Trace::first(const std::string& category,
                                       const std::string& name) const {
  if (rollup_enabled(category)) {
    // Synthesize an attribute-free event from the rollup counters.
    const TraceRollup* best = nullptr;
    const std::string* best_name = nullptr;
    for (const auto& [key, r] : rollups_) {
      if (key.first != category || r.count == 0) continue;
      if (!name.empty() && key.second != name) continue;
      if (best == nullptr || r.first < best->first) {
        best = &r;
        best_name = &key.second;
      }
    }
    if (best == nullptr) return std::nullopt;
    return TraceEvent{best->first, category, *best_name, {}};
  }
  for (const auto& e : events_) {
    if (e.category == category && (name.empty() || e.name == name)) return e;
  }
  return std::nullopt;
}

std::optional<TraceEvent> Trace::last(const std::string& category,
                                      const std::string& name) const {
  if (rollup_enabled(category)) {
    const TraceRollup* best = nullptr;
    const std::string* best_name = nullptr;
    for (const auto& [key, r] : rollups_) {
      if (key.first != category || r.count == 0) continue;
      if (!name.empty() && key.second != name) continue;
      if (best == nullptr || r.last > best->last) {
        best = &r;
        best_name = &key.second;
      }
    }
    if (best == nullptr) return std::nullopt;
    return TraceEvent{best->last, category, *best_name, {}};
  }
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->category == category && (name.empty() || it->name == name)) {
      return *it;
    }
  }
  return std::nullopt;
}

std::vector<TraceSpan> Trace::find_spans(const std::string& category,
                                         const std::string& name) const {
  std::vector<TraceSpan> out;
  for (const auto& s : spans_) {
    if (s.category == category && (name.empty() || s.name == name)) {
      out.push_back(s);
    }
  }
  return out;
}

common::Json Trace::to_json() const {
  common::JsonArray arr;
  for (const auto& e : events_) {
    common::JsonObject obj;
    obj["t"] = e.time;
    obj["category"] = e.category.str();
    obj["name"] = e.name.str();
    common::JsonObject attrs;
    for (const auto& [k, v] : e.attrs) attrs[k.str()] = v;
    obj["attrs"] = std::move(attrs);
    arr.emplace_back(std::move(obj));
  }
  return common::Json(std::move(arr));
}

void Trace::clear() {
  events_.clear();
  spans_.clear();
  open_spans_.clear();
  rollups_.clear();
  span_stats_.clear();
}

}  // namespace hoh::sim
