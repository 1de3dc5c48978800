#include "sim/trace.h"

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>

#include "common/thread_annotations.h"

namespace hoh::sim {
namespace {

std::size_t hash_combine(std::size_t seed, std::size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::size_t hash_identity(TraceName name) {
  return std::hash<const void*>{}(name.identity());
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

std::size_t Trace::NamePairHash::operator()(const NamePair& p) const {
  return hash_combine(hash_identity(p.first), hash_identity(p.second));
}

std::size_t Trace::OpenSpanHash::operator()(const OpenSpanRef& s) const {
  return hash_combine(
      hash_combine(hash_identity(s.category), hash_identity(s.name)),
      std::hash<std::string_view>{}(s.key));
}

void Trace::record(common::Seconds time, TraceName category, TraceName name,
                   std::initializer_list<TraceAttr> attrs) {
  TraceAttrs kept;  // a rolled-up category keeps no attributes
  if (!rollup_enabled(category)) kept = TraceAttrs(attrs);
  record(time, category, name, std::move(kept));
}

void Trace::record(common::Seconds time, TraceName category, TraceName name,
                   TraceAttrs attrs) {
  if (rollup_enabled(category)) {
    TraceRollup& r = rollups_[{category, name}];
    if (r.count == 0) r.first = time;
    r.last = time;
    ++r.count;
    return;
  }
  events_.push_back(TraceEvent{time, category, name, std::move(attrs)});
}

void Trace::enable_rollup(TraceName category) {
  if (!rollup_enabled(category)) rollup_categories_.push_back(category);
}

bool Trace::rollup_enabled(TraceName category) const {
  return std::find(rollup_categories_.begin(), rollup_categories_.end(),
                   category) != rollup_categories_.end();
}

TraceRollup Trace::rollup(TraceName category, TraceName name) const {
  const auto it = rollups_.find({category, name});
  return it == rollups_.end() ? TraceRollup{} : it->second;
}

TraceSpanStats Trace::span_stats(TraceName category, TraceName name) const {
  const auto it = span_stats_.find({category, name});
  return it == span_stats_.end() ? TraceSpanStats{} : it->second;
}

void Trace::begin_span(common::Seconds time, TraceName category,
                       TraceName name, std::string_view key) {
  open_spans_.insert_or_assign(OpenSpan{category, name, std::string(key)},
                               time);
}

void Trace::end_span(common::Seconds time, TraceName category,
                     TraceName name, std::string_view key) {
  const auto it = open_spans_.find(OpenSpanRef{category, name, key});
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
  auto open = open_spans_.extract(it);
  spans_.push_back(TraceSpan{open.mapped(), time, category, name,
                             std::move(open.key().key)});
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

const std::pair<const Trace::NamePair, TraceRollup>* Trace::pick_rollup(
    TraceName category, const std::string& name, bool earliest) const {
  const std::pair<const NamePair, TraceRollup>* best = nullptr;
  // hoh-analyze: allow-next-line(det-unordered-emit) -- ties go by name
  for (const auto& entry : rollups_) {
    const auto& [key, r] = entry;
    if (key.first != category || r.count == 0) continue;
    if (!name.empty() && key.second != name) continue;
    if (best == nullptr) {
      best = &entry;
      continue;
    }
    const common::Seconds t = earliest ? r.first : r.last;
    const common::Seconds best_t =
        earliest ? best->second.first : best->second.last;
    if ((earliest ? t < best_t : t > best_t) ||
        (t == best_t && key.second.str() < best->first.second.str())) {
      best = &entry;
    }
  }
  return best;
}

std::optional<TraceEvent> Trace::first(const std::string& category,
                                       const std::string& name) const {
  if (rollup_enabled(category)) {
    // Synthesize an attribute-free event from the rollup counters.
    const auto* best = pick_rollup(category, name, true);
    if (best == nullptr) return std::nullopt;
    return TraceEvent{best->second.first, category, best->first.second, {}};
  }
  for (const auto& e : events_) {
    if (e.category == category && (name.empty() || e.name == name)) return e;
  }
  return std::nullopt;
}

std::optional<TraceEvent> Trace::last(const std::string& category,
                                      const std::string& name) const {
  if (rollup_enabled(category)) {
    const auto* best = pick_rollup(category, name, false);
    if (best == nullptr) return std::nullopt;
    return TraceEvent{best->second.last, category, best->first.second, {}};
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
