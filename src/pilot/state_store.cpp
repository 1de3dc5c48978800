#include "pilot/state_store.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.h"
#include "net/message.h"
#include "pilot/transitions.h"

namespace hoh::pilot {

namespace {

/// A unit document as Json, under the keys of its fields; an empty list
/// is left out.
common::Json unit_json(const UnitRecord& unit) {
  const ComputeUnitDescription& d = *unit.description;
  common::Json desc;
  const auto put_list = [&desc](const char* key, const auto& values,
                                const auto& to_json) {
    if (values.empty()) return;
    common::JsonArray list;
    for (const auto& value : values) list.push_back(to_json(value));
    desc[key] = common::Json(std::move(list));
  };
  const auto text = [](const std::string& s) { return common::Json(s); };
  const auto staged = [](const StagedFile& f) {
    common::Json file;
    file["size"] = f.size;
    file["url"] = f.url.str();
    return file;
  };
  put_list("arguments", d.arguments, text);
  desc["cores"] = d.cores;
  put_list("depends_on", d.depends_on, text);
  desc["duration"] = d.duration;
  desc["executable"] = d.executable;
  desc["exit_code"] = d.exit_code;
  put_list("input_staging", d.input_staging, staged);
  desc["is_mpi"] = d.is_mpi;
  desc["memory_mb"] = d.memory_mb;
  desc["name"] = d.name;
  put_list("output_staging", d.output_staging, staged);
  put_list("preferred_nodes", d.preferred_nodes, text);
  common::Json doc;
  doc["description"] = std::move(desc);
  doc["pilot"] = unit.pilot;
  doc["state"] = to_string(unit.state);
  return doc;
}

/// The bucket of unit writes, as a watch key's bucket.
const std::string kUnitBucket(kUnitCollection);

/// The row \p index of \p units; throws NotFoundError when absent.
template <typename Units>
auto& unit_in(Units& units, UnitIndex index) {
  if (index >= units.size()) {
    throw common::NotFoundError("StateStore: no unit #" +
                                std::to_string(index));
  }
  return units[index];
}

}  // namespace

std::vector<std::pair<std::string, common::Json>> StateStore::find_all(
    const std::string& collection) const {
  if (collection != kUnitCollection) {
    throw common::ConfigError("StateStore: no Json collection " +
                              collection);
  }
  common::MutexLock lock(mu_);
  ++ops_;
  std::vector<std::pair<std::string, common::Json>> out;
  out.reserve(units_.size());
  for (const Unit& unit : units_) {
    out.emplace_back(unit.id, unit_json(unit.record));
  }
  // Index order is put order, which id order leaves past unit.9999.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

UnitIndex StateStore::put_unit(const std::string& id, UnitRecord unit) {
  UnitIndex index = 0;
  bool wake = false;
  {
    common::MutexLock lock(mu_);
    ++ops_;
    ++muts_;
    const auto [it, added] =
        unit_index_.try_emplace(id, static_cast<UnitIndex>(units_.size()));
    index = it->second;
    if (added) {
      units_.push_back(Unit{id, std::move(unit), {}});
    } else {
      units_[index].record = std::move(unit);
    }
    record_write(index);
    wake = notify(WatchEventType::kPut, kUnitBucket, id);
  }
  if (wake) schedule_delivery();
  return index;
}

std::optional<UnitIndex> StateStore::unit_index(const std::string& id) const {
  common::MutexLock lock(mu_);
  const auto it = unit_index_.find(id);
  if (it == unit_index_.end()) return std::nullopt;
  return it->second;
}

std::string StateStore::unit_id(UnitIndex index) const {
  common::MutexLock lock(mu_);
  return unit_in(units_, index).id;
}

UnitRunTimes StateStore::unit_run_times(UnitIndex index) const {
  common::MutexLock lock(mu_);
  return unit_in(units_, index).times;
}

std::size_t StateStore::unit_count() const {
  common::MutexLock lock(mu_);
  return units_.size();
}

void StateStore::put_heartbeat(const std::string& pilot,
                               HeartbeatRecord heartbeat) {
  bool wake = false;
  {
    common::MutexLock lock(mu_);
    ++ops_;
    ++muts_;
    heartbeats_.insert_or_assign(pilot, heartbeat);
    wake = notify(WatchEventType::kPut, std::string(kHeartbeatBucket), pilot);
  }
  if (wake) schedule_delivery();
}

std::optional<HeartbeatRecord> StateStore::heartbeat(
    const std::string& pilot) const {
  common::MutexLock lock(mu_);
  ++ops_;
  const auto it = heartbeats_.find(pilot);
  if (it == heartbeats_.end()) return std::nullopt;
  return it->second;
}

UnitState StateStore::unit_state(UnitIndex index) const {
  common::MutexLock lock(mu_);
  ++ops_;
  return unit_in(units_, index).record.state;
}

SharedDescription StateStore::unit_description(UnitIndex index) const {
  common::MutexLock lock(mu_);
  ++ops_;
  if (index >= units_.size()) return nullptr;
  return units_[index].record.description;
}

void StateStore::set_unit_state(UnitIndex index, UnitState state,
                                const std::string& pilot) {
  bool wake = false;
  {
    common::MutexLock lock(mu_);
    ++ops_;
    Unit& unit = unit_in(units_, index);
    // Lifecycle gate: the store is the single path every unit state write
    // takes (agent write-back, Unit-Manager cancellation and requeue), so
    // an illegal edge is stopped here no matter which component attempts
    // it. Watchers are notified only after the gate passed — they never
    // observe an illegal write.
    validate_transition(unit.record.state, state, unit.id);
    const common::Seconds now = engine_.now();
    const auto bits = std::bit_cast<std::uint64_t>(now);
    char time_bytes[sizeof bits];
    for (std::size_t i = 0; i < sizeof bits; ++i) {
      time_bytes[i] = static_cast<char>(bits >> (8 * i));
    }
    fold_schedule({std::string_view(time_bytes, sizeof bits), unit.id,
                   to_string(state)});
    unit.record.state = state;
    if (state == UnitState::kExecuting) unit.times.executing = now;
    if (state == UnitState::kDone) unit.times.done = now;
    if (!pilot.empty()) unit.record.pilot = pilot;
    ++muts_;
    record_write(index);
    wake = notify(WatchEventType::kUpdate, kUnitBucket, unit.id);
  }
  if (wake) schedule_delivery();
}

void StateStore::queue_push(const std::string& queue, UnitIndex index) {
  bool wake = false;
  {
    common::MutexLock lock(mu_);
    ++ops_;
    const std::string& id = unit_in(units_, index).id;
    ++muts_;
    queues_[queue].push_back(index);
    wake = notify(WatchEventType::kQueuePush, queue, id);
  }
  if (wake) schedule_delivery();
}

std::vector<UnitIndex> StateStore::queue_pop_all(const std::string& queue) {
  common::MutexLock lock(mu_);
  ++ops_;
  ++muts_;
  auto it = queues_.find(queue);
  if (it == queues_.end()) return {};
  return std::exchange(it->second, {});
}

std::size_t StateStore::queue_depth(const std::string& queue) const {
  common::MutexLock lock(mu_);
  auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : it->second.size();
}

std::uint64_t StateStore::op_count() const {
  common::MutexLock lock(mu_);
  return ops_;
}

std::uint64_t StateStore::mutation_count() const {
  common::MutexLock lock(mu_);
  return muts_;
}

std::uint64_t StateStore::schedule_digest() const {
  common::MutexLock lock(mu_);
  return schedule_digest_;
}

void StateStore::record_placement(const std::string& unit,
                                  const std::string& nodes) {
  common::MutexLock lock(mu_);
  fold_schedule({"placed", unit, nodes});
}

void StateStore::fold_schedule(
    std::initializer_list<std::string_view> parts) {
  for (const std::string_view part : parts) {
    schedule_digest_ =
        common::fnv1a(common::fnv1a(schedule_digest_, part), "\n");
  }
}

std::uint64_t StateStore::open_feed() {
  common::MutexLock lock(mu_);
  const std::uint64_t id = next_feed_id_++;
  feeds_.emplace(id, std::vector<UnitIndex>{});
  return id;
}

std::vector<UnitIndex> StateStore::drain_feed(std::uint64_t feed) {
  common::MutexLock lock(mu_);
  auto it = feeds_.find(feed);
  if (it == feeds_.end()) return {};
  return std::exchange(it->second, {});
}

void StateStore::close_feed(std::uint64_t feed) {
  common::MutexLock lock(mu_);
  feeds_.erase(feed);
}

void StateStore::record_write(UnitIndex index) {
  for (auto& [feed_id, units] : feeds_) units.push_back(index);
}

WatchHandle StateStore::watch(const std::string& bucket,
                              const std::string& key_prefix,
                              WatchCallback callback) {
  common::MutexLock lock(mu_);
  const std::uint64_t id = next_watch_id_++;
  watchers_.emplace(id, Watcher{bucket, std::move(callback)});
  by_bucket_[bucket].push_back(BucketWatcher{id, key_prefix});
  return WatchHandle(id);
}

bool StateStore::unwatch(WatchHandle handle) {
  if (!handle.valid()) return false;
  common::MutexLock lock(mu_);
  const auto it = watchers_.find(handle.id_);
  if (it == watchers_.end() || it->second.retired) return false;
  const auto bucket = by_bucket_.find(it->second.bucket);
  std::erase_if(bucket->second, [&handle](const BucketWatcher& w) {
    return w.id == handle.id_;
  });
  if (bucket->second.empty()) by_bucket_.erase(bucket);
  if (it->second.running > 0) {
    it->second.retired = true;  // deliver_one() erases it when done
  } else {
    watchers_.erase(it);
  }
  return true;
}

std::size_t StateStore::watcher_count() const {
  common::MutexLock lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      watchers_.begin(), watchers_.end(),
      [](const auto& entry) { return !entry.second.retired; }));
}

bool StateStore::notify(WatchEventType type, const std::string& bucket,
                        const std::string& key) {
  // Snapshot the ids of matching watchers; resolve them again at delivery
  // time so an unwatch between mutation and delivery (or during delivery
  // of the same mutation to an earlier watcher) suppresses the callback.
  // Coalesced delivery: mutations join one FIFO, and only the first one
  // pending schedules the zero-delay drain tick. A burst of k mutations
  // at one instant costs one engine event instead of k.
  const auto watching = by_bucket_.find(bucket);
  if (watching == by_bucket_.end()) return false;
  std::vector<std::uint64_t> targets;
  for (const BucketWatcher& w : watching->second) {
    if (key.starts_with(w.prefix)) targets.push_back(w.id);
  }
  if (targets.empty()) return false;
  pending_deliveries_.push_back(
      PendingDelivery{std::move(targets), WatchEvent{type, bucket, key}});
  return !std::exchange(delivery_scheduled_, true);
}

void StateStore::schedule_delivery() {
  engine_.schedule(0.0, [this] { deliver_pending(); });
}

void StateStore::deliver_pending() {
  // Swap the batch out first: mutations made by the callbacks below go
  // to a fresh tick at the same timestamp, preserving FIFO order.
  std::vector<PendingDelivery> batch;
  {
    common::MutexLock lock(mu_);
    batch.swap(pending_deliveries_);
    delivery_scheduled_ = false;
  }
  if (transport_ == nullptr) {
    for (const PendingDelivery& delivery : batch) {
      for (const std::uint64_t id : delivery.targets) {
        deliver_one(id, delivery.event);
      }
    }
    return;
  }
  // Message boundary (DESIGN.md §14): the fan-out crosses the transport
  // as one WatchNotify per run of consecutive (mutation, target) pairs
  // with the same watcher, event type and bucket, its keys kept under
  // kBatchBytes. The store.notify endpoint delivers the keys one at a
  // time in list order, so the callbacks run in exactly the per-pair
  // order.
  net::WatchNotify run;
  std::size_t run_bytes = 0;
  const auto send_run = [this, &run, &run_bytes] {
    if (run.keys.empty()) return;
    net::send(*transport_, "store.notify", run);
    run.keys.clear();
    run_bytes = 0;
  };
  for (const PendingDelivery& delivery : batch) {
    const auto type = static_cast<std::uint8_t>(delivery.event.type);
    const std::size_t key_bytes = 4 + delivery.event.key.size();  // u32 prefix
    for (const std::uint64_t id : delivery.targets) {
      if (run.watcher_id != id || run.event_type != type ||
          run.bucket != delivery.event.bucket ||
          run_bytes + key_bytes >= net::kBatchBytes) {
        send_run();
        run.watcher_id = id;
        run.event_type = type;
        run.bucket = delivery.event.bucket;
      }
      run.keys.push_back(delivery.event.key);
      run_bytes += key_bytes;
    }
  }
  send_run();
}

void StateStore::deliver_one(std::uint64_t watcher_id,
                             const WatchEvent& event) {
  // The callback runs unlocked, in place: the std::map node stays put
  // while it runs, and an unwatch meanwhile (by this callback or a
  // sibling's) only retires the watcher; the last delivery out erases
  // it.
  Watcher* watcher = nullptr;
  {
    common::MutexLock lock(mu_);
    const auto it = watchers_.find(watcher_id);
    if (it == watchers_.end() || it->second.retired) return;
    watcher = &it->second;
    ++watcher->running;
  }
  struct Leave {
    StateStore& store;
    std::uint64_t id;
    Watcher& watcher;
    ~Leave() {
      common::MutexLock lock(store.mu_);
      --watcher.running;
      if (watcher.running == 0 && watcher.retired) store.watchers_.erase(id);
    }
  } leave{*this, watcher_id, *watcher};
  watcher->fn(event);
}

void StateStore::set_transport(net::Transport* transport) {
  if (transport_ != nullptr) {
    transport_->unregister_endpoint("store.notify");
    transport_->unregister_endpoint("store.ingest");
  }
  transport_ = transport;
  if (transport_ == nullptr) return;
  transport_->register_endpoint(
      "store.notify", [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::WatchNotify>(env);
        WatchEvent event{static_cast<WatchEventType>(msg.event_type),
                         msg.bucket, {}};
        // One delivery per key: the watcher is re-resolved for each, so
        // an unwatch by an earlier key's callback stops the rest.
        for (const std::string& key : msg.keys) {
          event.key = key;
          deliver_one(msg.watcher_id, event);
        }
        return net::make_envelope(net::Ack{});
      });
  transport_->register_endpoint(
      "store.ingest", [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::StoreIngest>(env);
        if (msg.collection != kUnitCollection) {
          throw net::CodecError("store.ingest: not a unit document: " +
                                msg.collection);
        }
        // Every document is decoded before anything is put: a malformed
        // one refuses the whole message and leaves no record.
        std::vector<UnitRecord> records;
        records.reserve(msg.units.size());
        for (const auto& unit : msg.units) {
          records.push_back(unpack_unit_document(unit.document));
        }
        for (std::size_t i = 0; i < msg.units.size(); ++i) {
          const auto& unit = msg.units[i];
          const UnitIndex index = put_unit(unit.unit_id, std::move(records[i]));
          if (!unit.queue.empty()) queue_push(unit.queue, index);
        }
        return net::make_envelope(net::Ack{});
      });
}

}  // namespace hoh::pilot
