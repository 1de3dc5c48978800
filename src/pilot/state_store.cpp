#include "pilot/state_store.h"

#include <utility>

#include "common/error.h"
#include "net/json_codec.h"
#include "pilot/transitions.h"

namespace hoh::pilot {

void StateStore::put(const std::string& collection, const std::string& id,
                     common::Json document) {
  {
    common::MutexLock lock(mu_);
    ++ops_;
    ++muts_;
    collections_[collection][id] = std::move(document);
  }
  notify(WatchEventType::kPut, collection, id);
}

std::optional<common::Json> StateStore::get(const std::string& collection,
                                            const std::string& id) const {
  common::MutexLock lock(mu_);
  ++ops_;
  auto cit = collections_.find(collection);
  if (cit == collections_.end()) return std::nullopt;
  auto dit = cit->second.find(id);
  if (dit == cit->second.end()) return std::nullopt;
  return dit->second;
}

std::optional<common::Json> StateStore::get_field(
    const std::string& collection, const std::string& id,
    const std::string& field) const {
  common::MutexLock lock(mu_);
  ++ops_;
  auto cit = collections_.find(collection);
  if (cit == collections_.end()) return std::nullopt;
  auto dit = cit->second.find(id);
  if (dit == cit->second.end()) return std::nullopt;
  if (!dit->second.is_object() || !dit->second.contains(field)) {
    return std::nullopt;
  }
  return dit->second.at(field);
}

void StateStore::update(const std::string& collection, const std::string& id,
                        const common::JsonObject& fields) {
  {
    common::MutexLock lock(mu_);
    ++ops_;
    auto cit = collections_.find(collection);
    if (cit == collections_.end() || cit->second.count(id) == 0) {
      throw common::NotFoundError("StateStore: no document " + collection +
                                  "/" + id);
    }
    common::Json& doc = cit->second.at(id);
    // Lifecycle gate: the store is the single path every unit state write
    // takes (agent write-back, Unit-Manager cancellation), so an illegal
    // edge is stopped here no matter which component attempts it. Watchers
    // are notified only after the gate passed — they never observe an
    // illegal write.
    if (collection == "unit") {
      auto state_field = fields.find("state");
      if (state_field != fields.end() && doc.contains("state")) {
        validate_transition(
            unit_state_from_string(doc.at("state").as_string()),
            unit_state_from_string(state_field->second.as_string()), id);
      }
    }
    for (const auto& [k, v] : fields) doc[k] = v;
    ++muts_;
  }
  notify(WatchEventType::kUpdate, collection, id);
}

std::vector<std::pair<std::string, common::Json>> StateStore::find_all(
    const std::string& collection) const {
  common::MutexLock lock(mu_);
  ++ops_;
  std::vector<std::pair<std::string, common::Json>> out;
  auto cit = collections_.find(collection);
  if (cit == collections_.end()) return out;
  out.assign(cit->second.begin(), cit->second.end());
  return out;
}

void StateStore::queue_push(const std::string& queue, const std::string& id) {
  {
    common::MutexLock lock(mu_);
    ++ops_;
    ++muts_;
    queues_[queue].push_back(id);
  }
  notify(WatchEventType::kQueuePush, queue, id);
}

std::vector<std::string> StateStore::queue_pop_all(const std::string& queue) {
  common::MutexLock lock(mu_);
  ++ops_;
  ++muts_;
  std::vector<std::string> out;
  auto it = queues_.find(queue);
  if (it == queues_.end()) return out;
  out.assign(it->second.begin(), it->second.end());
  it->second.clear();
  return out;
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

WatchHandle StateStore::watch(const std::string& bucket,
                              const std::string& key_prefix,
                              WatchCallback callback) {
  common::MutexLock lock(mu_);
  const std::uint64_t id = next_watch_id_++;
  watchers_.emplace(id, Watcher{bucket, key_prefix, std::move(callback)});
  return WatchHandle(id);
}

bool StateStore::unwatch(WatchHandle handle) {
  if (!handle.valid()) return false;
  common::MutexLock lock(mu_);
  return watchers_.erase(handle.id_) > 0;
}

std::size_t StateStore::watcher_count() const {
  common::MutexLock lock(mu_);
  return watchers_.size();
}

void StateStore::notify(WatchEventType type, const std::string& bucket,
                        const std::string& key) {
  // Snapshot the ids of matching watchers; resolve them again at delivery
  // time so an unwatch between mutation and delivery (or during delivery
  // of the same mutation to an earlier watcher) suppresses the callback.
  // Coalesced delivery: mutations join one FIFO, and only the first one
  // pending schedules the zero-delay drain tick. A burst of k mutations
  // at one instant costs one engine event instead of k.
  bool need_schedule = false;
  {
    common::MutexLock lock(mu_);
    std::vector<std::uint64_t> targets;
    for (const auto& [id, w] : watchers_) {
      if (w.bucket == bucket && key.rfind(w.prefix, 0) == 0) {
        targets.push_back(id);
      }
    }
    if (targets.empty()) return;
    pending_deliveries_.push_back(
        PendingDelivery{std::move(targets), WatchEvent{type, bucket, key}});
    if (!delivery_scheduled_) {
      delivery_scheduled_ = true;
      need_schedule = true;
    }
  }
  if (need_schedule) {
    engine_.schedule(0.0, [this] { deliver_pending(); });
  }
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
  for (const PendingDelivery& delivery : batch) {
    for (const std::uint64_t id : delivery.targets) {
      if (transport_ != nullptr) {
        // Message boundary (DESIGN.md §14): the fan-out crosses the
        // transport as one WatchNotify per target; the store.notify
        // endpoint re-resolves the watcher and runs the callback, so
        // delivery semantics are identical in both modes.
        net::send(*transport_, "store.notify",
                  net::WatchNotify{
                      id, static_cast<std::uint8_t>(delivery.event.type),
                      delivery.event.bucket, delivery.event.key});
      } else {
        deliver_one(id, delivery.event);
      }
    }
  }
}

void StateStore::deliver_one(std::uint64_t watcher_id,
                             const WatchEvent& event) {
  WatchCallback fn;
  {
    common::MutexLock lock(mu_);
    auto it = watchers_.find(watcher_id);
    if (it == watchers_.end()) return;
    fn = it->second.fn;
  }
  fn(event);
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
        deliver_one(msg.watcher_id,
                    WatchEvent{static_cast<WatchEventType>(msg.event_type),
                               msg.bucket, msg.key});
        return net::make_envelope(net::Ack{});
      });
  transport_->register_endpoint(
      "store.ingest", [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::StoreIngest>(env);
        net::Unpacker u(msg.document);
        put(msg.collection, msg.unit_id, net::unpack_json(u));
        if (!msg.queue.empty()) queue_push(msg.queue, msg.unit_id);
        return net::make_envelope(net::Ack{});
      });
}

}  // namespace hoh::pilot
