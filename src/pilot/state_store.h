#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_annotations.h"
#include "net/transport.h"
#include "sim/engine.h"

/// \file state_store.h
/// The shared document store the Unit-Manager and the agents communicate
/// through — the paper's MongoDB instance ("The Unit-Manager queues new
/// Compute-Units using a shared MongoDB instance (step U.2). The
/// RADICAL-Pilot-Agent periodically checks for new Compute-Units (U.3)").
/// Documents are JSON; named queues provide the U.2/U.3 handoff. Store
/// operations take no simulated time: the store enters the simulation
/// only through its zero-delay watch-delivery ticks.
///
/// Thread-safety: the store is one lock domain. Every operation takes
/// the single annotated mu_, like the real store's server-side
/// concurrency control. The store is also the single chokepoint every
/// unit state write goes through, so update() enforces the Fig. 3
/// lifecycle-transition table (see pilot/transitions.h): merging an
/// illegal "state" value into a "unit" document throws StateError
/// instead of corrupting the lifecycle.
///
/// Watch/notify (etcd/ZooKeeper-style, DESIGN.md §10): watch() registers
/// a callback on a bucket and key prefix; every put/update/queue_push
/// under that bucket fires the matching watchers. Delivery goes through
/// the sim engine as a coalesced zero-delay tick: mutations enqueue onto
/// one FIFO and a single drain event delivers every mutation pending at
/// that instant, so (a) callbacks never run under the store mutex,
/// (b) delivery is deterministic — mutations in FIFO order, watchers in
/// registration order — and (c) the transition gate in update() has
/// already validated the write by the time any watcher sees it.
/// Mutations performed *by* a watch callback go to a fresh tick at the
/// same timestamp.

namespace hoh::pilot {

/// What kind of store mutation fired a watch.
enum class WatchEventType { kPut, kUpdate, kQueuePush };

/// Delivered to watch callbacks. `bucket` is the collection name for
/// kPut/kUpdate and the queue name for kQueuePush; `key` is the document
/// id resp. the pushed queue element.
struct WatchEvent {
  WatchEventType type;
  std::string bucket;
  std::string key;
};

/// Handle for a registered watch; usable to unwatch.
class WatchHandle {
 public:
  WatchHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class StateStore;
  explicit WatchHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// In-memory document store with named FIFO queues.
class StateStore {
 public:
  using WatchCallback = std::function<void(const WatchEvent&)>;

  explicit StateStore(sim::Engine& engine) : engine_(engine) {}

  ~StateStore() { set_transport(nullptr); }  // drop transport endpoints

  /// Inert: the store is one lock domain (DESIGN.md §13). Kept only for
  /// the perfbench/ caller that still calls it.
  void set_shard_count(std::size_t /*count*/) {}

  /// Inserts or replaces a document.
  void put(const std::string& collection, const std::string& id,
           common::Json document);

  /// Reads a document; nullopt when absent.
  std::optional<common::Json> get(const std::string& collection,
                                  const std::string& id) const;

  /// Reads one top-level field of a document; nullopt when the document
  /// or the field is absent. Same op accounting as get(), but copies one
  /// value instead of the whole document — the hot path for the
  /// Unit-Manager's barrier polls, which read only "state" out of a
  /// million unit documents (DESIGN.md §13).
  std::optional<common::Json> get_field(const std::string& collection,
                                        const std::string& id,
                                        const std::string& field) const;

  /// Merges \p fields into an existing document (top-level keys). A
  /// "state" merge into the "unit" collection is validated against the
  /// unit lifecycle-transition table and throws StateError on an illegal
  /// edge (e.g. Done -> Executing after a stale requeue).
  void update(const std::string& collection, const std::string& id,
              const common::JsonObject& fields);

  /// All documents of a collection (id order).
  std::vector<std::pair<std::string, common::Json>> find_all(
      const std::string& collection) const;

  /// Appends an id to a named queue.
  void queue_push(const std::string& queue, const std::string& id);

  /// Drains the queue (agent poll). Returns ids in FIFO order.
  std::vector<std::string> queue_pop_all(const std::string& queue);

  std::size_t queue_depth(const std::string& queue) const;

  /// Total simulated operations performed (for overhead accounting).
  std::uint64_t op_count() const;

  /// Total *mutations* (put/update/queue push/pop) — reads excluded.
  std::uint64_t mutation_count() const;

  /// Document writes (put/update) to one \p collection; queue traffic
  /// and other collections leave it unchanged. Not an op. A poller keyed
  /// on mutation_count("unit") skips its rescan across writes that
  /// cannot change a unit state, such as heartbeat leases (DESIGN.md
  /// §13).
  std::uint64_t mutation_count(const std::string& collection) const;

  /// Opens a write feed on \p collection: from now on the id of every
  /// document put/updated there is appended to the feed (once per
  /// write, in write order) until drain_feed() hands the ids over. A
  /// poller that drains its feed re-reads only the documents written
  /// since its last poll (DESIGN.md §13). Feeds are not ops and fire no
  /// watch. Returns a non-zero feed id.
  std::uint64_t open_feed(const std::string& collection);

  /// The ids written since the feed opened or was last drained; empties
  /// the feed. An unknown (closed) feed yields nothing.
  std::vector<std::string> drain_feed(std::uint64_t feed);

  /// Stops recording into \p feed and drops what it holds.
  void close_feed(std::uint64_t feed);

  /// Registers a watch on \p bucket (a collection or queue name) for keys
  /// starting with \p key_prefix (empty = every key). The callback fires
  /// once per matching mutation, delivered through the sim engine at the
  /// mutation's timestamp (coalesced zero-delay tick). Watchers
  /// registered earlier fire earlier for the same mutation.
  WatchHandle watch(const std::string& bucket, const std::string& key_prefix,
                    WatchCallback callback);

  /// Removes a watch. Pending deliveries for it are dropped (the watcher
  /// set is re-checked at delivery time). Returns false if the handle was
  /// invalid or already unwatched.
  bool unwatch(WatchHandle handle);

  /// Number of registered watchers (teardown hygiene checks).
  std::size_t watcher_count() const;

  /// Attaches the store to the session's message boundary (DESIGN.md
  /// §14): registers the "store.notify" endpoint (watch fan-out) and
  /// the "store.ingest" endpoint (the U.2 document put + queue push as
  /// one message), and routes every watch delivery through
  /// transport->send as a WatchNotify. A Session always wires this; a
  /// store constructed standalone (unit tests) keeps the direct
  /// delivery path. Passing nullptr detaches.
  void set_transport(net::Transport* transport);

  net::Transport* transport() const { return transport_; }

 private:
  struct Feed {
    std::string collection;
    std::vector<std::string> ids;
  };

  /// Appends \p id to every feed on \p collection (under mu_).
  void record_write(const std::string& collection, const std::string& id)
      HOH_REQUIRES(mu_);

  struct Watcher {
    std::string bucket;
    std::string prefix;
    WatchCallback fn;
  };

  /// One mutation awaiting watch delivery; targets were matched at
  /// mutation time and are re-resolved at delivery time.
  struct PendingDelivery {
    std::vector<std::uint64_t> targets;
    WatchEvent event;
  };

  /// Enqueues one mutation onto the delivery FIFO and schedules the
  /// coalesced drain tick if none is pending. Called after the mutating
  /// critical section released mu_.
  void notify(WatchEventType type, const std::string& bucket,
              const std::string& key);

  /// The drain tick: delivers every mutation queued at this instant.
  void deliver_pending();

  /// Resolves one watcher id and runs its callback (the delivery step
  /// shared by the transport endpoint and the standalone path).
  void deliver_one(std::uint64_t watcher_id, const WatchEvent& event);

  sim::Engine& engine_;
  net::Transport* transport_ = nullptr;

  mutable common::Mutex mu_;
  mutable std::uint64_t ops_ HOH_GUARDED_BY(mu_) = 0;
  std::uint64_t muts_ HOH_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::uint64_t> collection_muts_ HOH_GUARDED_BY(mu_);
  std::map<std::string, std::map<std::string, common::Json>> collections_
      HOH_GUARDED_BY(mu_);
  std::map<std::string, std::deque<std::string>> queues_ HOH_GUARDED_BY(mu_);
  std::map<std::uint64_t, Feed> feeds_ HOH_GUARDED_BY(mu_);
  std::uint64_t next_feed_id_ HOH_GUARDED_BY(mu_) = 1;
  /// Keyed by watch id; ids count up, so std::map iteration is
  /// registration-order delivery.
  std::map<std::uint64_t, Watcher> watchers_ HOH_GUARDED_BY(mu_);
  std::uint64_t next_watch_id_ HOH_GUARDED_BY(mu_) = 1;
  std::vector<PendingDelivery> pending_deliveries_ HOH_GUARDED_BY(mu_);
  bool delivery_scheduled_ HOH_GUARDED_BY(mu_) = false;
};

}  // namespace hoh::pilot
