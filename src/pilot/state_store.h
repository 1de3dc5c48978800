#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "net/transport.h"
#include "pilot/unit_record.h"
#include "sim/engine.h"

/// \file state_store.h
/// The shared document store the Unit-Manager and the agents communicate
/// through — the paper's MongoDB instance ("The Unit-Manager queues new
/// Compute-Units using a shared MongoDB instance (step U.2). The
/// RADICAL-Pilot-Agent periodically checks for new Compute-Units (U.3)").
/// It holds two typed collections: unit records (pilot/unit_record.h)
/// and each pilot's latest heartbeat (HeartbeatRecord), through
/// put_heartbeat/heartbeat. Named queues provide the U.2/U.3 handoff.
/// Store operations take no simulated time: the store enters the
/// simulation only through its zero-delay watch-delivery ticks.
///
/// Unit table (DESIGN.md §13): a unit's first put appends it to a
/// vector and gives it a dense, session-wide UnitIndex; every later
/// read and write (unit_state, unit_description, set_unit_state), the
/// agent queues and the write feeds go by that index. One id -> index
/// map serves the edges that only have the string id: put_unit and the
/// store.ingest endpoint (the wire), and unit_index (a handle lookup or
/// a depends_on entry). The string id stays on the wire, in watch keys
/// and in the schedule digest; resolving an id or an index is not an op.
///
/// Thread-safety: the store is one lock domain. Every operation takes
/// the single annotated mu_, like the real store's server-side
/// concurrency control. The store is also the single chokepoint every
/// unit state write goes through, so set_unit_state() enforces the
/// Fig. 3 lifecycle-transition table (see pilot/transitions.h): an
/// illegal edge throws StateError instead of corrupting the lifecycle.
///
/// Watch/notify (etcd/ZooKeeper-style, DESIGN.md §10): watch() registers
/// a callback on a bucket and key prefix; every write under that bucket
/// (put_unit/set_unit_state under "unit", put_heartbeat under
/// "heartbeat", queue_push under the queue's name) fires the matching
/// watchers, keyed by the unit's (resp. pilot's) string id. Delivery
/// goes through the sim engine as a
/// coalesced zero-delay tick: mutations enqueue onto one FIFO and a
/// single drain event delivers every mutation pending at that instant,
/// so (a) callbacks never run under the store mutex, (b) delivery is
/// deterministic — mutations in FIFO order, watchers in registration
/// order — and (c) the transition gate has already validated the write
/// by the time any watcher sees it. Mutations performed *by* a watch
/// callback go to a fresh tick at the same timestamp. Over a transport
/// the tick sends one WatchNotify per run of consecutive deliveries to
/// one watcher (same event type and bucket); the receiver still
/// delivers, and re-resolves the watcher, key by key.

namespace hoh::pilot {

/// The collection of typed unit records.
inline constexpr std::string_view kUnitCollection = "unit";

/// The watch bucket of heartbeat writes, keyed by pilot id.
inline constexpr std::string_view kHeartbeatBucket = "heartbeat";

/// A pilot's liveness lease as its agent last wrote it. A stopped agent
/// writes a final tombstone with alive = false.
struct HeartbeatRecord {
  bool alive = false;
  common::Seconds last_heartbeat = 0.0;
  std::size_t units_completed = 0;
  std::size_t units_failed = 0;
  std::size_t units_running = 0;
};

/// When a unit's last kExecuting and last kDone writes passed the
/// transition gate, in simulated seconds; NaN before the first.
struct UnitRunTimes {
  common::Seconds executing = std::numeric_limits<double>::quiet_NaN();
  common::Seconds done = std::numeric_limits<double>::quiet_NaN();
};

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

  /// Every unit as a Json document, in id order: {"description": {...},
  /// "pilot", "state"}, with the description's fields under their names
  /// and its empty lists left out; a retired unit's description holds
  /// only its name. Kept for the benchmark program's cross-check of
  /// completed units, which reads the store's units this way; not on any
  /// hot path. Any other \p collection throws ConfigError.
  std::vector<std::pair<std::string, common::Json>> find_all(
      const std::string& collection) const;

  /// Inserts or replaces unit \p id's record (the U.2 hand-over, and the
  /// held-unit insert) and returns its index: the first put of an id
  /// appends it to the unit table. Like any put it is neither gated nor
  /// folded into the schedule digest: re-ingesting a held unit replaces
  /// its kNew record with a kPendingAgent one.
  UnitIndex put_unit(const std::string& id, UnitRecord unit);

  /// The index unit \p id was put under; nullopt when never put.
  std::optional<UnitIndex> unit_index(const std::string& id) const;

  /// The string id of unit \p index; throws NotFoundError when absent.
  std::string unit_id(UnitIndex index) const;

  /// When unit \p index last went kExecuting and kDone (the run time
  /// the Unit-Manager's estimator learns); not an op. Throws
  /// NotFoundError when the unit is absent.
  UnitRunTimes unit_run_times(UnitIndex index) const;

  /// The rows of the unit table: the index the next new unit gets.
  std::size_t unit_count() const;

  /// Inserts or replaces \p pilot's heartbeat and fires a kPut watch on
  /// the "heartbeat" bucket, keyed by the pilot id.
  void put_heartbeat(const std::string& pilot, HeartbeatRecord heartbeat);

  /// \p pilot's latest heartbeat; nullopt before its first.
  std::optional<HeartbeatRecord> heartbeat(const std::string& pilot) const;

  /// A unit's state; throws NotFoundError when the unit is absent.
  UnitState unit_state(UnitIndex index) const;

  /// A unit's description, shared with the record (not copied); nullptr
  /// when the unit is absent, default_description() once it retired.
  SharedDescription unit_description(UnitIndex index) const;

  /// Moves a unit to \p state and, when \p pilot is non-empty, binds it
  /// to that pilot. The edge is validated against the unit
  /// lifecycle-transition table: an illegal one (e.g. Done -> Executing
  /// after a stale requeue) throws StateError, changes nothing and
  /// notifies nobody. A legal one is folded into the schedule digest,
  /// and a kExecuting or kDone one stamps the unit's run times. A legal
  /// kDone or kCanceled write retires the unit: those states are sinks,
  /// so nothing reads its description again, and the record swaps it for
  /// default_description(), keeping id, state, pilot, run times and the
  /// description's name. A kFailed unit keeps its description: requeue
  /// and redispatch read it.
  /// Throws NotFoundError when the unit is absent.
  void set_unit_state(UnitIndex index, UnitState state,
                      const std::string& pilot = {});

  /// Appends unit \p index to a named queue; its watchers hear the
  /// unit's id. Throws NotFoundError when the unit is absent.
  void queue_push(const std::string& queue, UnitIndex index);

  /// Drains the queue (agent poll): hands its units over, in FIFO order.
  std::vector<UnitIndex> queue_pop_all(const std::string& queue);

  std::size_t queue_depth(const std::string& queue) const;

  /// Total simulated operations performed (for overhead accounting).
  std::uint64_t op_count() const;

  /// Total *mutations* (puts, unit state writes, queue push/pop) —
  /// reads excluded.
  std::uint64_t mutation_count() const;

  /// The schedule digest: FNV-1a folded, in event order, over every unit
  /// state write that passes the transition gate in set_unit_state() —
  /// as (sim time bits, unit id, new state) — and every placement an
  /// agent records. The run digest pins which units finished; this one also
  /// moves when a unit runs on another node or at another time.
  std::uint64_t schedule_digest() const;

  /// Folds one placement into the schedule digest: \p unit went to
  /// \p nodes (a comma-joined node list, or a YARN container's node).
  void record_placement(const std::string& unit, const std::string& nodes);

  /// Opens a unit write feed: from now on the index of every unit
  /// written (put_unit, set_unit_state) is appended to the feed (once
  /// per write, in write order) until drain_feed() hands them over. A
  /// poller that drains its feed re-reads only the units written since
  /// its last poll (DESIGN.md §13). Feeds are not ops and fire no watch.
  /// Returns a non-zero feed id.
  std::uint64_t open_feed();

  /// The units written since the feed opened or was last drained;
  /// empties the feed. An unknown (closed) feed yields nothing.
  std::vector<UnitIndex> drain_feed(std::uint64_t feed);

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
  /// set is re-checked at delivery time). Safe from any watch callback,
  /// the watcher's own included. Returns false if the handle was invalid
  /// or already unwatched.
  bool unwatch(WatchHandle handle);

  /// Number of registered watchers (teardown hygiene checks).
  std::size_t watcher_count() const;

  /// Attaches the store to the session's message boundary (DESIGN.md
  /// §14): registers the "store.notify" endpoint (watch fan-out: one
  /// delivery per key of a WatchNotify, the watcher re-resolved for
  /// each) and the "store.ingest" endpoint (a batch of U.2 hand-overs,
  /// each a document put + queue push, applied in list order once every
  /// document decoded), and routes watch deliveries through
  /// transport->send, one WatchNotify per run of consecutive deliveries
  /// to one watcher with one event type and bucket, its keys under
  /// net::kBatchBytes. A Session always wires this; a store constructed
  /// standalone (unit tests) keeps the direct delivery path. Passing
  /// nullptr detaches.
  void set_transport(net::Transport* transport);

  net::Transport* transport() const { return transport_; }

 private:
  /// One row of the unit table. A retired row's description is the
  /// default one and its name is kept here.
  struct Unit {
    std::string id;
    UnitRecord record;
    UnitRunTimes times;
    std::optional<std::string> retired_name;
  };

  /// Appends unit \p index to every feed (under mu_).
  void record_write(UnitIndex index) HOH_REQUIRES(mu_);

  /// Folds each of \p parts, newline-terminated, into the schedule
  /// digest.
  void fold_schedule(std::initializer_list<std::string_view> parts)
      HOH_REQUIRES(mu_);

  struct Watcher {
    std::string bucket;
    WatchCallback fn;
    /// Deliveries to this watcher running right now: an unwatch while
    /// one runs retires the watcher and leaves the erase to the last of
    /// them, so a callback never outlives its own std::function.
    int running = 0;
    bool retired = false;
  };

  /// One watcher of a bucket, as notify() matches it.
  struct BucketWatcher {
    std::uint64_t id;
    std::string prefix;
  };

  /// One mutation awaiting watch delivery; targets were matched at
  /// mutation time and are re-resolved at delivery time.
  struct PendingDelivery {
    std::vector<std::uint64_t> targets;
    WatchEvent event;
  };

  /// Enqueues one mutation onto the delivery FIFO when any watcher of
  /// \p bucket matches \p key; true when the coalesced drain tick must
  /// be scheduled (by schedule_delivery(), once mu_ is released).
  bool notify(WatchEventType type, const std::string& bucket,
              const std::string& key) HOH_REQUIRES(mu_);
  void schedule_delivery();

  /// The drain tick: delivers every mutation queued at this instant.
  void deliver_pending();

  /// Resolves one watcher id and runs its callback in place (the
  /// delivery step shared by the transport endpoint and the standalone
  /// path).
  void deliver_one(std::uint64_t watcher_id, const WatchEvent& event);

  sim::Engine& engine_;
  net::Transport* transport_ = nullptr;

  mutable common::Mutex mu_;
  mutable std::uint64_t ops_ HOH_GUARDED_BY(mu_) = 0;
  std::uint64_t muts_ HOH_GUARDED_BY(mu_) = 0;
  /// The unit table, by UnitIndex, and the id -> index map of the edges.
  std::vector<Unit> units_ HOH_GUARDED_BY(mu_);
  std::unordered_map<std::string, UnitIndex> unit_index_ HOH_GUARDED_BY(mu_);
  std::map<std::string, HeartbeatRecord> heartbeats_ HOH_GUARDED_BY(mu_);
  std::map<std::string, std::vector<UnitIndex>> queues_ HOH_GUARDED_BY(mu_);
  /// Unit write feeds: the units each holds, keyed by feed id.
  std::map<std::uint64_t, std::vector<UnitIndex>> feeds_ HOH_GUARDED_BY(mu_);
  std::uint64_t schedule_digest_ HOH_GUARDED_BY(mu_) = common::kFnv1aBasis;
  std::uint64_t next_feed_id_ HOH_GUARDED_BY(mu_) = 1;
  /// Keyed by watch id. A node's address is stable while it exists,
  /// which deliver_one() relies on while a callback runs unlocked.
  std::map<std::uint64_t, Watcher> watchers_ HOH_GUARDED_BY(mu_);
  /// The live watchers of each bucket in registration order (ids count
  /// up), so notify() looks only at the mutated bucket's watchers.
  std::unordered_map<std::string, std::vector<BucketWatcher>> by_bucket_
      HOH_GUARDED_BY(mu_);
  std::uint64_t next_watch_id_ HOH_GUARDED_BY(mu_) = 1;
  std::vector<PendingDelivery> pending_deliveries_ HOH_GUARDED_BY(mu_);
  bool delivery_scheduled_ HOH_GUARDED_BY(mu_) = false;
};

}  // namespace hoh::pilot
