#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"

/// \file engine.h
/// Deterministic discrete-event simulation kernel. All simulated
/// middleware components (batch schedulers, YARN, HDFS, the pilot agent)
/// are actors that schedule callbacks on one Engine; time is virtual and
/// advances only between events. Events scheduled for the same instant
/// fire in submission order, which makes whole-system runs bit-for-bit
/// reproducible.

namespace hoh::sim {

using common::Seconds;

/// Handle for a scheduled event; usable to cancel it.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class Engine;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Single-threaded discrete-event engine.
class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in seconds.
  Seconds now() const { return now_; }

  /// Schedules \p fn to run \p delay seconds from now (>= 0).
  EventHandle schedule(Seconds delay, Callback fn);

  /// Schedules \p fn at absolute time \p at (>= now()).
  EventHandle schedule_at(Seconds at, Callback fn);

  /// Schedules \p fn every \p period seconds starting after \p period.
  /// The returned handle cancels the whole series.
  ///
  /// The control plane is event-driven; new code should prefer store
  /// watches or a DeadlineTimer (see DESIGN.md §10). New call sites in
  /// src/ must fit PERIODIC_BUDGET in tools/analyze/hoh_analyze.py
  /// (conc-periodic-budget).
  EventHandle schedule_periodic(Seconds period, Callback fn);

  /// Cancels a pending event; returns false if it already fired or was
  /// cancelled.
  bool cancel(EventHandle handle);

  /// Runs until the event queue is empty or \p max_events fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= until; afterwards now() == until if the
  /// queue outlived the horizon (or the last event time otherwise).
  std::size_t run_until(Seconds until);

  /// Executes exactly one event if any is pending; returns whether one ran.
  bool step();

  /// Number of events currently pending. Exact: lazily-cancelled heap
  /// entries are tracked by cancelled_pending_ and excluded.
  std::size_t pending() const { return queue_.size() - cancelled_pending_; }

  /// Total events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Times the heap was compacted (cancelled entries purged).
  std::uint64_t compactions() const { return compactions_; }

  /// Callback slots currently allocated (live events + free-list
  /// capacity); the high-water mark of concurrently pending events.
  std::size_t slot_capacity() const { return slots_.size(); }

 private:
  struct Entry {
    Seconds at;
    std::uint64_t seq;  // tie-break: FIFO for equal timestamps
    std::uint64_t id;
  };
  struct EntryCompare {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap on time
      return a.seq > b.seq;
    }
  };

  /// Pooled callback storage (DESIGN.md §13): events live in a slot
  /// vector recycled through a free list, so scheduling is O(1) with no
  /// per-event heap allocation beyond the callback's own captures. An
  /// event id packs (slot index << 32) | generation; the generation
  /// bumps on every release, so a stale handle (fired or cancelled)
  /// never resolves even after the slot is reused.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    bool live = false;
    bool periodic = false;
    Seconds period = 0.0;
  };

  std::uint64_t alloc_slot(Callback fn, bool periodic, Seconds period);
  void release_slot(std::uint32_t index);
  Slot* resolve(std::uint64_t id);

  bool pop_and_run();
  void push_entry(Seconds at, std::uint64_t id);
  void pop_entry();
  /// Drops every heap entry whose callback is gone. Safe mid-callback:
  /// the entry being executed was already popped by pop_and_run.
  void compact();

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t cancelled_pending_ = 0;
  std::vector<Entry> queue_;  // heap ordered by EntryCompare
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// One-shot timer whose deadline can be pushed out — the lease/deadline
/// primitive of the watch-mode control plane (agent heartbeat lease, NM
/// liveness lease, quiescent-fallback sweeps). Re-arming replaces any
/// pending firing; the superseded heap entry is lazily cancelled and
/// reclaimed by Engine::compact(). Safe to re-arm from within its own
/// callback (self-re-arming timers); must not be destroyed from within
/// its own callback. The destructor cancels any pending firing.
class DeadlineTimer {
 public:
  DeadlineTimer() = default;
  DeadlineTimer(Engine& engine, Engine::Callback fn);
  ~DeadlineTimer();

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Late binding for timers that are members of objects constructed
  /// before the engine (or the callback's captures) are available.
  /// Cancels any pending firing from a previous binding.
  void bind(Engine& engine, Engine::Callback fn);

  /// (Re-)arms the timer to fire \p delay seconds from now.
  void arm(Seconds delay);

  /// (Re-)arms the timer to fire at absolute time \p at (>= now()).
  void arm_at(Seconds at);

  /// Cancels the pending firing, if any. Idempotent.
  void cancel();

  bool armed() const { return armed_; }

  /// Absolute fire time of the pending firing (meaningful when armed()).
  Seconds deadline() const { return deadline_; }

 private:
  Engine* engine_ = nullptr;
  Engine::Callback fn_;
  EventHandle event_;
  Seconds deadline_ = 0.0;
  bool armed_ = false;
};

}  // namespace hoh::sim
