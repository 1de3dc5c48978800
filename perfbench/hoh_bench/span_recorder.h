#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

/// \file span_recorder.h
/// Host-time spans around the calls into each layer's public entry
/// points. Spans nest on one stack, so every layer gets a call count, a
/// total time and a self time (its duration minus the spans opened
/// inside it). The simulation is single-threaded and both transports run
/// handlers on the caller's thread, so one unsynchronized stack sees
/// every span in order.

namespace hoh::bench {

/// Where a span's time is charged. hoh_bench opens the top-level spans
/// (engine, unit_manager.*, tenant.admit); TimingTransport opens the
/// net span on the caller side of every call/send and one handler span
/// per delivered message, classified by endpoint.
enum class Layer : std::uint8_t {
  kEngine,          // Engine::run_until
  kUmSubmit,        // UnitManager::submit
  kUmAllDone,       // UnitManager::all_done
  kTenantAdmit,     // SubmissionGateway::submit
  kNet,             // caller side of Transport::call / send
  kStoreIngest,     // "store.ingest"
  kAgentNotify,     // "store.notify" on an agent.<pilot> queue
  kUnitNotify,      // "store.notify" on the "unit" collection
  kHeartbeatNotify, // "store.notify" on the "heartbeat" collection
  kYarnNm,          // "rm<N>.nm"
  kYarnRm,          // "rm<N>.rm"
  kTenantSubmit,    // "um<N>.submit"
  kOther,           // agent/pilot lifecycle and any other endpoint
  kCount
};

struct LayerStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void begin(Layer layer) { stack_.push_back(Open{layer, now_ns(), 0}); }

  void end();

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }

  /// Per-call samples in ns: self time for the net layer (the wire: the
  /// caller-side span minus the handler span), duration for the rest.
  const std::vector<std::int64_t>& samples(Layer layer) const {
    return samples_[static_cast<std::size_t>(layer)];
  }

  /// Forgets everything recorded so far (the start of a timed phase).
  /// Must not be called while a span is open.
  void reset();

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

  std::vector<Open> stack_;
  std::array<LayerStats, kLayers> stats_{};
  std::array<std::vector<std::int64_t>, kLayers> samples_;
};

/// RAII span: closes on scope exit, exceptions included.
class Span {
 public:
  Span(SpanRecorder& recorder, Layer layer) : recorder_(recorder) {
    recorder_.begin(layer);
  }
  ~Span() { recorder_.end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
};

}  // namespace hoh::bench
