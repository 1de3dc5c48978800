#pragma once

#include <memory>
#include <string>

#include "hoh_bench/span_recorder.h"
#include "net/transport.h"

/// \file timing_transport.h
/// A Transport decorator that times the message boundary from outside
/// the program: every call/send is a net span on the caller side, and
/// every handler registered through it runs inside a span of the layer
/// that owns the endpoint. Wire time is the net span's self time — the
/// caller-side duration minus the handler span. Installed with
/// Session::set_transport before any component registers an endpoint.

namespace hoh::bench {

class TimingTransport : public net::Transport {
 public:
  /// \p recorder must outlive the transport.
  TimingTransport(std::unique_ptr<net::Transport> inner,
                  SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  void register_endpoint(const std::string& endpoint,
                         Handler handler) override;
  void unregister_endpoint(const std::string& endpoint) override {
    inner_->unregister_endpoint(endpoint);
  }
  bool has_endpoint(const std::string& endpoint) const override {
    return inner_->has_endpoint(endpoint);
  }
  net::Envelope call(const std::string& endpoint,
                     const net::Envelope& request) override {
    Span span(recorder_, Layer::kNet);
    return inner_->call(endpoint, request);
  }
  void send(const std::string& endpoint,
            const net::Envelope& message) override {
    Span span(recorder_, Layer::kNet);
    inner_->send(endpoint, message);
  }
  const char* mode() const override { return inner_->mode(); }
  net::TransportStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  SpanRecorder& recorder_;
};

}  // namespace hoh::bench
