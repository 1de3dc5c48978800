#include "hoh_bench/timing_transport.h"

#include <utility>

#include "net/message.h"

namespace hoh::bench {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Endpoint names as the components register them: "store.ingest",
/// "store.notify", "rm<N>.nm", "rm<N>.rm", "um<N>.submit",
/// "agent.<pilot>.ctrl" and "pilot.<pilot>.lifecycle".
Layer layer_of_endpoint(const std::string& endpoint) {
  if (endpoint == "store.ingest") return Layer::kStoreIngest;
  if (starts_with(endpoint, "rm") && ends_with(endpoint, ".nm")) {
    return Layer::kYarnNm;
  }
  if (starts_with(endpoint, "rm") && ends_with(endpoint, ".rm")) {
    return Layer::kYarnRm;
  }
  if (starts_with(endpoint, "um") && ends_with(endpoint, ".submit")) {
    return Layer::kTenantSubmit;
  }
  return Layer::kOther;
}

/// A watch delivery belongs to whoever watches its bucket: an agent's
/// queue, the "unit" collection (gateway, dependency watches) or the
/// heartbeat lease. WatchNotify packs watcher id, event type, bucket.
Layer layer_of_notify(const net::Envelope& env) {
  net::Unpacker u(env.payload);
  u.u64();
  u.u8();
  const std::string bucket = u.str();
  if (starts_with(bucket, "agent.")) return Layer::kAgentNotify;
  if (bucket == "unit") return Layer::kUnitNotify;
  if (bucket == "heartbeat") return Layer::kHeartbeatNotify;
  return Layer::kOther;
}

}  // namespace

void TimingTransport::register_endpoint(const std::string& endpoint,
                                        Handler handler) {
  const bool notify = endpoint == "store.notify";
  const Layer layer = layer_of_endpoint(endpoint);
  inner_->register_endpoint(
      endpoint, [this, notify, layer, handler = std::move(handler)](
                    const net::Envelope& env) {
        Span span(recorder_, notify ? layer_of_notify(env) : layer);
        return handler(env);
      });
}

}  // namespace hoh::bench
