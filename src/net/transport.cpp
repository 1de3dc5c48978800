#include "net/transport.h"

#include <utility>

#include "common/error.h"

namespace hoh::net {

void InProcessTransport::register_endpoint(const std::string& endpoint,
                                           Handler handler) {
  auto shared = std::make_shared<const Handler>(std::move(handler));
  common::MutexLock lock(mu_);
  endpoints_[endpoint].swap(shared);  // the old handler dies unlocked
}

void InProcessTransport::unregister_endpoint(const std::string& endpoint) {
  std::shared_ptr<const Handler> gone;  // dies unlocked
  common::MutexLock lock(mu_);
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) return;
  gone.swap(it->second);
  endpoints_.erase(it);
}

bool InProcessTransport::has_endpoint(const std::string& endpoint) const {
  common::MutexLock lock(mu_);
  return endpoints_.count(endpoint) != 0;
}

std::shared_ptr<const Transport::Handler> InProcessTransport::route(
    const std::string& endpoint, std::uint64_t TransportStats::*counter) {
  common::MutexLock lock(mu_);
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    throw common::NotFoundError("transport: no endpoint \"" + endpoint +
                                "\"");
  }
  ++(stats_.*counter);
  return it->second;
}

Envelope InProcessTransport::call(const std::string& endpoint,
                                  const Envelope& request) {
  return (*route(endpoint, &TransportStats::calls))(request);
}

void InProcessTransport::send(const std::string& endpoint,
                              const Envelope& message) {
  (*route(endpoint, &TransportStats::sends))(message);
}

TransportStats InProcessTransport::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

}  // namespace hoh::net
