#pragma once

#include <string>

/// \file url.h
/// SAGA-style resource URLs: "<scheme>://<host>/<path>", e.g.
/// "slurm://stampede/", "pbs://gordon/", "file://wrangler/scratch/data.bin".
/// The scheme selects the adaptor; the host selects the registered
/// resource.

namespace hoh::saga {

/// Parsed URL value type.
class Url {
 public:
  Url() = default;

  /// Parses "<scheme>://<host></path>"; throws ConfigError on malformed
  /// input (missing scheme or host).
  explicit Url(const std::string& url);

  const std::string& scheme() const { return scheme_; }
  const std::string& host() const { return host_; }
  const std::string& path() const { return path_; }

  std::string str() const;

  friend bool operator==(const Url&, const Url&) = default;

  /// Wire form (net/pack.h): the URL's text, parsed back on arrival, so
  /// a malformed one throws ConfigError like the constructor.
  friend std::string to_wire(const Url& url) { return url.str(); }
  friend void from_wire(const std::string& text, Url& url) {
    url = Url(text);
  }

 private:
  std::string scheme_;
  std::string host_;
  std::string path_;
};

}  // namespace hoh::saga
