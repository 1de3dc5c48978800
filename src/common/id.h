#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/string_util.h"

/// \file id.h
/// Small typed-id helpers. Every managed entity (pilot, unit, job,
/// container, block, ...) carries a human-readable string id with a
/// component prefix, e.g. "pilot.0003" or "container_07_000012".

namespace hoh::common {

/// Monotonic per-prefix id generator.
///
/// Thread-safety: the counter is an explicit std::atomic and the prefix
/// is immutable after construction, so next()/issued() are safe from any
/// thread without a lock — two threads can never draw the same id
/// (fetch_add hands out distinct values). Relaxed ordering suffices:
/// uniqueness needs atomicity of the increment only, and no other memory
/// is published through the counter. tests/common_id_test.cpp stresses
/// this with concurrent generators.
class IdGenerator {
 public:
  explicit IdGenerator(std::string prefix) : prefix_(std::move(prefix)) {}

  IdGenerator(const IdGenerator&) = delete;
  IdGenerator& operator=(const IdGenerator&) = delete;

  /// Returns e.g. "pilot.0000", "pilot.0001", ...
  std::string next() {
    const std::uint64_t n = counter_.fetch_add(1, std::memory_order_relaxed);
    std::string id = prefix_;
    id += '.';
    append_decimal(id, n, 4);
    return id;
  }

  /// Number of ids handed out so far.
  std::uint64_t issued() const {
    return counter_.load(std::memory_order_relaxed);
  }

 private:
  const std::string prefix_;
  std::atomic<std::uint64_t> counter_{0};
};

}  // namespace hoh::common
