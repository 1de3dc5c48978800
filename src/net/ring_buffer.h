#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

/// \file ring_buffer.h
/// Growable circular byte buffer for frame reassembly: the reader
/// appends whatever recv() returned and the frame parser peeks at the
/// front until a complete frame is present, so partial reads cost no
/// shifting and no per-read allocation once the buffer is warm.

namespace hoh::net {

class RingBuffer {
 public:
  explicit RingBuffer(std::size_t initial_capacity = 4096)
      : buf_(round_up(initial_capacity)) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  void append(const std::uint8_t* data, std::size_t n) {
    if (n == 0) return;  // data may be null (an empty vector's data())
    reserve(count_ + n);
    const std::size_t cap = buf_.size();
    std::size_t tail = (head_ + count_) & (cap - 1);
    const std::size_t first = std::min(n, cap - tail);
    std::memcpy(buf_.data() + tail, data, first);
    if (n > first) std::memcpy(buf_.data(), data + first, n - first);
    count_ += n;
  }

  /// Copies min(n, size()) front bytes into \p out without consuming;
  /// returns the number copied.
  std::size_t peek(std::uint8_t* out, std::size_t n) const {
    n = std::min(n, count_);
    if (n == 0) return 0;  // out may be null (an empty payload's data())
    const std::size_t cap = buf_.size();
    const std::size_t first = std::min(n, cap - head_);
    std::memcpy(out, buf_.data() + head_, first);
    if (n > first) std::memcpy(out + first, buf_.data(), n - first);
    return n;
  }

  /// Drops min(n, size()) front bytes.
  void consume(std::size_t n) {
    n = std::min(n, count_);
    head_ = (head_ + n) & (buf_.size() - 1);
    count_ -= n;
    if (count_ == 0) head_ = 0;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  static std::size_t round_up(std::size_t n) {
    std::size_t cap = 64;
    while (cap < n) cap <<= 1;
    return cap;
  }

  void reserve(std::size_t needed) {
    if (needed <= buf_.size()) return;
    std::vector<std::uint8_t> bigger(round_up(needed));
    const std::size_t n = peek(bigger.data(), count_);
    buf_ = std::move(bigger);
    head_ = 0;
    count_ = n;
  }

  std::vector<std::uint8_t> buf_;  // capacity is a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hoh::net
