#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"

/// \file pack.h
/// SLURM-style pack/unpack primitives: every scalar is written as
/// explicit big-endian byte shifts, so the wire image is identical on
/// any host and no serialization ever goes through reinterpret_cast or
/// struct memcpy (the analyzer's wire-encoding rule bans those outside
/// this directory). Strings carry a u32 length prefix; doubles travel
/// as their IEEE-754 bit pattern in a u64.
///
/// Unpacker is bounds-checked: reading past the buffer, or a length
/// prefix larger than the remaining bytes, throws CodecError instead of
/// touching out-of-range memory — the property the codec fuzz tests
/// drive with truncated and corrupted frames.

namespace hoh::net {

/// Malformed wire data (truncation, bad length prefix, bad magic or
/// version, type mismatch). Deliberately distinct from ConfigError:
/// codec errors come from the peer, not from the operator.
class CodecError : public common::Error {
 public:
  using common::Error::Error;
};

/// Append-only big-endian encoder. put() picks the encoding from the
/// field type, so a message's fields() list is its whole wire layout.
class Packer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  void put(std::uint8_t v) { u8(v); }
  void put(bool v) { u8(v ? 1 : 0); }
  void put(std::uint64_t v) { u64(v); }
  void put(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void put(double v) { f64(v); }
  void put(const std::string& s) { str(s); }
  /// Raw bytes with a u32 length prefix (nested payloads).
  void put(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(b.data(), b.size());
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  /// Out of line (pack.cpp): GCC 12 at -O2 reports a bogus
  /// -Wstringop-overflow for a vector range insert inlined into
  /// make_envelope.
  void append(const std::uint8_t* data, std::size_t n);

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked big-endian decoder over a borrowed buffer.
class Unpacker {
 public:
  Unpacker(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  explicit Unpacker(const std::vector<std::uint8_t>& buf)
      : Unpacker(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) |
        static_cast<std::uint16_t>(data_[pos_ + 1]));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_) + pos_, n);
    pos_ += n;
    return s;
  }

  /// The mirror of Packer::put, one overload per field type.
  void get(std::uint8_t& v) { v = u8(); }
  void get(bool& v) { v = u8() != 0; }
  void get(std::uint64_t& v) { v = u64(); }
  void get(std::int64_t& v) { v = static_cast<std::int64_t>(u64()); }
  void get(double& v) { v = f64(); }
  void get(std::string& s) { s = str(); }
  void get(std::vector<std::uint8_t>& b) {
    const std::uint32_t n = u32();
    need(n);
    b.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }

  /// Call at the end of a message unpack: trailing bytes mean the frame
  /// length and the payload disagree.
  void expect_done() const {
    if (pos_ != size_) {
      throw CodecError("unpack: " + std::to_string(size_ - pos_) +
                       " trailing bytes after message");
    }
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw CodecError("unpack: truncated buffer (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(size_ - pos_) + ")");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Packs \p m's fields() in list order.
template <typename M>
void pack_fields(Packer& p, const M& m) {
  std::apply([&p](const auto&... f) { (p.put(f), ...); }, M::fields(m));
}

/// Unpacks \p m's fields() in list order and requires the buffer to end
/// there, so a length/payload disagreement is a CodecError, never a
/// silent partial read.
template <typename M>
void unpack_fields(Unpacker& u, M& m) {
  std::apply([&u](auto&... f) { (u.get(f), ...); }, M::fields(m));
  u.expect_done();
}

}  // namespace hoh::net
