#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
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
/// A struct with a fields() list packs as its fields in list order (a
/// message, or a struct nested in one); lists carry a u32 element count
/// followed by the elements in order. A type that declares a wire form
/// (HasWireForm) packs as that form.
///
/// One put() walk serves every sink: pack_exact runs it once over a
/// ByteCount to learn the value's exact size and once more into a
/// buffer of that size, so packing a message costs one allocation and
/// no sizes are kept anywhere but in put() itself.
///
/// Unpacker is bounds-checked: reading past the buffer, or a length
/// prefix larger than the remaining bytes, throws CodecError instead of
/// touching out-of-range memory — the property the codec fuzz tests
/// drive with truncated and corrupted frames. A list count is checked
/// against the remaining bytes before any element is allocated.

namespace hoh::net {

/// A struct that lists its wire fields (see message.h).
template <typename T>
concept HasFields = requires(T& t) { T::fields(t); };

/// A value held read-only behind a std::shared_ptr<const T> crosses the
/// wire as the T it points to; decoding makes a fresh one.
template <typename T>
concept SharedConst =
    std::is_same_v<T, std::shared_ptr<const typename T::element_type>>;

/// A type that crosses the wire as another one. to_wire(v), found by
/// argument-dependent lookup next to the type, gives the wire value;
/// from_wire(w, v) sets v from one and throws a common::Error on a value
/// the type cannot hold, which the Unpacker reports as a CodecError.
template <typename T>
concept HasWireForm = requires(const T& c, T& v) {
  from_wire(to_wire(c), v);
};

template <HasWireForm T>
using WireForm =
    std::remove_cvref_t<decltype(to_wire(std::declval<const T&>()))>;

/// The fewest bytes one value of \p T can encode to: a list count above
/// (remaining bytes / this) cannot be honest.
template <typename T>
constexpr std::size_t min_wire_bytes() {
  if constexpr (HasWireForm<T>) {
    return min_wire_bytes<WireForm<T>>();
  } else if constexpr (SharedConst<T>) {
    return min_wire_bytes<std::remove_const_t<typename T::element_type>>();
  } else if constexpr (std::is_same_v<T, std::uint8_t> ||
                       std::is_same_v<T, bool>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return 8;  // u64, i64 (and int), f64
  } else if constexpr (HasFields<T>) {
    using Fields = decltype(T::fields(std::declval<T&>()));
    return []<std::size_t... I>(std::index_sequence<I...>) {
      return (std::size_t{0} + ... +
              min_wire_bytes<std::remove_cvref_t<
                  std::tuple_element_t<I, Fields>>>());
    }(std::make_index_sequence<std::tuple_size_v<Fields>>{});
  } else {
    return 4;  // strings, byte strings and lists: a u32 prefix
  }
}

/// Malformed wire data (truncation, bad length prefix, bad magic or
/// version, type mismatch). Deliberately distinct from ConfigError:
/// codec errors come from the peer, not from the operator.
class CodecError : public common::Error {
 public:
  using common::Error::Error;
};

/// Where a packer's bytes go. A sink has one member,
/// write(data, n), and three exist: ByteCount only counts, so a put()
/// walk over a value measures its exact encoded size; BufferWriter
/// fills a buffer already that size; ByteVector grows as it goes.
class ByteCount {
 public:
  void write(const std::uint8_t*, std::size_t n) { size_ += n; }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Writes into memory the caller sized beforehand (by a ByteCount walk
/// over the same values).
class BufferWriter {
 public:
  explicit BufferWriter(std::uint8_t* at) : at_(at) {}
  void write(const std::uint8_t* data, std::size_t n) {
    if (n > 0) std::memcpy(at_, data, n);
    at_ += n;
  }

 private:
  std::uint8_t* at_;
};

/// Appends to a vector that grows as needed, for a value built piece
/// by piece.
struct ByteVector {
  /// Out of line (pack.cpp): GCC 12 at -O2 reports a bogus
  /// -Wstringop-overflow for a vector range insert inlined into a put().
  void write(const std::uint8_t* data, std::size_t n);

  std::vector<std::uint8_t> bytes;
};

/// Big-endian encoder over a sink. put() picks the encoding from the
/// field type, so a message's fields() list is its whole wire layout,
/// and the same walk both sizes a value and writes it.
template <typename Sink>
class BasicPacker {
 public:
  BasicPacker() = default;
  explicit BasicPacker(Sink sink) : sink_(std::move(sink)) {}

  void u8(std::uint8_t v) { big_endian<1>(v); }
  void u16(std::uint16_t v) { big_endian<2>(v); }
  void u32(std::uint32_t v) { big_endian<4>(v); }
  void u64(std::uint64_t v) { big_endian<8>(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    sink_.write(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  void put(std::uint8_t v) { u8(v); }
  void put(bool v) { u8(v ? 1 : 0); }
  void put(std::uint64_t v) { u64(v); }
  void put(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// An int travels as an i64.
  void put(int v) { put(static_cast<std::int64_t>(v)); }
  void put(double v) { f64(v); }
  void put(const std::string& s) { str(s); }
  /// Raw bytes with a u32 length prefix (nested payloads).
  void put(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    sink_.write(b.data(), b.size());
  }
  template <typename T>
  void put(const std::vector<T>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const T& item : list) put(item);
  }
  template <HasFields T>
  void put(const T& m) {
    std::apply([this](const auto&... f) { (put(f), ...); }, T::fields(m));
  }
  template <HasWireForm T>
  void put(const T& v) {
    put(to_wire(v));
  }
  template <SharedConst T>
  void put(const T& v) {
    put(*v);
  }

  const Sink& sink() const { return sink_; }

 protected:
  Sink sink_;

 private:
  template <std::size_t N>
  void big_endian(std::uint64_t v) {
    std::uint8_t b[N];
    for (std::size_t i = 0; i < N; ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * (N - 1 - i)));
    }
    sink_.write(b, N);
  }
};

/// The exact number of bytes put(\p value) writes.
template <typename T>
std::size_t wire_size(const T& value) {
  BasicPacker<ByteCount> count;
  count.put(value);
  return count.sink().size();
}

/// Packs \p value into one buffer of exactly its wire size: one
/// allocation, no growth and no spare capacity.
template <typename T>
std::vector<std::uint8_t> pack_exact(const T& value) {
  std::vector<std::uint8_t> out(wire_size(value));
  BasicPacker<BufferWriter> p{BufferWriter(out.data())};
  p.put(value);
  return out;
}

/// Packs piece by piece into a growing buffer; a whole value packs
/// with pack_exact instead.
class Packer : public BasicPacker<ByteVector> {
 public:
  std::size_t size() const { return sink_.bytes.size(); }
  const std::vector<std::uint8_t>& data() const { return sink_.bytes; }
  std::vector<std::uint8_t> take() { return std::move(sink_.bytes); }
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
  /// A bool is one byte, 0 or 1: any other byte is refused, so every
  /// accepted message re-encodes to the bytes it came from.
  void get(bool& v) {
    const std::uint8_t b = u8();
    if (b > 1) {
      throw CodecError("unpack: bool byte " + std::to_string(b));
    }
    v = b == 1;
  }
  void get(std::uint64_t& v) { v = u64(); }
  void get(std::int64_t& v) { v = static_cast<std::int64_t>(u64()); }
  /// An i64 that no int holds is refused.
  void get(int& v) {
    std::int64_t wide = 0;
    get(wide);
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max()) {
      throw CodecError("unpack: " + std::to_string(wide) +
                       " is out of int range");
    }
    v = static_cast<int>(wide);
  }
  void get(double& v) { v = f64(); }
  void get(std::string& s) { s = str(); }
  void get(std::vector<std::uint8_t>& b) {
    const std::uint32_t n = u32();
    need(n);
    b.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }
  template <typename T>
  void get(std::vector<T>& list) {
    const std::uint32_t n = list_count(min_wire_bytes<T>());
    list.clear();
    list.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) get(list.emplace_back());
  }
  template <HasFields T>
  void get(T& m) {
    std::apply([this](auto&... f) { (get(f), ...); }, T::fields(m));
  }
  template <HasWireForm T>
  void get(T& v) {
    WireForm<T> wire{};
    get(wire);
    try {
      from_wire(wire, v);
    } catch (const common::Error& e) {
      throw CodecError(std::string("unpack: ") + e.what());
    }
  }

  template <SharedConst T>
  void get(T& v) {
    auto value =
        std::make_shared<std::remove_const_t<typename T::element_type>>();
    get(*value);
    v = std::move(value);
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
  /// A list's element count, refused when the remaining bytes cannot
  /// hold that many elements of at least \p min_element_bytes each.
  std::uint32_t list_count(std::size_t min_element_bytes) {
    const std::uint32_t n = u32();
    if (min_element_bytes > 0 && n > (size_ - pos_) / min_element_bytes) {
      throw CodecError("unpack: list of " + std::to_string(n) +
                       " elements cannot fit in " +
                       std::to_string(size_ - pos_) + " bytes");
    }
    return n;
  }

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

/// Unpacks \p m's fields() in list order and requires the buffer to end
/// there, so a length/payload disagreement is a CodecError, never a
/// silent partial read.
template <HasFields M>
void unpack_fields(Unpacker& u, M& m) {
  u.get(m);
  u.expect_done();
}

}  // namespace hoh::net
