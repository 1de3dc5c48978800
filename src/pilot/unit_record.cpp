#include "pilot/unit_record.h"

#include <concepts>
#include <type_traits>

#include "common/error.h"
#include "net/json_codec.h"
#include "net/pack.h"

namespace hoh::pilot {

namespace {

using net::CodecError;
using net::JsonTag;

// --- the field lists ------------------------------------------------------
//
// Each object of the unit document lists its fields once, in key order:
// std::map order, the order pack_json writes a Json object in. The
// packer and the unpacker below are walks over these lists.

template <typename Unit, typename Visit>
  requires std::same_as<std::remove_const_t<Unit>, UnitRecord>
void visit_fields(Unit& unit, Visit&& visit) {
  visit("description", unit.description);
  visit("pilot", unit.pilot);
  visit("state", unit.state);
}

template <typename Desc, typename Visit>
  requires std::same_as<std::remove_const_t<Desc>, ComputeUnitDescription>
void visit_fields(Desc& desc, Visit&& visit) {
  visit("arguments", desc.arguments);
  visit("cores", desc.cores);
  visit("depends_on", desc.depends_on);
  visit("duration", desc.duration);
  visit("executable", desc.executable);
  visit("exit_code", desc.exit_code);
  visit("input_staging", desc.input_staging);
  visit("is_mpi", desc.is_mpi);
  visit("memory_mb", desc.memory_mb);
  visit("name", desc.name);
  visit("output_staging", desc.output_staging);
  visit("preferred_nodes", desc.preferred_nodes);
}

template <typename File, typename Visit>
  requires std::same_as<std::remove_const_t<File>, StagedFile>
void visit_fields(File& file, Visit&& visit) {
  visit("size", file.size);
  visit("url", file.url);
}

template <typename T>
constexpr bool kIsList = false;
template <typename T>
constexpr bool kIsList<std::vector<T>> = true;

/// An empty list is left out of the document (most units have five):
/// unit_from_json and the unpacker read an absent list back as empty.
template <typename T>
bool left_out(const T& field) {
  if constexpr (kIsList<T>) {
    return field.empty();
  } else {
    return false;
  }
}

/// Parses a decoded string (a state name, a URL); a rejected one is
/// malformed input like any other.
template <typename T, typename Parse>
T parsed(const std::string& text, Parse&& parse) {
  try {
    return parse(text);
  } catch (const common::Error& e) {
    throw CodecError(std::string("unit document: ") + e.what());
  }
}

// --- binary ---------------------------------------------------------------

template <typename T>
void pack_value(net::Packer& p, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    net::pack_tag(p, JsonTag::kString);
    p.str(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    net::pack_tag(p, value ? JsonTag::kTrue : JsonTag::kFalse);
  } else if constexpr (std::is_arithmetic_v<T>) {
    net::pack_tag(p, JsonTag::kNumber);
    p.f64(static_cast<double>(value));
  } else if constexpr (std::is_same_v<T, UnitState>) {
    pack_value(p, to_string(value));
  } else if constexpr (std::is_same_v<T, saga::Url>) {
    pack_value(p, value.str());
  } else if constexpr (kIsList<T>) {
    net::pack_tag(p, JsonTag::kArray);
    p.u32(static_cast<std::uint32_t>(value.size()));
    for (const auto& item : value) pack_value(p, item);
  } else {
    std::uint32_t keys = 0;
    visit_fields(value, [&keys](const char*, const auto& field) {
      if (!left_out(field)) ++keys;
    });
    net::pack_tag(p, JsonTag::kObject);
    p.u32(keys);
    visit_fields(value, [&p](const char* key, const auto& field) {
      if (left_out(field)) return;
      p.str(key);
      pack_value(p, field);
    });
  }
}

void expect_tag(net::Unpacker& u, JsonTag tag) {
  if (u.u8() != static_cast<std::uint8_t>(tag)) {
    throw CodecError("unit document: value of the wrong type");
  }
}

template <typename T>
void unpack_value(net::Unpacker& u, T& value);

/// Reads one object's keys against its field list, walked in key order:
/// the field whose key comes next is read, a list whose key is absent
/// stays empty, and any other absent key, a key out of order or an
/// unknown one is an error.
class ObjectReader {
 public:
  explicit ObjectReader(net::Unpacker& u) : u_(u) {
    expect_tag(u_, JsonTag::kObject);
    left_ = u_.u32();
    advance();
  }

  template <typename T>
  void operator()(const char* key, T& field) {
    if (pending_ && key_ == key) {
      unpack_value(u_, field);
      advance();
    } else if (!kIsList<T>) {
      throw CodecError(std::string("unit document: missing key ") + key);
    }
  }

  void finish() const {
    if (pending_) throw CodecError("unit document: unexpected key " + key_);
  }

 private:
  void advance() {
    pending_ = left_ > 0;
    if (pending_) {
      --left_;
      key_ = u_.str();
    }
  }

  net::Unpacker& u_;
  std::uint32_t left_ = 0;
  bool pending_ = false;
  std::string key_;
};

template <typename T>
void unpack_value(net::Unpacker& u, T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    expect_tag(u, JsonTag::kString);
    value = u.str();
  } else if constexpr (std::is_same_v<T, bool>) {
    const std::uint8_t tag = u.u8();
    if (tag != static_cast<std::uint8_t>(JsonTag::kTrue) &&
        tag != static_cast<std::uint8_t>(JsonTag::kFalse)) {
      throw CodecError("unit document: value of the wrong type");
    }
    value = tag == static_cast<std::uint8_t>(JsonTag::kTrue);
  } else if constexpr (std::is_same_v<T, double>) {
    expect_tag(u, JsonTag::kNumber);
    value = u.f64();
  } else if constexpr (std::is_integral_v<T>) {
    expect_tag(u, JsonTag::kNumber);
    const double number = u.f64();
    // Json::as_int()'s cast, minus its undefined behaviour on a value no
    // int64 holds.
    if (!(number >= -0x1p63 && number < 0x1p63)) {
      throw CodecError("unit document: number out of range");
    }
    value = static_cast<T>(static_cast<std::int64_t>(number));
  } else if constexpr (std::is_same_v<T, UnitState>) {
    std::string name;
    unpack_value(u, name);
    value = parsed<UnitState>(name, unit_state_from_string);
  } else if constexpr (std::is_same_v<T, saga::Url>) {
    std::string text;
    unpack_value(u, text);
    value = parsed<saga::Url>(
        text, [](const std::string& t) { return saga::Url(t); });
  } else if constexpr (kIsList<T>) {
    expect_tag(u, JsonTag::kArray);
    const std::uint32_t n = u.u32();
    value.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      unpack_value(u, value.emplace_back());
    }
  } else {
    ObjectReader object(u);
    visit_fields(value, object);
    object.finish();
  }
}

template <typename T>
std::vector<std::uint8_t> pack(const T& value) {
  net::Packer p;
  pack_value(p, value);
  return p.take();
}

template <typename T>
T unpack(const std::vector<std::uint8_t>& bytes) {
  net::Unpacker u(bytes);
  T value;
  unpack_value(u, value);
  u.expect_done();
  return value;
}

common::Json json_of(const std::vector<std::uint8_t>& bytes) {
  net::Unpacker u(bytes);
  return net::unpack_json(u);
}

}  // namespace

std::vector<std::uint8_t> pack_unit_document(const UnitRecord& unit) {
  return pack(unit);
}

UnitRecord unpack_unit_document(const std::vector<std::uint8_t>& bytes) {
  return unpack<UnitRecord>(bytes);
}

std::vector<std::uint8_t> pack_unit_description(
    const ComputeUnitDescription& desc) {
  return pack(desc);
}

ComputeUnitDescription unpack_unit_description(
    const std::vector<std::uint8_t>& bytes) {
  return unpack<ComputeUnitDescription>(bytes);
}

// The Json forms are the binary bytes read back by the generic Json
// codec (and, for unit_from_json, written by it): the same encoding, so
// no second walk over the field lists.

common::Json unit_to_json(const ComputeUnitDescription& desc) {
  return json_of(pack(desc));
}

ComputeUnitDescription unit_from_json(const common::Json& doc) {
  net::Packer p;
  net::pack_json(p, doc);
  return unpack<ComputeUnitDescription>(p.data());
}

common::Json unit_document_json(const UnitRecord& unit) {
  return json_of(pack(unit));
}

}  // namespace hoh::pilot
