#include "net/json_codec.h"

namespace hoh::net {

namespace {

common::Json unpack_json_depth(Unpacker& u, int depth) {
  if (depth > 64) {
    throw CodecError("json: nesting exceeds 64 levels");
  }
  const std::uint8_t tag = u.u8();
  switch (static_cast<JsonTag>(tag)) {
    case JsonTag::kNull:
      return common::Json();
    case JsonTag::kFalse:
      return common::Json(false);
    case JsonTag::kTrue:
      return common::Json(true);
    case JsonTag::kNumber:
      return common::Json(u.f64());
    case JsonTag::kString:
      return common::Json(u.str());
    case JsonTag::kArray: {
      const std::uint32_t n = u.u32();
      common::JsonArray arr;
      arr.reserve(std::min<std::uint32_t>(n, 4096));
      for (std::uint32_t i = 0; i < n; ++i) {
        arr.push_back(unpack_json_depth(u, depth + 1));
      }
      return common::Json(std::move(arr));
    }
    case JsonTag::kObject: {
      const std::uint32_t n = u.u32();
      common::JsonObject obj;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string key = u.str();
        obj.emplace(std::move(key), unpack_json_depth(u, depth + 1));
      }
      return common::Json(std::move(obj));
    }
    default:
      throw CodecError("json: unknown tag " + std::to_string(tag));
  }
}

}  // namespace

void pack_json(Packer& p, const common::Json& doc) {
  if (doc.is_null()) {
    pack_tag(p, JsonTag::kNull);
  } else if (doc.is_bool()) {
    pack_tag(p, doc.as_bool() ? JsonTag::kTrue : JsonTag::kFalse);
  } else if (doc.is_number()) {
    pack_tag(p, JsonTag::kNumber);
    p.f64(doc.as_number());
  } else if (doc.is_string()) {
    pack_tag(p, JsonTag::kString);
    p.str(doc.as_string());
  } else if (doc.is_array()) {
    pack_tag(p, JsonTag::kArray);
    const auto& arr = doc.as_array();
    p.u32(static_cast<std::uint32_t>(arr.size()));
    for (const auto& v : arr) pack_json(p, v);
  } else {
    pack_tag(p, JsonTag::kObject);
    const auto& obj = doc.as_object();
    p.u32(static_cast<std::uint32_t>(obj.size()));
    for (const auto& [key, value] : obj) {
      p.str(key);
      pack_json(p, value);
    }
  }
}

common::Json unpack_json(Unpacker& u) { return unpack_json_depth(u, 0); }

}  // namespace hoh::net
