#include "pilot/descriptions.h"

namespace hoh::pilot {

common::Json unit_to_json(const ComputeUnitDescription& desc) {
  common::Json j;
  // An empty list is left out (unit_from_json reads it back as empty):
  // most units have five, and every store document and every copy of
  // one would otherwise carry a map node for each.
  auto put_list = [&j](const char* key, common::JsonArray arr) {
    if (!arr.empty()) j[key] = std::move(arr);
  };
  auto strings = [](const std::vector<std::string>& values) {
    return common::JsonArray(values.begin(), values.end());
  };
  auto stage_list = [](const std::vector<StagedFile>& files) {
    common::JsonArray arr;
    for (const auto& f : files) {
      common::Json entry;
      entry["url"] = f.url.str();
      entry["size"] = f.size;
      arr.push_back(std::move(entry));
    }
    return arr;
  };
  j["name"] = desc.name;
  j["executable"] = desc.executable;
  put_list("arguments", strings(desc.arguments));
  j["cores"] = static_cast<std::int64_t>(desc.cores);
  j["memory_mb"] = desc.memory_mb;
  j["duration"] = desc.duration;
  j["exit_code"] = static_cast<std::int64_t>(desc.exit_code);
  j["is_mpi"] = desc.is_mpi;
  put_list("input_staging", stage_list(desc.input_staging));
  put_list("output_staging", stage_list(desc.output_staging));
  put_list("preferred_nodes", strings(desc.preferred_nodes));
  put_list("depends_on", strings(desc.depends_on));
  return j;
}

ComputeUnitDescription unit_from_json(const common::Json& doc) {
  static const common::JsonArray kNone;
  auto list = [&doc](const char* key) -> const common::JsonArray& {
    return doc.contains(key) ? doc.at(key).as_array() : kNone;
  };
  ComputeUnitDescription desc;
  desc.name = doc.at("name").as_string();
  desc.executable = doc.at("executable").as_string();
  for (const auto& a : list("arguments")) {
    desc.arguments.push_back(a.as_string());
  }
  desc.cores = static_cast<int>(doc.at("cores").as_int());
  desc.memory_mb = doc.at("memory_mb").as_int();
  desc.duration = doc.at("duration").as_number();
  desc.exit_code = static_cast<int>(doc.at("exit_code").as_int());
  desc.is_mpi = doc.at("is_mpi").as_bool();
  auto parse_stage = [](const common::JsonArray& arr) {
    std::vector<StagedFile> out;
    for (const auto& e : arr) {
      out.push_back(StagedFile{saga::Url(e.at("url").as_string()),
                               e.at("size").as_int()});
    }
    return out;
  };
  desc.input_staging = parse_stage(list("input_staging"));
  desc.output_staging = parse_stage(list("output_staging"));
  for (const auto& n : list("preferred_nodes")) {
    desc.preferred_nodes.push_back(n.as_string());
  }
  for (const auto& d : list("depends_on")) {
    desc.depends_on.push_back(d.as_string());
  }
  return desc;
}

}  // namespace hoh::pilot
