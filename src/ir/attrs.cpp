#include "ir/attrs.hpp"

#include "support/string_utils.hpp"

namespace htvm {

std::string AttrValueToString(const AttrValue& v) {
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  if (const i64* i = std::get_if<i64>(&v)) return std::to_string(*i);
  if (const double* d = std::get_if<double>(&v)) return StrFormat("%g", *d);
  if (const std::string* s = std::get_if<std::string>(&v)) return "\"" + *s + "\"";
  if (const auto* vec = std::get_if<std::vector<i64>>(&v))
    return IntVecToString(*vec);
  HTVM_UNREACHABLE("bad attr variant");
}

namespace {
template <typename T>
const T* GetAs(const std::map<std::string, AttrValue>& values,
               const std::string& key) {
  auto it = values.find(key);
  if (it == values.end()) return nullptr;
  const T* typed = std::get_if<T>(&it->second);
  HTVM_CHECK_MSG(typed != nullptr, "attribute present with wrong type");
  return typed;
}
}  // namespace

i64 AttrMap::GetInt(const std::string& key, i64 def) const {
  const i64* v = GetAs<i64>(values_, key);
  return v ? *v : def;
}

bool AttrMap::GetBool(const std::string& key, bool def) const {
  const bool* v = GetAs<bool>(values_, key);
  return v ? *v : def;
}

double AttrMap::GetDouble(const std::string& key, double def) const {
  const double* v = GetAs<double>(values_, key);
  return v ? *v : def;
}

std::string AttrMap::GetString(const std::string& key,
                               const std::string& def) const {
  const std::string* v = GetAs<std::string>(values_, key);
  return v ? *v : def;
}

std::vector<i64> AttrMap::GetIntVec(const std::string& key,
                                    const std::vector<i64>& def) const {
  const std::vector<i64>* v = GetAs<std::vector<i64>>(values_, key);
  return v ? *v : def;
}

Status CheckAttrTypes(const AttrMap& attrs) {
  // A value of the alternative each well-known key's getter expects.
  static const std::map<std::string, AttrValue> kTypes = [] {
    const AttrValue i = i64{0}, s = std::string(), v = std::vector<i64>();
    return std::map<std::string, AttrValue>{
        {"a_max", i},     {"a_min", i},   {"axes", v},       {"axis", i},
        {"dtype", s},     {"groups", i},  {"kernel_lib", s}, {"new_shape", v},
        {"pad_width", v}, {"padding", v}, {"pool_size", v},  {"strides", v},
        {"target", s},    {"transpose_b", i},
    };
  }();
  for (const auto& [key, value] : attrs.values()) {
    auto it = kTypes.find(key);
    if (it != kTypes.end() && value.index() != it->second.index()) {
      return Status::InvalidArgument(StrFormat(
          "attribute %s has the wrong type (%s)", key.c_str(),
          AttrValueToString(value).c_str()));
    }
  }
  return Status::Ok();
}

bool AttrMap::Matches(const std::string& key, const AttrValue& expected) const {
  auto it = values_.find(key);
  return it != values_.end() && it->second == expected;
}

std::string AttrMap::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const auto& [k, v] : values_) {
    parts.push_back(k + "=" + AttrValueToString(v));
  }
  return "{" + Join(parts, ", ") + "}";
}

}  // namespace htvm
