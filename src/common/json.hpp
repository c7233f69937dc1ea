// The flat-JSON primitives every serialized record shares: byte-stable
// `"key":value,` emitters, the one string escaper, and the two field sinks
// a serialization walk is instantiated with (JsonWriter to write,
// FieldReader to read back).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

namespace hm {

/// Parsed flat JSON object: field name -> raw value token (strings already
/// unescaped).
using FieldMap = std::map<std::string, std::string, std::less<>>;

/// Byte-stable JSON `"key":value,` emitters (trailing comma included).
/// Doubles print as %.17g, which round-trips every IEEE-754 value exactly
/// through strtod — the representation the memo cache and the
/// `--jobs N == --jobs 1` invariant compare.
void json_kv_u64(std::string& out, const char* key, std::uint64_t v);
void json_kv_dbl(std::string& out, const char* key, double v);
void json_kv_bool(std::string& out, const char* key, bool v);
void json_kv_str(std::string& out, const char* key, std::string_view v);

/// Append @p s JSON-string-escaped (quotes, backslashes, \u00XX control
/// characters) to @p out.
void append_json_escaped(std::string& out, std::string_view s);

/// Field sink of a serialization walk that writes `"key":value,` pairs.
struct JsonWriter {
  std::string& out;
  template <class T>
  void field(const char* key, const T& v) const {
    if constexpr (std::is_same_v<T, bool>) json_kv_bool(out, key, v);
    else if constexpr (std::is_same_v<T, double>) json_kv_dbl(out, key, v);
    else if constexpr (std::is_integral_v<T>) json_kv_u64(out, key, v);
    else json_kv_str(out, key, v);
  }
  /// A section's presence marker: the section is written only when the
  /// marker is non-zero.
  bool present(const char* key, std::uint64_t marker) const {
    if (marker != 0) field(key, marker);
    return marker != 0;
  }
};

/// Field sink of a serialization walk that reads parsed JSON.  A missing
/// key reads as 0 (or ""), so records that predate a field still load.
struct FieldReader {
  const FieldMap& fields;
  template <class T>
  void field(const char* key, T& v) const {
    static const std::string kMissing;
    const auto it = fields.find(key);
    const std::string& s = it == fields.end() ? kMissing : it->second;
    if constexpr (std::is_same_v<T, bool>) v = s == "true";
    else if constexpr (std::is_same_v<T, double>) v = std::strtod(s.c_str(), nullptr);
    else if constexpr (std::is_integral_v<T>) v = static_cast<T>(std::strtoull(s.c_str(), nullptr, 10));
    else v = s;
  }
  bool present(const char* key, std::uint64_t& marker) const {
    field(key, marker);
    return marker != 0;
  }
};

}  // namespace hm
