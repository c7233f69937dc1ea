#include "common/json.hpp"

#include <cstdio>

namespace hm {

void json_kv_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu,", key, static_cast<unsigned long long>(v));
  out += buf;
}

void json_kv_dbl(std::string& out, const char* key, double v) {
  // %.17g round-trips every IEEE-754 double exactly through strtod.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", key, v);
  out += buf;
}

void json_kv_bool(std::string& out, const char* key, bool v) {
  out += '"';
  out += key;
  out += v ? "\":true," : "\":false,";
}

void json_kv_str(std::string& out, const char* key, std::string_view v) {
  out += '"';
  out += key;
  out += "\":\"";
  append_json_escaped(out, v);
  out += "\",";
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace hm
