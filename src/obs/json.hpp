// The JSON value writers of the observability layer, shared by the trace,
// journal, metrics and incident-dump exporters so every artifact escapes
// strings and formats numbers the same way.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace tdp::obs {

/// Appends `text` JSON-escaped, without the surrounding quotes.
inline void append_json_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// %.17g, which round-trips every finite double. Non-finite values are
/// written as NaN, Infinity and -Infinity, the tokens Python's json reads.
inline void append_number(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
  } else if (std::isinf(value)) {
    out += value > 0 ? "Infinity" : "-Infinity";
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    out += buffer;
  }
}

inline void append_number(std::string& out, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
}

inline void append_number(std::string& out, std::int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(value));
  out += buffer;
}

}  // namespace tdp::obs
