#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

namespace qrc::obs {

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

std::string json_number(double d) {
  if (!std::isfinite(d)) {
    return "null";
  }
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(d));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", d);
  return buffer;
}

}  // namespace qrc::obs
