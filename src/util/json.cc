#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace krcore {

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // %.17g round-trips every double; try the shorter %.15g first and keep it
  // when it parses back exactly (keeps 0.25 as "0.25", not 17 digits).
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Scalar(std::string_view(&bracket, 1));
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Scalar(std::string_view text) {
  if (need_comma_) out_ += ',';
  out_ += text;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Scalar("\"");
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out_ += '\\';
      out_ += c == '\n' ? 'n' : c == '\r' ? 'r' : 't';
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

}  // namespace krcore
