#ifndef HISTWALK_PERFBENCH_JSON_WRITER_H_
#define HISTWALK_PERFBENCH_JSON_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace histwalk::perfbench {

// Minimal JSON object builder for the harness's one output document.
// Doubles are written with 17 significant digits so they round-trip
// bit-exactly (estimates are compared for equality, not closeness).
class JsonObject {
 public:
  JsonObject& Uint(std::string_view key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Double(std::string_view key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& String(std::string_view key, std::string_view value) {
    return Raw(key, Quote(value));
  }
  // `json` must already be a JSON value (object, array, number...).
  JsonObject& Raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ',';
    body_ += Quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

// A JSON array of already-rendered JSON values.
inline std::string JsonArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += values[i];
  }
  return out + "]";
}

}  // namespace histwalk::perfbench

#endif  // HISTWALK_PERFBENCH_JSON_WRITER_H_
