// Streaming JSON emitter for artifacts (BENCH_*.json, ABUSE_*.json): fields
// come out in write order with ", " / "\": " separators, and str() adds the
// trailing newline. Not a general-purpose serializer; obs/export's compact
// trace JSON is a different format.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace p2pdrm::obs {

class JsonWriter {
 public:
  JsonWriter& begin_object() { item(); out_ += '{'; first_.push_back(true); return *this; }
  JsonWriter& end_object() { out_ += '}'; first_.pop_back(); return *this; }
  JsonWriter& begin_array() { item(); out_ += '['; first_.push_back(true); return *this; }
  JsonWriter& end_array() { out_ += ']'; first_.pop_back(); return *this; }

  JsonWriter& key(const std::string& k) {
    item();
    out_ += '"';
    append_escaped(k);
    out_ += "\": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    item();
    out_ += '"';
    append_escaped(v);
    out_ += '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(bool v) { item(); out_ += v ? "true" : "false"; return *this; }
  JsonWriter& value(double v) {
    item();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) { item(); out_ += std::to_string(v); return *this; }
  JsonWriter& value(std::int64_t v) { item(); out_ += std::to_string(v); return *this; }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }

  template <typename T>
  JsonWriter& kv(const std::string& k, T v) {
    return key(k).value(v);
  }

  /// The document so far plus a trailing newline (artifact convention).
  std::string str() const { return out_ + "\n"; }

 private:
  void item() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ", ";
      first_.back() = false;
    }
  }
  void append_escaped(const std::string& s) {
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace p2pdrm::obs
