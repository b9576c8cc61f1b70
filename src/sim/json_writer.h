#pragma once
// Minimal deterministic JSON writer shared by the sim-layer serializers
// (sim::Report, sim::Plan). Keys are emitted in the order the caller writes
// them and doubles use shortest-round-trip formatting, so two equal records
// always serialize byte-identically — the property the parallel-sweep and
// plan-determinism checks compare.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace gemmini::sim::detail {

class JsonWriter {
 public:
  explicit JsonWriter(int indent) : indent_(indent) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(const char* k) {
    comma();
    newline();
    out_ << '"' << k << "\":";
    if (indent_ > 0) out_ << ' ';
    just_keyed_ = true;
  }

  void value(const std::string& s) {
    pre_value();
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // Control characters (a config or point name could carry a stray
        // newline/tab) must be escaped or the output is not JSON.
        switch (c) {
          case '\n': out_ << "\\n"; break;
          case '\t': out_ << "\\t"; break;
          case '\r': out_ << "\\r"; break;
          default: {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x",
                          static_cast<unsigned>(c));
            out_ << esc;
          }
        }
      } else {
        out_ << c;
      }
    }
    out_ << '"';
  }
  void value(const char* s) { value(std::string(s)); }
  void value(std::uint64_t v) {
    pre_value();
    out_ << v;
  }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(bool v) {
    pre_value();
    out_ << (v ? "true" : "false");
  }
  void value(double v) {
    pre_value();
    if (!std::isfinite(v)) {
      out_ << "null";
      return;
    }
    // std::to_chars is locale-independent and shortest-round-trip by
    // construction (snprintf %g would honour LC_NUMERIC and could emit
    // "0,5" — invalid JSON — inside a host app that calls setlocale).
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_ << std::string_view(buf, static_cast<std::size_t>(res.ptr - buf));
  }

  std::string str() const { return out_.str(); }

 private:
  void open(char c) {
    pre_value();
    out_ << c;
    ++depth_;
    empty_ = true;
  }
  void close(char c) {
    --depth_;
    if (!empty_) newline();
    out_ << c;
    empty_ = false;
  }
  void pre_value() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (depth_ == 0) return;  // the document's value starts at byte 0
    comma();
    newline();
  }
  void comma() {
    if (!empty_ && !just_keyed_) out_ << ',';
    empty_ = false;
  }
  void newline() {
    if (indent_ <= 0) return;
    out_ << '\n';
    for (int i = 0; i < depth_ * indent_; ++i) out_ << ' ';
  }

  std::ostringstream out_;
  int indent_;
  int depth_ = 0;
  bool empty_ = true;
  bool just_keyed_ = false;
};

}  // namespace gemmini::sim::detail
