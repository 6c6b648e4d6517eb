// Tiny JSON output helpers shared by the obs exporters (exporter.cpp,
// span.cpp, span_analysis.cpp).  Header-only on purpose: every user is
// inside gtw_obs and the functions are a few lines of formatting each.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace gtw::obs::detail {

// JSON string escape (control characters, quote, backslash), appended to
// `out`.  Runs that need no escaping are copied in one append.
inline void append_json_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
      continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_escaped(out, s);
  return out;
}

// Chrome `ts` is microseconds.  1 us == 1'000'000 ps, so the 6-digit
// fraction below is the picosecond remainder verbatim: exact integer
// formatting, byte-identical run to run.
inline std::string ts_us(std::int64_t ps) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%06" PRId64, ps / 1'000'000,
                ps % 1'000'000);
  return buf;
}

}  // namespace gtw::obs::detail
