#include "obs/exporter.hpp"

#include <cstdio>
#include <ostream>

#include "obs/json_util.hpp"

namespace gtw::obs {

namespace {

using detail::json_escape;

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void write_metrics_json(std::ostream& os, const Registry& reg,
                        const std::string& label) {
  os << "{\n  \"label\": \"" << json_escape(label) << "\",\n  \"metrics\": {";
  bool first = true;
  for (const Registry::Sample& s : reg.snapshot()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(s.name) << "\": ";
    if (s.kind == Registry::Kind::kGauge)
      os << fmt_double(s.d);
    else
      os << s.u;
    first = false;
  }
  os << "\n  },\n  \"marks\": [";
  first = true;
  for (const Mark& m : reg.marks()) {
    os << (first ? "\n" : ",\n") << "    {\"t_ps\": " << m.t.ps()
       << ", \"name\": \"" << json_escape(m.name) << "\", \"phase\": \""
       << (m.begin ? "begin" : "end") << "\"}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

void write_series_json(std::ostream& os, const TimeSeriesSampler& sampler) {
  os << "{\n  \"series\": [";
  bool first = true;
  for (const TimeSeriesSampler::Series& s : sampler.series()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(s.name)
       << "\", \"points\": [";
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      os << (i ? ", " : "") << "[" << s.points[i].first << ", "
         << fmt_double(s.points[i].second) << "]";
    }
    os << "]}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

}  // namespace gtw::obs
