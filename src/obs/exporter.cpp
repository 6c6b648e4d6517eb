#include "obs/exporter.hpp"

#include <cstdio>
#include <deque>
#include <map>
#include <ostream>
#include <tuple>

#include "obs/json_util.hpp"

namespace gtw::obs {

namespace {

using detail::json_escape;
using detail::ts_us;

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const trace::TraceRecorder& rec,
                        const ChromeTraceOptions& opts) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
       "\"args\":{\"name\":\"" + json_escape(opts.process_name) + "\"}}");
  for (int r = 0; r < rec.ranks(); ++r) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
         std::to_string(r) + ",\"args\":{\"name\":\"rank " +
         std::to_string(r) + "\"}}");
  }

  // FIFO matcher for flow arrows: sends and receipts pair up per
  // (src rank, dst rank, tag) in order, which is exactly the in-order
  // delivery the simulated transports provide.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::deque<std::uint64_t>>
      in_flight;
  std::uint64_t next_flow_id = 1;

  for (const trace::TraceEvent& e : rec.events()) {
    const std::string ts = ts_us(e.time_ps);
    const std::string tid = std::to_string(e.rank);
    switch (e.kind) {
      case trace::EventKind::kEnter:
        emit("{\"name\":\"" + json_escape(rec.state_name(e.id)) +
             "\",\"ph\":\"B\",\"pid\":0,\"tid\":" + tid + ",\"ts\":" + ts +
             "}");
        break;
      case trace::EventKind::kLeave:
        emit("{\"name\":\"" + json_escape(rec.state_name(e.id)) +
             "\",\"ph\":\"E\",\"pid\":0,\"tid\":" + tid + ",\"ts\":" + ts +
             "}");
        break;
      case trace::EventKind::kSend: {
        const std::uint64_t id = next_flow_id++;
        in_flight[{e.rank, e.id, e.tag}].push_back(id);
        emit("{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"pid\":0,"
             "\"tid\":" + tid + ",\"ts\":" + ts + ",\"id\":" +
             std::to_string(id) + ",\"args\":{\"tag\":" +
             std::to_string(e.tag) + ",\"bytes\":" + std::to_string(e.bytes) +
             "}}");
        break;
      }
      case trace::EventKind::kRecv: {
        const auto key = std::make_tuple(e.id, e.rank, e.tag);
        const auto it = in_flight.find(key);
        if (it == in_flight.end() || it->second.empty()) break;  // unmatched
        const std::uint64_t id = it->second.front();
        it->second.pop_front();
        emit("{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\","
             "\"pid\":0,\"tid\":" + tid + ",\"ts\":" + ts + ",\"id\":" +
             std::to_string(id) + ",\"args\":{\"tag\":" +
             std::to_string(e.tag) + ",\"bytes\":" + std::to_string(e.bytes) +
             "}}");
        break;
      }
    }
  }

  if (opts.marks_from != nullptr) {
    for (const Mark& m : opts.marks_from->marks()) {
      emit("{\"name\":\"" + json_escape(m.name) +
           "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":" +
           ts_us(m.t.ps()) + ",\"args\":{\"phase\":\"" +
           (m.begin ? "begin" : "end") + "\"}}");
    }
  }

  if (opts.series != nullptr) {
    for (const TimeSeriesSampler::Series& s : opts.series->series()) {
      const std::string name = json_escape(s.name);
      for (const auto& [t_ps, value] : s.points) {
        emit("{\"name\":\"" + name + "\",\"ph\":\"C\",\"pid\":0,\"ts\":" +
             ts_us(t_ps) + ",\"args\":{\"value\":" + fmt_double(value) +
             "}}");
      }
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

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
