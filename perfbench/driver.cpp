// gtw_perfbench: runs one benchmark workload once and prints one JSON line
// with its host-side costs, per-layer counts and oracle verdict.
//
//   gtw_perfbench --workload <name> --seed <n> [--trace <file>]
//
// --trace records wall-clock spans (span_recorder.hpp), adds per-layer self
// times to the line and writes the raw span records to <file>.  run.py
// repeats this binary for the measured time and reduces the lines.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workload.hpp"

namespace {

using perfbench::Result;

void print_number(const char* key, double v, bool comma = true) {
  std::printf("\"%s\": %.17g%s", key, v, comma ? ", " : "");
}

void print_result(const std::string& workload, std::uint64_t seed,
                  const Result& r, bool traced,
                  const perfbench::SpanRecorder::Summary& spans,
                  double peak_rss_mb) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, ",
              workload.c_str(), static_cast<unsigned long long>(seed),
              traced ? "true" : "false");
  std::printf("\"stream_hash\": \"0x%016llx\", ",
              static_cast<unsigned long long>(r.stream_hash));
  print_number("ops", static_cast<double>(r.ops));
  print_number("failed_ops", static_cast<double>(r.failed_ops));
  print_number("setup_s", r.setup_s);
  print_number("wall_s", r.wall_s);
  print_number("peak_rss_mb", peak_rss_mb);
  print_number("heap_allocs", static_cast<double>(r.heap_allocs));
  print_number("events", static_cast<double>(r.events));
  std::printf("\"layer\": {");
  bool first = true;
  for (const auto& [k, v] : r.layer) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  if (traced) {
    for (std::size_t l = 0; l < perfbench::kLayers; ++l)
      std::printf(", \"%s\": %.17g",
                  perfbench::self_time_metric(static_cast<perfbench::Layer>(l)),
                  spans.self_s[l]);
    std::printf(", \"bench.spans\": %llu, \"bench.traced_wall_s\": %.17g, "
                "\"bench.unattributed_s\": %.17g, "
                "\"bench.timed_self_sum_s\": %.17g",
                static_cast<unsigned long long>(spans.spans),
                spans.timed_wall_s, spans.unattributed_s,
                spans.timed_self_sum_s);
  }
  std::printf("}, \"figures\": {");
  first = true;
  for (const auto& [k, v] : r.figures) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}, \"failures\": [");
  first = true;
  for (const std::string& f : r.failures) {
    std::printf("%s\"%s\"", first ? "" : ", ", f.c_str());
    first = false;
  }
  std::printf("]}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: gtw_perfbench --workload <national_hybrid|"
               "wan_transport|wan_traced|fmri_pipeline> --seed <n> "
               "[--trace <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--trace" && i + 1 < argc) {
      traced = true;
      spans_path = argv[++i];
    } else if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage();
    } else {
      return usage();
    }
  }

  perfbench::SpanRecorder recorder;
  if (traced) perfbench::g_recorder = &recorder;
  Result r;
  try {
    if (workload == "national_hybrid") {
      r = perfbench::run_national(seed);
    } else if (workload == "wan_transport") {
      r = perfbench::run_wan_transport(seed);
    } else if (workload == "wan_traced") {
      r = perfbench::run_wan_traced(seed, traced);
    } else if (workload == "fmri_pipeline") {
      r = perfbench::run_fmri(seed);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtw_perfbench: %s: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  perfbench::g_recorder = nullptr;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  perfbench::SpanRecorder::Summary spans;
  if (traced) {
    spans = recorder.summarize();
    if (!spans.valid) {
      std::fprintf(stderr, "gtw_perfbench: a span outgrew its record\n");
      return 1;
    }
    if (!recorder.write(spans_path)) {
      std::fprintf(stderr, "gtw_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  r.layer["des.events"] = static_cast<double>(r.events);
  print_result(workload, seed, r, traced, spans, peak_rss_mb);
  return 0;
}
