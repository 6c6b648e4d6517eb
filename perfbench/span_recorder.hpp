#pragma once

// Wall-clock spans recorded from the benchmark's own files, around the calls
// it makes into each simulator layer's public functions (and around every
// Scheduler::step).  Spans are kept in memory as compact records and turned
// into per-layer self times once, after the run.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// One entry per per-layer self-time metric.  The first six only occur
// inside a timed phase, the next two only in set-up; obs.write ends the
// timed phase of wan_traced.
enum class Layer : std::uint8_t {
  kDesStep,          // Scheduler::step, less the wrapped calls inside it
  kLinkSubmit,       // net::Link::submit from a benchmark NIC
  kHostReceive,      // net::Host::receive_from_nic from a benchmark sink
  kHostSend,         // net::Host::send_datagram from a benchmark flow
  kScannerAcquire,   // the fire::ImageSource the benchmark passes in
  kFireProcessScan,  // a step in which AnalysisEngine::process_scan ran
  kTestbedBuild,     // testbed::Testbed construction
  kMetaWanSend,      // meta::Metacomputer::wan_send
  kObsWrite,         // obs::SpanTracer::write_json
  kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

// Metric name of a layer's self time, e.g. "des.step_self_s".
const char* self_time_metric(Layer layer);

class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint32_t begin(Layer layer) {
    const std::uint32_t id = size_;
    Record& r = slot(id);
    r.layer = layer;
    r.depth = depth_++;
    r.dur_ns = 0;
    r.begin_ns = now_ns();
    ++size_;
    return id;
  }
  void end(std::uint32_t id) {
    Record& r = slot(id);
    const std::int64_t d = now_ns() - r.begin_ns;
    if (d > static_cast<std::int64_t>(UINT32_MAX)) overflow_ = true;
    r.dur_ns = static_cast<std::uint32_t>(d);
    --depth_;
  }
  // Ends the span and files it under `layer` instead of the one it began
  // with (a step is only known to be a FIRE compute step once it has run).
  void end(std::uint32_t id, Layer layer) {
    end(id);
    slot(id).layer = layer;
  }

  // Timed phase: from the first Scheduler::step until the run drains.
  void phase_begin() { windows_.emplace_back(now_ns(), 0); }
  void phase_end() { windows_.back().second = now_ns(); }

  struct Summary {
    std::array<double, kLayers> self_s{};  // per layer, all phases
    std::uint64_t spans = 0;
    double timed_wall_s = 0.0;      // sum of the timed phases
    double unattributed_s = 0.0;    // timed wall no top-level span covers
    double timed_self_sum_s = 0.0;  // self time of spans in timed phases
    bool valid = true;              // false if a span outgrew its record
  };
  Summary summarize() const;

  // Writes the raw records once, after the run (binary, see README.md).
  bool write(const std::string& path) const;

 private:
  struct Record {
    std::int64_t begin_ns;  // since the recorder was created
    std::uint32_t dur_ns;
    Layer layer;
    std::uint8_t depth;  // number of spans open when this one began
  };
  static constexpr std::uint32_t kChunkShift = 16;
  static constexpr std::uint32_t kChunk = 1u << kChunkShift;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  Record& slot(std::uint32_t id) {
    const std::uint32_t c = id >> kChunkShift;
    if (c == chunks_.size()) grow();
    return chunks_[c][id & (kChunk - 1)];
  }
  const Record& slot(std::uint32_t id) const {
    return chunks_[id >> kChunkShift][id & (kChunk - 1)];
  }
  void grow();

  std::chrono::steady_clock::time_point origin_;
  std::vector<Record*> chunks_;  // malloc'd, so the allocation count is clean
  std::uint32_t size_ = 0;
  std::uint8_t depth_ = 0;
  bool overflow_ = false;
  std::vector<std::pair<std::int64_t, std::int64_t>> windows_;
};

// The recorder the benchmark's call wrappers report to: null (the default)
// in untraced runs, so a wrapper then costs one branch.
inline SpanRecorder* g_recorder = nullptr;

// RAII span around one call into a simulator layer.
class Span {
 public:
  explicit Span(Layer layer) : rec_(g_recorder) {
    if (rec_ != nullptr) id_ = rec_->begin(layer);
  }
  ~Span() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_ = 0;
};

}  // namespace perfbench
