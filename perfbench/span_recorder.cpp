#include "span_recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

const char* self_time_metric(Layer layer) {
  switch (layer) {
    case Layer::kDesStep: return "des.step_self_s";
    case Layer::kLinkSubmit: return "net.link.submit_s";
    case Layer::kHostReceive: return "net.host.receive_s";
    case Layer::kHostSend: return "net.host.send_s";
    case Layer::kScannerAcquire: return "scanner.acquire_s";
    case Layer::kFireProcessScan: return "fire.process_scan_s";
    case Layer::kTestbedBuild: return "testbed.build_s";
    case Layer::kMetaWanSend: return "meta.wan_send_s";
    case Layer::kObsWrite: return "obs.write_s";
    case Layer::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  // Room for 2^28 records before the pointer table itself must grow.
  chunks_.reserve(4096);
}

SpanRecorder::~SpanRecorder() {
  for (Record* c : chunks_) std::free(c);
}

void SpanRecorder::grow() {
  void* p = std::malloc(sizeof(Record) * kChunk);
  if (p == nullptr) throw std::bad_alloc();
  chunks_.push_back(static_cast<Record*>(p));
}

SpanRecorder::Summary SpanRecorder::summarize() const {
  // Self time of a span is its duration less that of its direct children.
  // Records are in begin order, so a record's parent is the last record
  // seen one level up; charging each duration to the record's layer and
  // debiting it from the parent's layer gives per-layer self times.
  std::array<std::int64_t, kLayers> self{};
  std::array<std::int64_t, kLayers> timed_self{};
  std::array<Layer, 256> open{};
  std::int64_t covered = 0;
  std::size_t w = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    const Record& r = slot(i);
    while (w < windows_.size() && windows_[w].second <= r.begin_ns) ++w;
    const bool timed = w < windows_.size() && windows_[w].first <= r.begin_ns;
    const auto layer = static_cast<std::size_t>(r.layer);
    const auto dur = static_cast<std::int64_t>(r.dur_ns);
    self[layer] += dur;
    if (timed) timed_self[layer] += dur;
    if (r.depth > 0) {
      const auto parent = static_cast<std::size_t>(open[r.depth - 1u]);
      self[parent] -= dur;
      if (timed) timed_self[parent] -= dur;
    } else if (timed) {
      covered += dur;
    }
    open[r.depth] = r.layer;
  }
  std::int64_t wall = 0;
  for (const auto& [b, e] : windows_) wall += e - b;
  std::int64_t timed_sum = 0;
  for (const std::int64_t s : timed_self) timed_sum += s;

  Summary s;
  for (std::size_t l = 0; l < kLayers; ++l)
    s.self_s[l] = static_cast<double>(self[l]) * 1e-9;
  s.spans = size_;
  s.timed_wall_s = static_cast<double>(wall) * 1e-9;
  s.unattributed_s = static_cast<double>(wall - covered) * 1e-9;
  s.timed_self_sum_s = static_cast<double>(timed_sum) * 1e-9;
  s.valid = !overflow_;
  return s;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // Header: magic, record count, then kLayers NUL-terminated layer names
  // (indexed by Record::layer); then the 16-byte records in begin order.
  bool ok = std::fwrite("GTWSPAN1", 1, 8, f) == 8;
  const std::uint64_t n = size_;
  ok = ok && std::fwrite(&n, sizeof n, 1, f) == 1;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const char* name = self_time_metric(static_cast<Layer>(l));
    ok = ok && std::fputs(name, f) >= 0 && std::fputc('\0', f) != EOF;
  }
  for (std::uint32_t i = 0; ok && i < size_; i += kChunk) {
    const std::uint32_t len = size_ - i < kChunk ? size_ - i : kChunk;
    ok = std::fwrite(&slot(i), sizeof(Record), len, f) == len;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
