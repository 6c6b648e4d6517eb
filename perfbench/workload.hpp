#pragma once

// What every workload reports, and the phase clock that defines set-up and
// timed (wall) host time for all of them.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "des/scheduler.hpp"
#include "net/link.hpp"
#include "span_recorder.hpp"
#include "testbed/testbed.hpp"

namespace perfbench {

struct Result {
  std::uint64_t ops = 0;         // simulated cases run
  std::uint64_t failed_ops = 0;  // cases whose oracle failed
  double setup_s = 0.0;          // host seconds before the first step
  double wall_s = 0.0;           // host seconds from first step to drain
  std::uint64_t heap_allocs = 0; // operator new calls in the timed phase
  std::uint64_t events = 0;      // Scheduler events in the timed phase
  std::uint64_t stream_hash = 0; // Scheduler::stream_hash (combined)
  // Exact per-layer counts and ratios read from public getters after the
  // run, keyed by metric name.
  std::map<std::string, double> layer;
  // Simulated figures the oracles compare, keyed by a readable name.
  std::map<std::string, double> figures;
  std::vector<std::string> failures;  // one line per failed check

  // Records a failed check of the current case; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
    return ok;
  }
};

// Frames, bursts and lost frames (queue drops, outage drops, corrupted)
// summed over links.
struct LinkCounts {
  std::uint64_t frames = 0, bursts = 0, drops = 0;

  void add(const gtw::net::Link& l) {
    frames += l.frames_sent();
    bursts += l.bursts_completed();
    drops += l.drops() + l.outage_drops() + l.corrupted_frames();
  }
  // Every link a Testbed enumerates: the ATM switch egress ports (the WAN
  // trunks among them) and the ATM NIC uplinks.
  void add(gtw::testbed::Testbed& tb) {
    for (gtw::net::AtmSwitch* sw : {&tb.atm_juelich(), &tb.atm_gmd()})
      for (int p = 0; p < sw->port_count(); ++p) add(sw->egress_link(p));
    for (const gtw::net::Link* l : tb.atm_uplinks()) add(*l);
  }
  void publish(Result& r) const {
    r.layer["net.link.frames"] = static_cast<double>(frames);
    r.layer["net.link.bursts"] = static_cast<double>(bursts);
    r.layer["net.link.drops"] = static_cast<double>(drops);
  }
};

// Host-time bookkeeping of one simulated case:
//   setup:  construction until timed_begin()
//   timed:  timed_begin() (just before the first Scheduler::step) until
//           timed_end() (the run has drained)
// The allocation counter is zeroed when the timed phase starts.
class PhaseClock {
 public:
  void timed_begin() {
    const auto t = Clock::now();
    setup_s_ += seconds(t - setup_start_);
    if (g_recorder != nullptr) g_recorder->phase_begin();
    reset_allocations();
    timed_start_ = Clock::now();
  }
  void timed_end() {
    const auto t = Clock::now();
    allocs_ += allocations();
    wall_s_ += seconds(t - timed_start_);
    if (g_recorder != nullptr) g_recorder->phase_end();
  }
  // Starts the set-up phase of the next case.
  void setup_begin() { setup_start_ = Clock::now(); }

  void add_to(Result& r) const {
    r.setup_s += setup_s_;
    r.wall_s += wall_s_;
    r.heap_allocs += allocs_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }
  Clock::time_point setup_start_ = Clock::now();
  Clock::time_point timed_start_ = setup_start_;
  double setup_s_ = 0.0;
  double wall_s_ = 0.0;
  std::uint64_t allocs_ = 0;
};

// Drives a scheduler to drain, one span per step when tracing.  `after`
// may relabel a step's span once it has run (see Layer::kFireProcessScan).
template <class Relabel>
void run_steps(gtw::des::Scheduler& sched, Relabel&& after) {
  SpanRecorder* rec = g_recorder;
  if (rec == nullptr) {
    while (sched.step()) {
    }
    return;
  }
  for (;;) {
    const std::uint32_t id = rec->begin(Layer::kDesStep);
    const bool more = sched.step();
    rec->end(id, after());
    if (!more) break;
  }
}
inline void run_steps(gtw::des::Scheduler& sched) {
  run_steps(sched, [] { return Layer::kDesStep; });
}

// 64-bit mix (splitmix64 finaliser): derives independent generator seeds
// from the benchmark seed.
constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Folds one case's stream hash into a workload's combined hash (FNV-1a).
inline void fold_hash(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

// Relative distance of a simulated figure from its recorded reference.
inline bool within_pct(double value, double reference, double pct) {
  const double d = value - reference;
  return (d < 0 ? -d : d) <= reference * pct / 100.0;
}
// The ROADMAP fidelity budget for simulated figures.
constexpr double kFidelityPct = 1.0;

Result run_national(std::uint64_t seed);
Result run_wan_transport(std::uint64_t seed);
Result run_wan_traced(std::uint64_t seed, bool untraced_twin);
Result run_fmri(std::uint64_t seed);

}  // namespace perfbench
