// Simulation-wide observability registry (the profile half of the VAMPIR
// tooling the paper leans on in section 3 — "performance evaluation and
// tuning of metacomputing applications").
//
// A Registry is a table of named read-only probes with dotted names
// ("net.link.fzj-gmd.tx_bytes", "tcp.conn0.retransmits",
// "fire.stage.motion.busy_ps") plus a list of DES-clock marks.  It stores no
// metric values of its own: every number it exports is read, at snapshot or
// sample time, from the component that owns it, so there is one source of
// truth per fact and the registry never schedules anything.  Two probe
// kinds, which differ only in how exporters print them:
//
//   probe_counter   uint64 (events, bytes, drops)
//   probe_gauge     double (utilization, cwnd, queue depth)
//
// Determinism contract: the registry never touches the scheduler, never
// reads wall-clock time, and iterates probes in lexicographic name order
// (std::map), so a snapshot of the same simulation is byte-identical run to
// run and instrumentation cannot perturb the DES schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "des/time.hpp"

namespace gtw::obs {

// A begin/end event marker on the DES clock (fault begin/end, phase
// boundaries); exported as instant events in the Chrome trace.
struct Mark {
  des::SimTime t;
  std::string name;
  bool begin = true;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Read-only probes: evaluated on every snapshot()/read(); must only read
  // simulation state (they run inside const snapshots and must not
  // schedule, mutate, or allocate observable state).  Registering a name
  // twice throws std::logic_error — a name collision is a wiring bug, not
  // something to paper over.
  void probe_counter(const std::string& name, std::function<std::uint64_t()> fn);
  void probe_gauge(const std::string& name, std::function<double()> fn);

  void mark(const std::string& name, des::SimTime t, bool begin);
  const std::vector<Mark>& marks() const { return marks_; }

  bool contains(const std::string& name) const;
  std::size_t size() const { return instruments_.size(); }

  // Scalar read of one probe (counters widen to double).  Throws
  // std::out_of_range on unknown names.
  double read(const std::string& name) const;

  enum class Kind { kCounter, kGauge };

  struct Sample {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t u = 0;  // counters
    double d = 0.0;       // gauges
  };

  // Stable-ordered (lexicographic by name) flattened view; probes are
  // evaluated in place.
  std::vector<Sample> snapshot() const;

 private:
  // Exactly one of the functions is set, matching `kind`.
  struct Instrument {
    Kind kind = Kind::kCounter;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
  };

  Instrument& define(const std::string& name, Kind kind);

  std::map<std::string, Instrument> instruments_;
  std::vector<Mark> marks_;
};

}  // namespace gtw::obs
