// Deterministic fault injection scripted against the DES clock.
//
// The testbed was not a clean machine room: the OC-48 line "showed
// stability problems ... related to signal attenuation and timing" (paper
// section 2), gateway workstations rebooted, and switch buffers were a
// shared, contended resource.  A FaultPlan scripts such incidents as timed
// events — link flaps, BER bursts, gateway (HiPPI<->ATM) host outages and
// switch-buffer squeezes — so every recovery experiment replays
// bit-identically.  Observers are notified at each fault's begin and end,
// which is how higher layers (flow::StageGraph degradation, benchmarks)
// wire themselves to the script without net depending on them.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "units/units.hpp"

namespace gtw::net {

struct FaultEvent {
  enum class Kind { kLinkDown, kBerBurst, kHostOutage, kBufferSqueeze };
  static constexpr std::size_t kKinds = 4;
  Kind kind = Kind::kLinkDown;
  std::string target;   // link or host name, for logs and bench output
  des::SimTime at;
  des::SimTime duration;
  double ber = 0.0;                // kBerBurst
  units::Bytes queue_limit{};      // kBufferSqueeze
};

const char* to_string(FaultEvent::Kind kind);

class FaultPlan {
 public:
  explicit FaultPlan(des::Scheduler& sched) : sched_(&sched) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // `active` is true when the fault has just been applied, false when it
  // has just been reverted.  Observers run after the state change and the
  // transition counts below, in registration order.
  using Observer = std::function<void(const FaultEvent&, bool active)>;
  void add_observer(Observer obs) { observers_.push_back(std::move(obs)); }

  // Cut `link` at `at` for `duration`, then restore it.
  void link_down(Link& link, des::SimTime at, des::SimTime duration);
  // Raise `link`'s residual bit error rate to `ber` for `duration`; the
  // rate in effect when the burst starts is restored afterwards.
  void ber_burst(Link& link, des::SimTime at, des::SimTime duration,
                 double ber);
  // Take `host` down (gateway crash) for `duration`.
  void host_outage(Host& host, des::SimTime at, des::SimTime duration);
  // Shrink `link`'s queue to `queue_limit` for `duration`; the limit in
  // effect when the squeeze starts is restored afterwards.
  void buffer_squeeze(Link& link, des::SimTime at, des::SimTime duration,
                      units::Bytes queue_limit);

  std::size_t scheduled() const { return events_.size(); }
  int active_faults() const { return active_; }
  // True while any scripted fault is in effect — the usual signal a caller
  // forwards into flow::StageGraph::set_degraded.
  bool any_active() const { return active_ > 0; }
  // Begin/end transitions so far, per kind and in total.  The plan owns
  // these counts; obs probes and GTW-San's bracket check both read them.
  std::uint64_t begins(FaultEvent::Kind kind) const {
    return begins_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t ends(FaultEvent::Kind kind) const {
    return ends_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t begins() const;
  std::uint64_t ends() const;
  // End of the last scripted fault (zero when nothing is scheduled).
  des::SimTime horizon() const;

 private:
  struct Scripted {
    FaultEvent ev;
    std::function<void()> apply;   // may capture restore state on the fly
    std::function<void()> revert;
  };

  void arm(std::shared_ptr<Scripted> s);
  void notify(const FaultEvent& ev, bool active);

  des::Scheduler* sched_;
  std::vector<std::shared_ptr<Scripted>> events_;
  std::vector<Observer> observers_;
  int active_ = 0;
  std::array<std::uint64_t, FaultEvent::kKinds> begins_{};
  std::array<std::uint64_t, FaultEvent::kKinds> ends_{};
};

}  // namespace gtw::net
