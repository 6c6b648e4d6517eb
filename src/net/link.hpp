// Unidirectional serializing link: the building block for ATM fibres, HiPPI
// channels and switch output ports.  A link owns a FIFO of frames, transmits
// them back-to-back at its configured rate, and delivers each frame to its
// sink after the propagation delay.  Frames that would overflow the queue
// limit are dropped whole (early packet discard, as ATM switches of the era
// did for AAL5 traffic).  The frame being clocked out and the frames in
// propagation wait in link-owned slots, so the link's events capture only
// `this` (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "des/pool.hpp"
#include "des/random.hpp"
#include "des/ring.hpp"
#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "net/packet.hpp"
#include "units/units.hpp"

namespace gtw::net {

// One L2 frame.  At 128 bytes it is far larger than a scheduler event's
// inline capture (des::Action), so frames never ride inside events: they
// wait in the FIFOs of the link, switch or NIC that holds them.
struct Frame {
  IpPacket pkt;
  std::uint32_t wire_bytes = 0;  // bytes on the wire including L2 overhead
  std::uint32_t vc = 0;          // ATM virtual circuit id (0 = not ATM)
  HostId l2_dst = kNoHost;       // L2 next stop (HiPPI station addressing)
  // Open link-layer span riding the frame between its queue/transmit
  // events (obs::SpanTracer, DESIGN.md §13); 0 when untraced.
  std::uint64_t span = 0;
};

using FrameSink = std::function<void(Frame)>;

// Fidelity of the serialization model (DESIGN.md §10).
//  kExact — one transmit-complete and one propagation event per frame;
//    per-frame delivery timestamps are exact.  The default, and the mode all
//    paper-figure benches run in.
//  kFluid — frames are clocked out in bursts: one transmit event covers up
//    to burst_frames frames (bounded by burst_window of wire time), and the
//    survivors share one propagation event, arriving together at the burst's
//    end.  Admission, queue limits, per-frame BER draws (same order as
//    exact), outage and drop accounting are unchanged — only intra-burst
//    timestamp spread is approximated, bounded by burst_window.
enum class LinkFidelity : std::uint8_t { kExact, kFluid };

class Link {
 public:
  struct Config {
    units::BitRate rate;                       // usable L2 line rate
    des::SimTime propagation = des::SimTime::zero();
    units::Bytes queue_limit{1 << 20};         // wire bytes admitted to queue
    des::SimTime per_frame_overhead = des::SimTime::zero();  // e.g. HiPPI connect
    // Residual bit error rate.  The testbed's OC-48 line initially showed
    // "stability problems ... related to signal attenuation and timing"
    // (paper section 2); a frame is lost with probability
    // 1-(1-BER)^bits.  0 disables corruption.
    double bit_error_rate = 0.0;
    // Serialization fidelity (see LinkFidelity).  Burst caps only apply in
    // kFluid mode; the delivery-timestamp error is bounded by burst_window.
    LinkFidelity fidelity = LinkFidelity::kExact;
    std::uint32_t burst_frames = 64;
    des::SimTime burst_window = des::SimTime::microseconds(50);
  };

  Link(des::Scheduler& sched, std::string name, Config cfg);

  void set_sink(FrameSink sink) { sink_ = std::move(sink); }

  // Degrade (or repair) the line at runtime — models the testbed's early
  // attenuation/timing problems and their later fix.
  void set_bit_error_rate(double ber) { cfg_.bit_error_rate = ber; }

  // Switch the serialization model at runtime; takes effect at the next
  // transmission start (an in-flight frame or burst finishes under the mode
  // it began with).
  void set_fidelity(LinkFidelity f) { cfg_.fidelity = f; }
  LinkFidelity fidelity() const { return cfg_.fidelity; }
  void set_burst_limits(std::uint32_t frames, des::SimTime window) {
    cfg_.burst_frames = frames;
    cfg_.burst_window = window;
  }

  // Cut (or restore) the line.  While down, new submissions are refused,
  // the queue is flushed and anything mid-transmission is lost — a fibre
  // cut takes the photons with it.  Frames already past the link (in the
  // propagation stage) still arrive.
  void set_up(bool up);
  bool up() const { return up_; }

  // Shrink (or restore) the queue at runtime — a switch-buffer squeeze.
  // Already-queued frames are kept even if they exceed the new limit; the
  // limit gates admissions only.
  void set_queue_limit(units::Bytes limit) { cfg_.queue_limit = limit; }

  // Enqueue a frame; returns false (and counts a drop) on overflow.
  bool submit(Frame f);

  const std::string& name() const { return name_; }
  const Config& config() const { return cfg_; }

  std::uint64_t queue_bytes() const { return queued_bytes_; }
  std::size_t queue_frames() const { return queue_.size(); }
  // Every submit() attempt, accepted or refused.  Together with the
  // outcome counters below these close the link's conservation law
  // (check::attach_link): submitted == sent + dropped + outage-dropped +
  // still-queued, in bytes at any instant and in frames once drained.
  std::uint64_t submitted_frames() const { return submitted_frames_; }
  std::uint64_t submitted_bytes() const { return submitted_bytes_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  std::uint64_t corrupted_frames() const { return corrupted_; }
  std::uint64_t outage_drops() const { return outage_drops_; }
  std::uint64_t outage_dropped_bytes() const { return outage_dropped_bytes_; }
  double utilization() const;   // busy fraction since construction
  double mean_queue_bytes() const;

  // Fluid-mode accounting (0 in exact mode).
  std::uint64_t bursts_completed() const { return bursts_completed_; }
  std::size_t burst_pool_slots() const { return burst_pool_.slots(); }
  std::size_t burst_pool_in_use() const { return burst_pool_.in_use(); }
  std::size_t burst_pool_high_water() const { return burst_pool_.high_water(); }

 private:
  using BurstId = des::SlabPool<std::vector<Frame>, 16>::Index;

  void maybe_start();
  void finish_transmit();
  void finish_propagation();
  void finish_burst(BurstId idx);

  des::Scheduler& sched_;
  std::string name_;
  Config cfg_;
  FrameSink sink_;

  des::Ring<Frame> queue_;
  // Exact mode: the frame on the transmitter (one at a time), and the
  // frames past it in propagation.  Propagation is a constant delay, so the
  // k-th propagation event to fire delivers the k-th frame pushed.
  Frame tx_frame_;
  des::Ring<Frame> in_flight_;
  std::uint64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool up_ = true;

  std::uint64_t submitted_frames_ = 0;
  std::uint64_t submitted_bytes_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t outage_drops_ = 0;
  std::uint64_t outage_dropped_bytes_ = 0;
  des::Rng rng_{0x6c696e6bULL};  // per-link error stream
  des::SimTime busy_accum_ = des::SimTime::zero();
  des::SimTime created_at_ = des::SimTime::zero();
  mutable des::TimeWeighted queue_depth_;

  // Fluid mode: in-flight bursts live in pooled frame vectors (capacity is
  // retained across reuse), so batching adds no per-burst allocation either.
  des::SlabPool<std::vector<Frame>, 16> burst_pool_;
  std::uint64_t bursts_completed_ = 0;
};

}  // namespace gtw::net
