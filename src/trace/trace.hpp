// VAMPIR-style performance tracing (the testbed's "tool for performance
// evaluation and tuning of metacomputing applications", extended by Pallas
// for MetaMPI — paper section 3).
//
// A TraceRecorder collects enter/leave/send/recv events per rank; the log
// can be written to and read from a compact binary format, and TraceStats
// derives the views VAMPIR shows: per-state time profiles, message
// statistics matrices, and a text timeline (Gantt) rendering.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "des/time.hpp"
#include "units/units.hpp"

namespace gtw::trace {

enum class EventKind : std::uint8_t {
  kEnter = 0,
  kLeave = 1,
  kSend = 2,
  kRecv = 3,
};

struct TraceEvent {
  std::int64_t time_ps = 0;
  std::uint32_t rank = 0;
  EventKind kind = EventKind::kEnter;
  std::uint32_t id = 0;      // state id (enter/leave) or peer rank (send/recv)
  std::uint32_t tag = 0;     // message tag
  std::uint64_t bytes = 0;   // message size
};

class TraceRecorder {
 public:
  explicit TraceRecorder(int ranks) : ranks_(ranks) {}

  // Id of the state called `name`, defined on first use; id 0 is the
  // reserved "idle" state.  Every component recording into this trace
  // shares one id per name.
  std::uint32_t define_state(const std::string& name);
  const std::string& state_name(std::uint32_t id) const;
  std::uint32_t state_count() const {
    return static_cast<std::uint32_t>(states_.size());
  }
  int ranks() const { return ranks_; }

  void enter(std::uint32_t rank, std::uint32_t state, des::SimTime t);
  void leave(std::uint32_t rank, std::uint32_t state, des::SimTime t);
  void send(std::uint32_t rank, std::uint32_t peer, std::uint32_t tag,
            units::Bytes bytes, des::SimTime t);
  void recv(std::uint32_t rank, std::uint32_t peer, std::uint32_t tag,
            units::Bytes bytes, des::SimTime t);

  const std::vector<TraceEvent>& events() const { return events_; }

  // Binary round trip ("GTWT" format, version 1).
  void write(std::ostream& os) const;
  static TraceRecorder read(std::istream& is);

 private:
  int ranks_;
  std::vector<std::string> states_{"idle"};
  std::vector<TraceEvent> events_;
};

// Aggregations over a finished trace.
class TraceStats {
 public:
  explicit TraceStats(const TraceRecorder& rec);

  // Total time rank spent inside state (nested enters attribute to the
  // innermost state).
  des::SimTime state_time(std::uint32_t rank, std::uint32_t state) const;
  // Message statistics between rank pairs.
  std::uint64_t messages(std::uint32_t from, std::uint32_t to) const;
  std::uint64_t bytes(std::uint32_t from, std::uint32_t to) const;
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  // Text timeline: one row per rank, `columns` characters covering the full
  // trace span, each cell showing the first letter of the dominant state.
  std::string gantt(int columns = 72) const;

  // Per-rank/state profile as a printable table.
  std::string profile() const;

 private:
  const TraceRecorder& rec_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, des::SimTime> state_time_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> msg_count_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> msg_bytes_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::int64_t span_begin_ps_ = 0, span_end_ps_ = 0;
};

}  // namespace gtw::trace
