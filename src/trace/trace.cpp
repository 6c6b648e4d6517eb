#include "trace/trace.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace gtw::trace {

namespace {
constexpr char kMagic[4] = {'G', 'T', 'W', 'T'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("trace: truncated stream");
  return v;
}
}  // namespace

std::uint32_t TraceRecorder::define_state(const std::string& name) {
  const auto it = std::find(states_.begin(), states_.end(), name);
  if (it == states_.end()) {
    states_.push_back(name);
    return static_cast<std::uint32_t>(states_.size()) - 1;
  }
  return static_cast<std::uint32_t>(it - states_.begin());
}

const std::string& TraceRecorder::state_name(std::uint32_t id) const {
  return states_.at(id);
}

void TraceRecorder::enter(std::uint32_t rank, std::uint32_t state,
                          des::SimTime t) {
  events_.push_back({t.ps(), rank, EventKind::kEnter, state, 0, 0});
}

void TraceRecorder::leave(std::uint32_t rank, std::uint32_t state,
                          des::SimTime t) {
  events_.push_back({t.ps(), rank, EventKind::kLeave, state, 0, 0});
}

void TraceRecorder::send(std::uint32_t rank, std::uint32_t peer,
                         std::uint32_t tag, units::Bytes bytes,
                         des::SimTime t) {
  events_.push_back({t.ps(), rank, EventKind::kSend, peer, tag, bytes.count()});
}

void TraceRecorder::recv(std::uint32_t rank, std::uint32_t peer,
                         std::uint32_t tag, units::Bytes bytes,
                         des::SimTime t) {
  events_.push_back({t.ps(), rank, EventKind::kRecv, peer, tag, bytes.count()});
}

void TraceRecorder::write(std::ostream& os) const {
  os.write(kMagic, 4);
  put(os, kVersion);
  put(os, static_cast<std::uint32_t>(ranks_));
  put(os, static_cast<std::uint32_t>(states_.size()));
  for (const std::string& s : states_) {
    put(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  put(os, static_cast<std::uint64_t>(events_.size()));
  for (const TraceEvent& e : events_) {
    put(os, e.time_ps);
    put(os, e.rank);
    put(os, static_cast<std::uint8_t>(e.kind));
    put(os, e.id);
    put(os, e.tag);
    put(os, e.bytes);
  }
}

namespace {
// Sanity ceilings for reader validation: far above anything the simulator
// produces, low enough that a corrupt count cannot drive allocation.
constexpr std::uint32_t kMaxRanks = 1u << 20;
constexpr std::uint32_t kMaxStates = 1u << 20;
constexpr std::uint32_t kMaxStateNameLen = 1u << 16;
constexpr std::uint64_t kReserveCap = 1u << 20;
}  // namespace

TraceRecorder TraceRecorder::read(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("trace: bad magic (not a GTWT stream)");
  const auto version = get<std::uint32_t>(is);
  if (version != kVersion)
    throw std::runtime_error("trace: unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kVersion) + ")");
  const auto ranks = get<std::uint32_t>(is);
  if (ranks == 0 || ranks > kMaxRanks)
    throw std::runtime_error("trace: implausible rank count " +
                             std::to_string(ranks));
  TraceRecorder rec(static_cast<int>(ranks));
  const auto n_states = get<std::uint32_t>(is);
  if (n_states == 0 || n_states > kMaxStates)
    throw std::runtime_error("trace: implausible state count " +
                             std::to_string(n_states));
  rec.states_.clear();
  for (std::uint32_t i = 0; i < n_states; ++i) {
    const auto len = get<std::uint32_t>(is);
    if (len > kMaxStateNameLen)
      throw std::runtime_error("trace: implausible state-name length " +
                               std::to_string(len));
    std::string s(len, '\0');
    is.read(s.data(), static_cast<std::streamsize>(len));
    if (!is) throw std::runtime_error("trace: truncated state name");
    rec.states_.push_back(std::move(s));
  }
  const auto n_events = get<std::uint64_t>(is);
  // A lying header must not drive allocation: reserve a bounded amount and
  // let the per-event reads hit "truncated stream" if the count was fake.
  rec.events_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n_events, kReserveCap)));
  for (std::uint64_t i = 0; i < n_events; ++i) {
    TraceEvent e;
    e.time_ps = get<std::int64_t>(is);
    e.rank = get<std::uint32_t>(is);
    if (e.rank >= ranks)
      throw std::runtime_error("trace: event rank " + std::to_string(e.rank) +
                               " out of range (ranks=" +
                               std::to_string(ranks) + ")");
    const auto kind = get<std::uint8_t>(is);
    if (kind > static_cast<std::uint8_t>(EventKind::kRecv))
      throw std::runtime_error("trace: unknown event kind " +
                               std::to_string(kind));
    e.kind = static_cast<EventKind>(kind);
    e.id = get<std::uint32_t>(is);
    if ((e.kind == EventKind::kEnter || e.kind == EventKind::kLeave) &&
        e.id >= n_states)
      throw std::runtime_error("trace: state id " + std::to_string(e.id) +
                               " out of range (states=" +
                               std::to_string(n_states) + ")");
    e.tag = get<std::uint32_t>(is);
    e.bytes = get<std::uint64_t>(is);
    rec.events_.push_back(e);
  }
  return rec;
}

TraceStats::TraceStats(const TraceRecorder& rec) : rec_(rec) {
  // Per-rank state stack for inclusive/innermost attribution.
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, std::int64_t>>>
      stacks;
  bool first = true;
  for (const TraceEvent& e : rec.events()) {
    if (first) {
      span_begin_ps_ = e.time_ps;
      first = false;
    }
    span_end_ps_ = std::max(span_end_ps_, e.time_ps);
    switch (e.kind) {
      case EventKind::kEnter: {
        auto& st = stacks[e.rank];
        // Close the outer state's segment.
        if (!st.empty()) {
          state_time_[{e.rank, st.back().first}] +=
              des::SimTime::picoseconds(e.time_ps - st.back().second);
        }
        st.push_back({e.id, e.time_ps});
        break;
      }
      case EventKind::kLeave: {
        auto& st = stacks[e.rank];
        if (!st.empty()) {
          state_time_[{e.rank, st.back().first}] +=
              des::SimTime::picoseconds(e.time_ps - st.back().second);
          st.pop_back();
          if (!st.empty()) st.back().second = e.time_ps;  // resume outer
        }
        break;
      }
      case EventKind::kSend:
        ++msg_count_[{e.rank, e.id}];
        msg_bytes_[{e.rank, e.id}] += e.bytes;
        ++total_messages_;
        total_bytes_ += e.bytes;
        break;
      case EventKind::kRecv:
        break;  // counted on the send side
    }
  }
}

des::SimTime TraceStats::state_time(std::uint32_t rank,
                                    std::uint32_t state) const {
  auto it = state_time_.find({rank, state});
  return it != state_time_.end() ? it->second : des::SimTime::zero();
}

std::uint64_t TraceStats::messages(std::uint32_t from, std::uint32_t to) const {
  auto it = msg_count_.find({from, to});
  return it != msg_count_.end() ? it->second : 0;
}

std::uint64_t TraceStats::bytes(std::uint32_t from, std::uint32_t to) const {
  auto it = msg_bytes_.find({from, to});
  return it != msg_bytes_.end() ? it->second : 0;
}

std::string TraceStats::gantt(int columns) const {
  if (rec_.events().empty() || span_end_ps_ <= span_begin_ps_)
    return "(empty trace)\n";
  const double span = static_cast<double>(span_end_ps_ - span_begin_ps_);
  std::string out;
  for (int rank = 0; rank < rec_.ranks(); ++rank) {
    std::string row(static_cast<std::size_t>(columns), '.');
    // Replay this rank's stack to paint cells.
    std::vector<std::pair<std::uint32_t, std::int64_t>> stack;
    auto paint = [&](std::int64_t from, std::int64_t to, std::uint32_t state) {
      if (state == 0) return;
      int a = static_cast<int>(
          static_cast<double>(from - span_begin_ps_) / span * columns);
      int b = static_cast<int>(
          static_cast<double>(to - span_begin_ps_) / span * columns);
      a = std::clamp(a, 0, columns - 1);
      b = std::clamp(b, a, columns - 1);
      const char c = rec_.state_name(state).empty()
                         ? '?'
                         : rec_.state_name(state)[0];
      for (int i = a; i <= b; ++i) row[static_cast<std::size_t>(i)] = c;
    };
    for (const TraceEvent& e : rec_.events()) {
      if (e.rank != static_cast<std::uint32_t>(rank)) continue;
      if (e.kind == EventKind::kEnter) {
        stack.push_back({e.id, e.time_ps});
      } else if (e.kind == EventKind::kLeave && !stack.empty()) {
        paint(stack.back().second, e.time_ps, stack.back().first);
        stack.pop_back();
      }
    }
    char label[32];
    std::snprintf(label, sizeof label, "rank %2d |", rank);
    out += label + row + "|\n";
  }
  return out;
}

std::string TraceStats::profile() const {
  std::ostringstream os;
  os << "state time profile (seconds):\n";
  for (int rank = 0; rank < rec_.ranks(); ++rank) {
    os << "  rank " << rank << ":";
    for (std::uint32_t s = 1; s < rec_.state_count(); ++s) {
      const des::SimTime t = state_time(static_cast<std::uint32_t>(rank), s);
      if (t > des::SimTime::zero())
        os << "  " << rec_.state_name(s) << "=" << t.sec();
    }
    os << "\n";
  }
  os << "messages: " << total_messages_ << ", bytes: " << total_bytes_ << "\n";
  return os.str();
}

}  // namespace gtw::trace
