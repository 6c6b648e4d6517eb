// MPI-flavoured communicator over the metacomputer, written in
// continuation-passing style (a discrete-event simulation cannot block).
//
// Supported subset, mirroring what the paper says MetaMPI provided:
//   - point-to-point send/recv with tag and source matching (wildcards),
//     routed intra-machine (interconnect model) or inter-machine (real
//     simulated TCP over the testbed);
//   - collectives: barrier, broadcast, reduce/allreduce, gather -- staged
//     as intra-machine tree + WAN exchange between machine leaders, which
//     is exactly the hierarchical scheme a metacomputing-aware MPI uses;
//   - MPI-2 features called out in the paper: dynamic process creation
//     (spawn), and name-based connect/accept yielding intercommunicators
//     (used by FIRE for realtime visualization attachment), plus typed
//     datatypes for language interoperability.
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "meta/metacomputer.hpp"

namespace gtw::meta {

// Process location: which machine, which processing element on it.
struct ProcLoc {
  int machine = 0;
  int pe = 0;
};

// Language-interoperability datatypes (MPI-2 brings bindings whose element
// sizes must agree across languages; we carry them so message sizes are
// computed identically on both sides).
enum class Datatype : std::uint8_t {
  kByte,
  kInt32,
  kInt64,
  kFloat32,
  kFloat64,
};
std::uint32_t datatype_size(Datatype t);

struct Message {
  int source = -1;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::any data;
};

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

enum class ReduceOp { kSum, kMax, kMin };

// Failure handling for WAN point-to-point traffic (MPWide-style: WAN
// messaging libraries treat path degradation and reconnection as their
// problem, not the application's).  A watchdog per WAN send retransmits
// with exponential backoff; a delivery seen after a retransmission was
// issued is suppressed as a duplicate, and a message whose retries are
// exhausted is reported through the unreachable callback instead of
// hanging the application forever.
struct RetryPolicy {
  des::SimTime timeout = des::SimTime::seconds(2);  // first-attempt watchdog
  int max_retries = 3;                              // beyond the first send
  double backoff = 2.0;                             // timeout multiplier
  // Ceiling on the backed-off watchdog timeout.  Without it the doubling
  // grows without bound and a high-retry policy ends up waiting simulated
  // hours between attempts long after the path has recovered.
  des::SimTime max_timeout = des::SimTime::seconds(30);
};

class Communicator {
 public:
  using RecvCallback = std::function<void(const Message&)>;
  using Callback = std::function<void()>;

  // A communicator over explicit process locations.
  Communicator(Metacomputer& mc, std::vector<ProcLoc> ranks);

  int size() const { return static_cast<int>(ranks_.size()); }
  const ProcLoc& location(int rank) const {
    return ranks_.at(static_cast<std::size_t>(rank));
  }

  // --- point to point -----------------------------------------------------
  // `on_sent` fires at local completion (buffer reusable).  For sends not
  // guarded by a retry watchdog that is immediate — the transport owns the
  // bytes from here on.  Under a retry policy the library may retransmit, so
  // the buffer stays pinned: `on_sent` is deferred to the first successful
  // delivery and never fires for a message reported unreachable.  Delivery
  // drives the matching recv's callback at the receiver's simulated time.
  void send(int src_rank, int dst_rank, int tag, std::uint64_t bytes,
            std::any data = {}, Callback on_sent = nullptr);
  void send_typed(int src_rank, int dst_rank, int tag, std::uint64_t count,
                  Datatype type, std::any data = {}, Callback on_sent = nullptr);
  void recv(int rank, int source, int tag, RecvCallback cb);

  // --- collectives ----------------------------------------------------------
  // Every rank must call; callbacks fire once all ranks have entered and the
  // staged (intra tree + WAN leader exchange) communication completes.
  void barrier(int rank, Callback cb);
  void broadcast(int rank, int root, std::uint64_t bytes,
                 std::function<void(const std::any&)> cb,
                 std::any root_data = {});
  void allreduce(int rank, const std::vector<double>& contribution,
                 ReduceOp op, std::function<void(std::vector<double>)> cb);
  void gather(int rank, std::uint64_t bytes, std::any data, int root,
              std::function<void(std::vector<std::any>)> root_cb);
  // Root distributes one payload per rank; every rank's callback receives
  // its slice.
  void scatter(int rank, int root, std::uint64_t bytes_per_rank,
               std::function<void(const std::any&)> cb,
               std::vector<std::any> root_data = {});
  // Every rank contributes one payload per destination; every rank's
  // callback receives the column addressed to it.
  void alltoall(int rank, std::uint64_t bytes_per_pair,
                std::vector<std::any> contributions,
                std::function<void(std::vector<std::any>)> cb);
  // Combined send+recv, the classic halo-exchange primitive.
  void sendrecv(int rank, int dst, int send_tag, std::uint64_t send_bytes,
                std::any send_data, int src, int recv_tag, RecvCallback cb);

  // --- MPI-2 dynamic processes ---------------------------------------------
  // Spawn `n` new processes on `machine`; yields an intercommunicator whose
  // local group is this communicator's ranks and whose remote group is the
  // spawned processes (appended after the local group).
  void spawn(int machine, int n,
             std::function<void(std::shared_ptr<Communicator> intercomm)> cb);

  Metacomputer& metacomputer() { return *mc_; }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // --- failure handling ------------------------------------------------------
  // Enable watchdog/retry on WAN point-to-point sends.  Off by default:
  // the simulated TCP transport is reliable, so retries only matter when a
  // FaultPlan (or manual Link::set_up) breaks the path mid-run.
  void set_retry_policy(RetryPolicy policy) {
    retry_ = policy;
    retry_enabled_ = true;
  }
  // `attempts` counts every transmission of the abandoned message.
  using UnreachableCallback =
      std::function<void(int src_rank, int dst_rank, int attempts)>;
  void on_unreachable(UnreachableCallback cb) { unreachable_ = std::move(cb); }

  // The ledger of watchdog-guarded WAN messages (check::attach_communicator
  // holds it to its laws in every build).  Every arriving copy is exactly
  // one of delivered, suppressed or dropped; every guarded message ends
  // delivered or reported unreachable, never both.
  struct ReliabilityStats {
    std::uint64_t wan_guarded = 0;           // messages sent under the policy
    std::uint64_t wan_copies = 0;            // copies that arrived
    std::uint64_t wan_delivered = 0;         // copies handed to the application
    std::uint64_t wan_retries = 0;           // watchdog-triggered resends
    std::uint64_t duplicates_suppressed = 0; // late originals after a retry
    std::uint64_t unreachable_reports = 0;   // messages given up on
    // Late deliveries of a message already reported unreachable: dropped, so
    // the application never sees a recv for a message it was told failed.
    std::uint64_t dropped_after_unreachable = 0;
  };
  const ReliabilityStats& reliability() const { return reliability_; }

 private:
  struct PostedRecv {
    int source;
    int tag;
    RecvCallback cb;
  };
  struct RankState {
    std::deque<PostedRecv> recvs;
    std::deque<Message> unexpected;
  };
  // One round of a collective: every rank's completion plus the payload
  // slots its kind fills.  Rounds of one kind are numbered in entry order.
  enum CollKind : std::uint8_t {
    kBarrier, kBroadcast, kAllreduce, kGather, kScatter, kAlltoall, kCollKinds
  };
  struct Collective;
  using Completion = std::function<void(const Collective&)>;
  struct Collective {
    int arrived = 0;
    int root = 0;
    ReduceOp op = ReduceOp::kSum;
    std::vector<Completion> continuations;     // per rank
    std::vector<std::vector<double>> contribs; // allreduce
    std::vector<std::any> slots;               // gather / scatter
    std::vector<std::vector<std::any>> matrix; // alltoall
    std::any bcast_data;
  };
  using CollKey = std::pair<CollKind, std::uint64_t>;

  // In-flight state of one watchdog-guarded WAN message.
  struct WanSendState {
    int src_rank = 0, dst_rank = 0;
    int src_machine = 0, dst_machine = 0;
    std::uint64_t bytes = 0;
    Message msg;
    int attempts = 0;
    bool delivered = false;
    bool abandoned = false;  // unreachable reported; late copies are dropped
    des::SimTime next_timeout;
    des::EventHandle watchdog;
    Callback on_sent;  // deferred until the first successful delivery
    // Causal trace of the guarded message (obs): minted here when the send
    // is a workload origin; every attempt's transport spans nest under it.
    des::TraceContext ctx;
    bool owns_trace = false;
    // Open retry-backoff span: begun when the first watchdog-triggered
    // resend is issued, ended at delivery, aborted on unreachable.
    std::uint64_t retry_span = 0;
  };

  void deliver(int dst_rank, Message msg);
  void wan_attempt(std::shared_ptr<WanSendState> st);
  bool matches(const PostedRecv& r, const Message& m) const;
  // The open round of `kind`.
  Collective& open_round(CollKind kind);
  // `rank` enters the open round of `kind`; the last rank to enter closes it
  // and stages an exchange that moves `wan_bytes` per WAN hop.
  void arrive(CollKind kind, int rank, std::uint64_t wan_bytes,
              Completion done);
  // Staged completion: intra tree, WAN leader exchange, intra tree, then
  // every rank's completion in rank order.
  void finish_collective(CollKey key, std::uint64_t wan_bytes);
  des::SimTime intra_tree_cost(std::uint64_t bytes) const;
  // Machines participating, and the designated leader rank per machine.
  std::vector<int> machines_involved() const;

  Metacomputer* mc_;
  std::vector<ProcLoc> ranks_;
  std::vector<RankState> states_;
  std::map<CollKey, Collective> collectives_;
  std::array<std::uint64_t, kCollKinds> round_seq_{};
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  RetryPolicy retry_;
  bool retry_enabled_ = false;
  UnreachableCallback unreachable_;
  ReliabilityStats reliability_;
};

}  // namespace gtw::meta
