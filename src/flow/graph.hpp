// Staged-dataflow engine over des::Scheduler.
//
// A StageGraph is a linear pipeline of Stage nodes.  Each stage has a body
// (continuation-passing: it receives the item and a Done callback, since the
// DES cannot block), a concurrency limit, and an input queue with a
// pluggable discipline:
//
//   kFifo       unbounded in-order queue;
//   kDropStale  when a slot frees, run only the newest waiting item and
//               discard the older ones (FIRE's "display the current brain
//               state" semantics);
//   kDropNewest bounded queue that discards arrivals while full;
//   kBlock      bounded queue with backpressure — a finished upstream item
//               keeps its upstream slot until there is room downstream.
//
// Graph admission generalizes fire::PipelineMode: max_in_flight == 1 with a
// kDropStale admission queue is the paper's sequential request/reply loop,
// max_in_flight == 0 is the fully pipelined mode where only per-stage
// concurrency limits throttle the flow.
//
// Every stage feeds a MetricsRegistry and, when a trace::TraceRecorder is
// attached, emits VAMPIR-style enter/leave events with the stage index as
// the trace rank; transfer stages add send/recv edges via StageContext.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "flow/metrics.hpp"
#include "trace/trace.hpp"

namespace gtw::flow {

class StageGraph;

// One unit of work travelling through the pipeline.  The reference handed
// to a stage body stays valid until the body calls Done.
struct Item {
  std::uint64_t id = 0;  // graph-assigned, increases in push order
  int index = 0;         // caller-assigned (scan number, frame number, ...)
  std::any payload;
};

using Done = std::function<void()>;

// Handle a stage body uses to reach the scheduler and the trace stream.
struct StageContext {
  StageGraph* graph = nullptr;
  int stage = 0;

  des::Scheduler& scheduler() const;
  des::SimTime now() const;
  // Record a message from this stage to `to_stage` (kSend at this rank) or
  // its receipt at `at_stage` coming from this rank (kRecv).  No-ops while
  // no recorder is attached.
  void trace_send(int to_stage, std::uint32_t tag, units::Bytes bytes) const;
  void trace_recv(int at_stage, std::uint32_t tag, units::Bytes bytes) const;
};

using StageFn = std::function<void(StageContext, Item&, Done)>;

enum class QueuePolicy { kFifo, kDropStale, kDropNewest, kBlock };

struct StageConfig {
  std::string name;
  int concurrency = 1;   // simultaneous bodies; 0 = unlimited
  QueuePolicy policy = QueuePolicy::kFifo;
  std::size_t capacity = 0;  // queue bound for kDropNewest/kBlock; 0 = none
  StageFn body;
};

struct GraphConfig {
  int max_in_flight = 0;  // 0 = unlimited (pipelined); 1 = request/reply
  QueuePolicy admission = QueuePolicy::kFifo;  // kFifo or kDropStale
};

class StageGraph {
 public:
  explicit StageGraph(des::Scheduler& sched, GraphConfig cfg = {});
  // Items still in the graph at teardown retire their spans as aborted so
  // the tracer's leak census stays clean (obs, DESIGN.md section 13).
  ~StageGraph();

  // Append a stage; returns its index (== its trace rank).
  int add_stage(StageConfig cfg);

  // Attach/detach the trace stream.  Stage indices are the trace ranks, so
  // the recorder should be built with ranks >= stage_count().
  void attach_trace(trace::TraceRecorder* rec) { trace_ = rec; }

  // Called when an item leaves the last stage.
  void on_complete(std::function<void(const Item&)> cb) {
    complete_ = std::move(cb);
  }
  // Called when an item is discarded; stage == -1 means it was superseded
  // while still awaiting admission.
  void on_drop(std::function<void(const Item&, int stage)> cb) {
    drop_ = std::move(cb);
  }

  // Offer an item to the graph.  Admission control may queue or (under
  // kDropStale) later supersede it.
  void push(int index, std::any payload = {});

  // Graceful degradation for outages (wired to a net::FaultPlan observer):
  // while degraded, admission behaves as kDropStale regardless of the
  // configured policy — work piling up behind a dead network is superseded
  // by fresher items instead of queueing, the paper's "display the current
  // brain state" semantics under failure.  Clearing it starts the
  // recovery-time clock, stopped by the next completion.
  void set_degraded(bool on);
  bool degraded() const { return degraded_; }

  des::Scheduler& scheduler() { return sched_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  int stage_count() const { return static_cast<int>(stages_.size()); }
  const std::string& stage_name(int s) const;
  int in_flight() const { return in_flight_; }
  std::size_t waiting_admission() const { return admission_.size(); }

 private:
  friend struct StageContext;

  struct ItemState {
    Item item;
    int stage = -1;        // current stage once started
    bool in_body = false;  // body running, Done not yet called
    des::SimTime started;
    // Causal trace of this item (obs): minted at push() when the graph is
    // the workload origin, closed (or aborted, for drops) when the item
    // leaves.  Exactly one of wait_span/body_span is open at any moment
    // the item is inside the graph.
    des::TraceContext ctx;
    bool owns_trace = false;
    std::uint64_t wait_span = 0;  // queue-wait: admission, stage queue, block
    std::uint64_t body_span = 0;  // compute: stage body running
  };
  struct Stage {
    StageConfig cfg;
    std::deque<std::uint64_t> queue;    // waiting item ids, arrival order
    std::deque<std::uint64_t> blocked;  // finished, held by kBlock downstream
    int running = 0;
    bool pumping = false;  // re-entrancy guard for pump()
  };

  void admit_pending();
  void supersede_waiting();   // newest-wins trim of the admission queue
  bool accepts(int s) const;  // false when stage s's kBlock queue is full
  void enqueue(int s, std::uint64_t id);
  void pump(int s);
  void start(int s, std::uint64_t id);
  void finish(int s, std::uint64_t id);
  void advance(int s, std::uint64_t id);  // hand off past stage s
  void drain_blocked(int s);  // stage s's queue freed: unblock stage s-1
  void leave_graph(std::uint64_t id);
  void drop_queued(int s, std::uint64_t id);
  void note_queue(int s);

  des::Scheduler& sched_;
  GraphConfig cfg_;
  std::vector<Stage> stages_;
  // Node-stable storage: stage bodies hold Item& across scheduler delays.
  std::map<std::uint64_t, ItemState> live_;
  std::deque<std::uint64_t> admission_;
  std::uint64_t next_id_ = 1;
  int in_flight_ = 0;
  bool admitting_ = false;
  bool degraded_ = false;
  bool awaiting_recovery_ = false;
  des::SimTime degraded_since_;
  des::SimTime recovery_started_;
  MetricsRegistry metrics_;
  trace::TraceRecorder* trace_ = nullptr;
  std::function<void(const Item&)> complete_;
  std::function<void(const Item&, int)> drop_;
};

}  // namespace gtw::flow
