#include "meta/communicator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>

namespace gtw::meta {

std::uint32_t datatype_size(Datatype t) {
  switch (t) {
    case Datatype::kByte: return 1;
    case Datatype::kInt32: return 4;
    case Datatype::kInt64: return 8;
    case Datatype::kFloat32: return 4;
    case Datatype::kFloat64: return 8;
  }
  return 1;
}

Communicator::Communicator(Metacomputer& mc, std::vector<ProcLoc> ranks)
    : mc_(&mc), ranks_(std::move(ranks)), states_(ranks_.size()) {
  if (ranks_.empty())
    throw std::invalid_argument("Communicator: empty rank set");
}

bool Communicator::matches(const PostedRecv& r, const Message& m) const {
  return (r.source == kAnySource || r.source == m.source) &&
         (r.tag == kAnyTag || r.tag == m.tag);
}

void Communicator::send(int src_rank, int dst_rank, int tag,
                        std::uint64_t bytes, std::any data, Callback on_sent) {
  const ProcLoc& src = location(src_rank);
  const ProcLoc& dst = location(dst_rank);
  ++messages_sent_;
  bytes_sent_ += bytes;

  Message msg{src_rank, tag, bytes, std::move(data)};
  if (src.machine == dst.machine) {
    const des::SimTime cost = mc_->intra_cost(src.machine, units::Bytes{bytes});
    mc_->scheduler().schedule_after(
        cost, [this, dst_rank, msg = std::move(msg)]() mutable {
          deliver(dst_rank, std::move(msg));
        });
  } else if (retry_enabled_) {
    ++reliability_.wan_guarded;
    auto st = std::make_shared<WanSendState>();
    st->src_rank = src_rank;
    st->dst_rank = dst_rank;
    st->src_machine = src.machine;
    st->dst_machine = dst.machine;
    st->bytes = bytes;
    st->msg = std::move(msg);
    st->next_timeout = retry_.timeout;
    // The library may retransmit this message, so the application buffer
    // stays pinned: on_sent is deferred to the first successful delivery
    // (and never fires if the message is reported unreachable).
    st->on_sent = std::move(on_sent);
    if (des::SpanHook* h = mc_->scheduler().span_hook(); h != nullptr) {
      st->ctx = h->current();
      if (!st->ctx.valid()) {
        st->ctx = h->mint("comm.wan", mc_->scheduler().now());
        st->owns_trace = true;
      }
    }
    wan_attempt(std::move(st));
    return;
  } else {
    des::SpanHook* h = mc_->scheduler().span_hook();
    des::TraceContext ctx;
    bool minted = false;
    if (h != nullptr) {
      ctx = h->current();
      if (!ctx.valid()) {
        ctx = h->mint("comm.wan", mc_->scheduler().now());
        minted = true;
      }
    }
    des::TraceContext prev;
    if (h != nullptr) prev = h->adopt(ctx);
    mc_->wan_send(src.machine, dst.machine, units::Bytes{bytes},
                  [this, dst_rank, ctx, minted,
                   msg = std::move(msg)]() mutable {
                    deliver(dst_rank, std::move(msg));
                    if (des::SpanHook* h2 = mc_->scheduler().span_hook();
                        h2 != nullptr && minted)
                      h2->close_trace(ctx, mc_->scheduler().now());
                  });
    if (h != nullptr) h->adopt(prev);
  }
  if (on_sent) on_sent();
}

void Communicator::wan_attempt(std::shared_ptr<WanSendState> st) {
  ++st->attempts;
  // Run the attempt under the message's trace: the transport spans of this
  // attempt — and the watchdog armed below — nest under st->ctx (or under
  // the retry-backoff span once one is open, so resent copies read as
  // children of the stall that caused them).
  des::SpanHook* h = mc_->scheduler().span_hook();
  des::TraceContext prev;
  if (h != nullptr) prev = h->adopt(des::under(st->ctx, st->retry_span));
  mc_->wan_send(st->src_machine, st->dst_machine, units::Bytes{st->bytes},
                [this, st]() {
    ++reliability_.wan_copies;
    if (st->abandoned) {
      // The unreachable report already fired; the application has been told
      // this message failed, so a tardy copy must not resurrect it.
      ++reliability_.dropped_after_unreachable;
      return;
    }
    if (st->delivered) {
      // An earlier attempt's bytes finally made it through after a retry
      // was already issued (the simulated TCP is reliable, just late).
      ++reliability_.duplicates_suppressed;
      return;
    }
    st->delivered = true;
    ++reliability_.wan_delivered;
    st->watchdog.cancel();
    if (des::SpanHook* h2 = mc_->scheduler().span_hook(); h2 != nullptr) {
      h2->end_span(st->retry_span, mc_->scheduler().now());
      st->retry_span = 0;
    }
    if (st->on_sent) {
      Callback sent = std::move(st->on_sent);
      st->on_sent = nullptr;
      sent();
    }
    deliver(st->dst_rank, std::move(st->msg));
    if (des::SpanHook* h2 = mc_->scheduler().span_hook();
        h2 != nullptr && st->owns_trace)
      h2->close_trace(st->ctx, mc_->scheduler().now());
  });
  st->watchdog = mc_->scheduler().schedule_after(st->next_timeout, [this, st]() {
    if (st->delivered) return;
    if (st->attempts > retry_.max_retries) {
      st->abandoned = true;
      ++reliability_.unreachable_reports;
      if (des::SpanHook* h2 = mc_->scheduler().span_hook(); h2 != nullptr) {
        // The message is dead: retire the retry span and the whole trace
        // as aborted so the tracer's leak census stays clean even though
        // no delivery will ever close them.
        h2->abort_span(st->retry_span, mc_->scheduler().now());
        st->retry_span = 0;
        if (st->owns_trace)
          h2->abort_trace(st->ctx, "unreachable", mc_->scheduler().now());
      }
      if (unreachable_)
        unreachable_(st->src_rank, st->dst_rank, st->attempts);
      return;
    }
    ++reliability_.wan_retries;
    if (des::SpanHook* h2 = mc_->scheduler().span_hook();
        h2 != nullptr && st->retry_span == 0 && st->ctx.valid()) {
      st->retry_span =
          h2->begin_span(st->ctx, des::SpanPhase::kRetryBackoff, "comm",
                         "retry", mc_->scheduler().now());
    }
    st->next_timeout =
        des::SimTime::seconds(st->next_timeout.sec() * retry_.backoff);
    if (st->next_timeout > retry_.max_timeout)
      st->next_timeout = retry_.max_timeout;
    wan_attempt(st);
  });
  if (h != nullptr) h->adopt(prev);
}

void Communicator::send_typed(int src_rank, int dst_rank, int tag,
                              std::uint64_t count, Datatype type,
                              std::any data, Callback on_sent) {
  send(src_rank, dst_rank, tag, count * datatype_size(type), std::move(data),
       std::move(on_sent));
}

void Communicator::recv(int rank, int source, int tag, RecvCallback cb) {
  RankState& st = states_.at(static_cast<std::size_t>(rank));
  // Try the unexpected queue first (arrival order preserved).
  for (auto it = st.unexpected.begin(); it != st.unexpected.end(); ++it) {
    PostedRecv probe{source, tag, nullptr};
    if (matches(probe, *it)) {
      Message msg = std::move(*it);
      st.unexpected.erase(it);
      cb(msg);
      return;
    }
  }
  st.recvs.push_back(PostedRecv{source, tag, std::move(cb)});
}

void Communicator::deliver(int dst_rank, Message msg) {
  RankState& st = states_.at(static_cast<std::size_t>(dst_rank));
  for (auto it = st.recvs.begin(); it != st.recvs.end(); ++it) {
    if (matches(*it, msg)) {
      RecvCallback cb = std::move(it->cb);
      st.recvs.erase(it);
      cb(msg);
      return;
    }
  }
  st.unexpected.push_back(std::move(msg));
}

des::SimTime Communicator::intra_tree_cost(std::uint64_t bytes) const {
  // Tree depth on the machine holding the most ranks of this communicator.
  std::map<int, int> counts;
  for (const ProcLoc& p : ranks_) ++counts[p.machine];
  des::SimTime worst = des::SimTime::zero();
  for (const auto& [machine, count] : counts) {
    const int depth = count > 1
        ? static_cast<int>(std::ceil(std::log2(static_cast<double>(count))))
        : 0;
    const des::SimTime cost =
        mc_->intra_cost(machine, units::Bytes{bytes}) * depth;
    worst = std::max(worst, cost);
  }
  return worst;
}

std::vector<int> Communicator::machines_involved() const {
  std::vector<int> out;
  for (const ProcLoc& p : ranks_)
    if (std::find(out.begin(), out.end(), p.machine) == out.end())
      out.push_back(p.machine);
  return out;
}

Communicator::Collective& Communicator::open_round(CollKind kind) {
  return collectives_[{kind, round_seq_[kind]}];
}

void Communicator::arrive(CollKind kind, int rank, std::uint64_t wan_bytes,
                          Completion done) {
  const CollKey key{kind, round_seq_[kind]};
  Collective& c = collectives_[key];
  c.continuations.resize(ranks_.size());
  c.continuations.at(static_cast<std::size_t>(rank)) = std::move(done);
  if (++c.arrived < size()) return;
  ++round_seq_[kind];
  finish_collective(key, wan_bytes);
}

void Communicator::finish_collective(CollKey key, std::uint64_t wan_bytes) {
  const des::SimTime intra = intra_tree_cost(wan_bytes);
  const std::vector<int> machines = machines_involved();
  const int root_machine = location(collectives_[key].root).machine;
  auto& sched = mc_->scheduler();

  auto final_stage = [this, key, intra, &sched]() {
    sched.schedule_after(intra, [this, key]() {
      const Collective& c = collectives_.at(key);
      for (const Completion& done : c.continuations)
        if (done) done(c);
      collectives_.erase(key);
    });
  };

  if (machines.size() <= 1) {
    // Single machine: up the tree and back down.
    sched.schedule_after(intra, final_stage);
    return;
  }

  // Intra gather, then WAN exchange with the root machine's leader, then
  // intra broadcast.  The shared_ptr counters survive until all WAN legs
  // complete.
  auto pending_in = std::make_shared<int>(0);
  auto pending_out = std::make_shared<int>(0);
  sched.schedule_after(intra, [this, machines, root_machine, wan_bytes,
                               pending_in, pending_out, final_stage]() {
    *pending_in = static_cast<int>(machines.size()) - 1;
    for (int m : machines) {
      if (m == root_machine) continue;
      mc_->wan_send(m, root_machine, units::Bytes{wan_bytes},
                    [this, machines, root_machine, wan_bytes, pending_in,
                     pending_out, final_stage]() {
        if (--*pending_in > 0) return;
        // All partial contributions at the root leader: send results back.
        *pending_out = static_cast<int>(machines.size()) - 1;
        for (int m2 : machines) {
          if (m2 == root_machine) continue;
          mc_->wan_send(root_machine, m2, units::Bytes{wan_bytes},
                        [pending_out, final_stage]() {
                          if (--*pending_out == 0) final_stage();
                        });
        }
      });
    }
  });
}

void Communicator::barrier(int rank, Callback cb) {
  arrive(kBarrier, rank, 8, [cb = std::move(cb)](const Collective&) {
    if (cb) cb();
  });
}

void Communicator::broadcast(int rank, int root, std::uint64_t bytes,
                             std::function<void(const std::any&)> cb,
                             std::any root_data) {
  Collective& c = open_round(kBroadcast);
  c.root = root;
  if (rank == root) c.bcast_data = std::move(root_data);
  arrive(kBroadcast, rank, bytes,
         [cb = std::move(cb)](const Collective& done) { cb(done.bcast_data); });
}

void Communicator::allreduce(int rank, const std::vector<double>& contribution,
                             ReduceOp op,
                             std::function<void(std::vector<double>)> cb) {
  Collective& c = open_round(kAllreduce);
  c.contribs.resize(ranks_.size());
  c.contribs.at(static_cast<std::size_t>(rank)) = contribution;
  c.op = op;
  const std::uint64_t payload = contribution.size() * sizeof(double);
  arrive(kAllreduce, rank, std::max<std::uint64_t>(payload, 8),
         [cb = std::move(cb)](const Collective& done) {
    // Each rank folds the contributions itself; cheap for the small
    // vectors reduced here.
    std::vector<double> acc = done.contribs.at(0);
    for (std::size_t i = 1; i < done.contribs.size(); ++i) {
      const auto& v = done.contribs[i];
      for (std::size_t j = 0; j < acc.size() && j < v.size(); ++j) {
        switch (done.op) {
          case ReduceOp::kSum: acc[j] += v[j]; break;
          case ReduceOp::kMax: acc[j] = std::max(acc[j], v[j]); break;
          case ReduceOp::kMin: acc[j] = std::min(acc[j], v[j]); break;
        }
      }
    }
    cb(std::move(acc));
  });
}

void Communicator::gather(int rank, std::uint64_t bytes, std::any data,
                          int root,
                          std::function<void(std::vector<std::any>)> root_cb) {
  Collective& c = open_round(kGather);
  c.root = root;
  c.slots.resize(ranks_.size());
  c.slots.at(static_cast<std::size_t>(rank)) = std::move(data);
  Completion done;
  if (rank == root)
    done = [cb = std::move(root_cb)](const Collective& d) { cb(d.slots); };
  arrive(kGather, rank, bytes * static_cast<std::uint64_t>(size()),
         std::move(done));
}

void Communicator::scatter(int rank, int root, std::uint64_t bytes_per_rank,
                           std::function<void(const std::any&)> cb,
                           std::vector<std::any> root_data) {
  Collective& c = open_round(kScatter);
  c.root = root;
  if (rank == root) c.slots = std::move(root_data);
  arrive(kScatter, rank, bytes_per_rank * static_cast<std::uint64_t>(size()),
         [rank, cb = std::move(cb)](const Collective& done) {
           const auto r = static_cast<std::size_t>(rank);
           cb(r < done.slots.size() ? done.slots[r] : std::any{});
         });
}

void Communicator::alltoall(int rank, std::uint64_t bytes_per_pair,
                            std::vector<std::any> contributions,
                            std::function<void(std::vector<std::any>)> cb) {
  Collective& c = open_round(kAlltoall);
  c.matrix.resize(ranks_.size());
  c.matrix.at(static_cast<std::size_t>(rank)) = std::move(contributions);
  const auto n = static_cast<std::uint64_t>(size());
  arrive(kAlltoall, rank, bytes_per_pair * n * n,
         [rank, cb = std::move(cb)](const Collective& done) {
           // Column `rank` of the contribution matrix.
           const auto r = static_cast<std::size_t>(rank);
           std::vector<std::any> column;
           column.reserve(done.matrix.size());
           for (const auto& row : done.matrix)
             column.push_back(r < row.size() ? row[r] : std::any{});
           cb(std::move(column));
         });
}

void Communicator::sendrecv(int rank, int dst, int send_tag,
                            std::uint64_t send_bytes, std::any send_data,
                            int src, int recv_tag, RecvCallback cb) {
  recv(rank, src, recv_tag, std::move(cb));
  send(rank, dst, send_tag, send_bytes, std::move(send_data));
}

void Communicator::spawn(
    int machine, int n,
    std::function<void(std::shared_ptr<Communicator>)> cb) {
  const MachineSpec& spec = mc_->machine(machine);
  const des::SimTime startup = spec.spawn_base + spec.spawn_per_pe * n;
  mc_->scheduler().schedule_after(
      startup, [this, machine, n, cb = std::move(cb)]() {
        std::vector<ProcLoc> merged = ranks_;
        const int base = mc_->allocate_pes(machine, n);
        for (int i = 0; i < n; ++i)
          merged.push_back(ProcLoc{machine, base + i});
        cb(std::make_shared<Communicator>(*mc_, std::move(merged)));
      });
}

}  // namespace gtw::meta
