#include "gpu/sm.hpp"

#include "common/assert.hpp"

namespace lazydram::gpu {

Sm::Sm(const GpuConfig& cfg, SmId id, const workloads::Workload& workload,
       const AddressMapper& mapper)
    : cfg_(cfg),
      id_(id),
      workload_(workload),
      mapper_(mapper),
      l1_(cfg.l1),
      mshr_(cfg.l1.mshr_entries),
      tenant_instructions_(workload.num_tenants(), 0),
      tenant_finish_cycle_(workload.num_tenants(), 0),
      next_packet_id_(static_cast<RequestId>(id) << 40) {}

void Sm::assign_warp(unsigned global_warp_id) {
  LD_ASSERT_MSG(warps_.size() < cfg_.max_warps_per_sm, "SM warp slots exhausted");
  Warp w;
  w.global_id = global_warp_id;
  w.tenant = workload_.tenant_of_warp(global_warp_id);
  LD_ASSERT_MSG(w.tenant < tenant_instructions_.size(), "warp tenant out of range");
  warps_.push_back(std::move(w));
  in_active_.push_back(1);
  active_.push_back(static_cast<unsigned>(warps_.size() - 1));
}

void Sm::activate(unsigned warp_idx) {
  if (in_active_[warp_idx]) return;
  in_active_[warp_idx] = 1;
  active_.push_back(warp_idx);
}

void Sm::on_reply(const icnt::Packet& packet) {
  // Fill the L1 (never dirty: L1 is write-through) and wake every warp that
  // merged into this line's MSHR entry. The epoch moves, which ends any
  // park: a woken warp may issue. The released view stays valid through the
  // loop, which allocates no MSHR entry.
  ++mem_epoch_;
  l1_.fill(packet.line_addr, /*dirty=*/false, packet.approximate);
  for (const cache::MshrToken token : mshr_.release(packet.line_addr)) {
    const unsigned warp_idx = static_cast<unsigned>(token);
    Warp& w = warps_[warp_idx];
    LD_ASSERT(w.outstanding > 0);
    --w.outstanding;
    activate(warp_idx);
  }
}

Sm::IssueResult Sm::issue_memory_line(unsigned warp_idx, Cycle now,
                                      icnt::Crossbar& req_xbar, bool& mem_blocked) {
  Warp& w = warps_[warp_idx];
  const Addr line = w.lines[w.lines_issued];

  // Memoised verdict: the line last found no crossbar slot, and nothing that
  // could turn its L1 miss into a hit or change its MSHR verdict has happened
  // since, so only the slot can have changed.
  const bool xbar_full = !req_xbar.can_push(id_);
  if (xbar_full && w.xbar_wait_epoch == mem_epoch_) {
    mem_blocked = true;
    return IssueResult::kPollBlocked;
  }

  if (w.kind == WarpOp::Kind::kStore) {
    // Write-through, no-allocate: update the L1 copy if present, then send
    // the write toward the L2 slice. Fire-and-forget (no scoreboard entry).
    if (xbar_full) return wait_for_xbar(w, mem_blocked);
    l1_.access(line, /*is_write=*/true);
    icnt::Packet pkt;
    pkt.id = ++next_packet_id_;
    pkt.line_addr = line;
    pkt.kind = AccessKind::kWrite;
    pkt.src_sm = id_;
    pkt.tenant = w.tenant;
    req_xbar.push(id_, mapper_.channel_of(line), pkt);
    return IssueResult::kIssued;
  }

  // Load path.
  if (l1_.access(line, /*is_write=*/false).hit) {
    ++w.outstanding;
    completions_.emplace_back(now + cfg_.l1_hit_latency, warp_idx);
    return IssueResult::kIssued;
  }

  // Miss: merge into an existing MSHR entry, or allocate a new one and send
  // the request to the home partition.
  const bool is_merge = mshr_.has(line);
  if (!mshr_.can_allocate(line)) {
    if (!is_merge) mem_blocked = true;  // Table full: SM-global condition.
    return IssueResult::kPollBlocked;
  }
  if (!is_merge && xbar_full) return wait_for_xbar(w, mem_blocked);

  const bool primary = mshr_.allocate(line, warp_idx);
  LD_ASSERT(primary == !is_merge);
  ++w.outstanding;

  if (primary) {
    icnt::Packet pkt;
    pkt.id = ++next_packet_id_;
    pkt.line_addr = line;
    pkt.kind = AccessKind::kRead;
    pkt.approximable = w.approximable;
    pkt.src_sm = id_;
    pkt.tenant = w.tenant;
    pkt.inject_cycle = now;  // Lifecycle stamp: crossbar entry.
    req_xbar.push(id_, mapper_.channel_of(line), pkt);
  }
  return IssueResult::kIssued;
}

Sm::IssueResult Sm::wait_for_xbar(Warp& w, bool& mem_blocked) {
  w.xbar_wait_epoch = mem_epoch_;
  mem_blocked = true;
  return IssueResult::kPollBlocked;
}

Sm::IssueResult Sm::try_issue(unsigned warp_idx, Cycle now, icnt::Crossbar& req_xbar,
                              bool& mem_blocked) {
  Warp& w = warps_[warp_idx];
  if (w.done) return IssueResult::kSleep;
  if (w.busy_until > now) {
    timers_.emplace(w.busy_until, warp_idx);
    return IssueResult::kSleep;
  }

  // Decode the next op if none is in progress: into the SM's scratch op, of
  // which the warp keeps the header and the coalesced lines.
  if (!w.has_op) {
    if (!workload_.op_at(w.global_id, w.step, decode_)) {
      // Program ended; the warp retires once its loads have drained.
      if (w.outstanding == 0) {
        w.done = true;
        ++done_warps_;
        if (now > tenant_finish_cycle_[w.tenant]) tenant_finish_cycle_[w.tenant] = now;
      }
      return IssueResult::kSleep;  // Wakes via reply if loads outstanding.
    }
    w.has_op = true;
    w.kind = decode_.kind;
    w.cycles = decode_.cycles;
    w.approximable = decode_.approximable;
    w.lines_issued = 0;
    if (decode_.kind != WarpOp::Kind::kCompute) {
      coalesce(decode_, w.lines);
      LD_ASSERT_MSG(!w.lines.empty(), "memory op with no addresses");
    }
  }

  if (w.kind == WarpOp::Kind::kCompute) {
    // In-order dependence: computation consumes prior loads. Wake: reply.
    if (w.outstanding > 0) return IssueResult::kSleep;
    w.busy_until = now + w.cycles;
    ++w.instructions;
    ++instructions_;
    ++tenant_instructions_[w.tenant];
    ++w.step;
    w.has_op = false;
    return IssueResult::kIssued;  // Stays active; timer fires when scanned busy.
  }

  // Memory op: one line per cycle.
  if (mem_blocked) return IssueResult::kPollBlocked;
  const IssueResult result = issue_memory_line(warp_idx, now, req_xbar, mem_blocked);
  if (result != IssueResult::kIssued) {
    ++stall_cycles_;
    stall_warp_ = warp_idx;
    return result;
  }
  ++mem_epoch_;  // An MSHR allocation, L1 hit or store update: verdicts may change.
  ++w.lines_issued;
  if (w.lines_issued == w.lines.size()) {
    ++w.instructions;
    ++instructions_;
    ++tenant_instructions_[w.tenant];
    ++w.step;
    w.has_op = false;
  }
  return IssueResult::kIssued;
}

void Sm::tick(Cycle now, icnt::Crossbar& req_xbar) {
  // Parked: the last tick's only work was one memoised crossbar stall, and
  // none of its wake sources (a free slot, a reply, a due completion or
  // timer) has fired, so this tick would repeat it exactly.
  if (parked(now, req_xbar)) {
    ++stall_cycles_;
    return;
  }
  park_until_ = 0;

  // Retire L1 hits whose latency has elapsed.
  while (!completions_.empty() && completions_.front().first <= now) {
    const unsigned warp_idx = completions_.front().second;
    Warp& w = warps_[warp_idx];
    LD_ASSERT(w.outstanding > 0);
    --w.outstanding;
    activate(warp_idx);
    completions_.pop_front();
  }

  // Wake compute-occupancy expirations.
  while (!timers_.empty() && timers_.top().first <= now) {
    activate(timers_.top().second);
    timers_.pop();
  }

  bool mem_blocked = false;
  const std::uint64_t stalls_before = stall_cycles_;

  // A multi-line memory instruction owns the load/store unit until all its
  // transactions have issued (as in real hardware): if a warp is mid-op, it
  // has strict priority. Keeping one instruction's lines consecutive is what
  // lets same-row transactions reach the memory controller together.
  if (lsu_owner_ >= 0) {
    const unsigned owner = static_cast<unsigned>(lsu_owner_);
    const IssueResult result = try_issue(owner, now, req_xbar, mem_blocked);
    if (result == IssueResult::kIssued) {
      if (!warps_[owner].has_op) lsu_owner_ = -1;
    } else {
      park_if_repeating(now, stalls_before);
    }
    return;  // The LSU owner consumes the issue slot until its op completes.
  }

  // Scan active warps; issue for the first that can. Warps that block with a
  // known wake event are removed (swap-remove keeps the scan O(active)).
  for (std::size_t j = 0; j < active_.size();) {
    const unsigned warp_idx = active_[j];
    const Warp& w = warps_[warp_idx];
    // Once the LSU path is blocked this cycle, a warp mid memory op (decoded,
    // not busy, not done) can only poll: try_issue would return kPollBlocked
    // and change no state.
    if (mem_blocked && w.has_op && w.kind != WarpOp::Kind::kCompute && !w.done &&
        w.busy_until <= now) {
      ++j;
      continue;
    }
    const IssueResult result = try_issue(warp_idx, now, req_xbar, mem_blocked);
    if (result == IssueResult::kIssued) {
      if (w.has_op && w.kind != WarpOp::Kind::kCompute) {
        lsu_owner_ = static_cast<int>(warp_idx);  // Mid-op: hold the LSU.
      } else {
        // Completed op: loose round-robin sends the warp to the back.
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(j));
        active_.push_back(warp_idx);
      }
      return;
    }
    if (result == IssueResult::kSleep) {
      in_active_[warp_idx] = 0;
      active_[j] = active_.back();
      active_.pop_back();
      continue;  // Re-examine the swapped-in entry at j.
    }
    ++j;  // kPollBlocked: stays active.
  }
  park_if_repeating(now, stalls_before);
}

void Sm::park_if_repeating(Cycle now, std::uint64_t stalls_before) {
  // Nothing issued. With exactly one stall, charged to a warp whose crossbar
  // memo is valid, that warp blocked the LSU first and every other warp still
  // active is now mid memory op, so the next tick would repeat this one (one
  // memoised stall, the rest passed over) until a wake source fires.
  // Completions and timers gain entries only in a tick that issues or scans,
  // so their heads bound the park.
  if (stall_cycles_ != stalls_before + 1 || warps_[stall_warp_].xbar_wait_epoch != mem_epoch_)
    return;
  Cycle wake = kNeverCycle;
  if (!completions_.empty()) wake = completions_.front().first;
  if (!timers_.empty()) wake = std::min(wake, timers_.top().first);
  LD_ASSERT(wake > now);
  park_until_ = wake;
}

}  // namespace lazydram::gpu
