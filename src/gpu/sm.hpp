// One Streaming Multiprocessor: warp contexts, loose round-robin warp
// scheduling, a private L1 data cache with MSHRs, and the request/reply
// interface to the interconnect.
//
// Issue model: one warp operation (or one line of a multi-line memory op)
// per core cycle. Loads are non-blocking; a warp blocks at its next
// kCompute/kStore op until all its outstanding loads have returned — the
// same in-order-core-with-MLP model GPGPU-Sim's scoreboard enforces.
//
// Scheduling is event-driven for speed: only *active* warps are scanned each
// cycle. A warp leaves the active list when it blocks for a reason with a
// known wake event (compute occupancy -> timer; outstanding loads -> reply/
// completion) and re-enters on that event. Warps blocked on SM-global
// resources (crossbar slot, MSHR table) stay active. Once one of them finds
// the LSU path blocked in a cycle, the rest of that cycle's scan passes over
// warps mid memory op without calling try_issue, since a retry could only
// fail again and changes no state.
//
// Waits on the request crossbar are keyed on events. mem_epoch_ moves on
// every reply and every issued memory line; a head line that found no
// crossbar slot keeps its verdict until the epoch moves, so its re-polls
// skip the L1 and MSHR probes. A tick whose only work was one such stall
// parks the SM: later ticks just count the stall until a slot frees, a
// reply arrives, or an L1-hit completion or compute timer falls due. GpuTop
// does not even call a parked tick: it takes the SM out of its tick set
// (parked()) and credits the skipped stalls in bulk when one of those wake
// sources fires (add_parked_ticks()).
//
// Issue allocates and copies nothing per op once warm. The workload writes
// each decoded op into one scratch WarpOp per SM; the Warp keeps only the
// op's header (kind, cycles, approximable) and its coalesced lines, in a
// vector that keeps its capacity. The MSHR table is flat: fixed slots whose
// token vectors are reused, behind an open-addressed index.
#pragma once

#include <algorithm>
#include <deque>
#include <queue>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "dram/address.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/warp.hpp"
#include "icnt/crossbar.hpp"
#include "workloads/workload.hpp"

namespace lazydram::gpu {

class Sm {
 public:
  Sm(const GpuConfig& cfg, SmId id, const workloads::Workload& workload,
     const AddressMapper& mapper);

  /// Adds a resident warp executing the workload's stream `global_warp_id`.
  /// Precondition: resident_warps() < max_warps_per_sm.
  void assign_warp(unsigned global_warp_id);
  unsigned resident_warps() const { return static_cast<unsigned>(warps_.size()); }

  /// One core cycle: retire L1-hit completions, wake timed-out warps, then
  /// issue at most one warp op / memory line. L1 misses are pushed into
  /// `req_xbar` (port `id()`).
  void tick(Cycle now, icnt::Crossbar& req_xbar);

  /// True iff tick(now) would be a parked tick: the last tick's only work
  /// was one memoised crossbar stall and none of its wake sources has fired
  /// since, so tick(now) would only count one more stall. The sources are a
  /// free slot in the crossbar input, a reply (on_reply), and the head L1-hit
  /// completion or compute timer falling due (park_until()).
  bool parked(Cycle now, const icnt::Crossbar& req_xbar) const {
    return now < park_until_ && warps_[stall_warp_].xbar_wait_epoch == mem_epoch_ &&
           !req_xbar.can_push(id_);
  }
  /// First cycle at which a parked SM ticks for real if no reply arrives and
  /// no crossbar slot frees first (kNeverCycle: only those can end it).
  Cycle park_until() const { return park_until_; }
  /// Credits `ticks` parked ticks the caller skipped instead of calling
  /// tick(): each would have counted one stall and changed nothing else.
  void add_parked_ticks(Cycle ticks) { stall_cycles_ += ticks; }

  /// Delivers a reply packet from the memory side.
  void on_reply(const icnt::Packet& packet);

  bool all_done() const { return done_warps_ == warps_.size(); }
  /// Resident warps that have retired, for run-progress reporting (the
  /// heartbeat's warps-done / ETA line).
  unsigned done_warps() const { return static_cast<unsigned>(done_warps_); }

  /// First future cycle at which tick() could change any state, assuming no
  /// reply arrives in between (replies are external events the caller
  /// accounts for separately). While any warp is active — or a multi-line
  /// memory op owns the LSU — the SM ticks every cycle; that includes a
  /// parked SM, whose ticks still count stalls (GpuTop skips those ticks
  /// only while the SM's crossbar input is full, and then the crossbar
  /// itself keeps the core side stepping every cycle). Otherwise the only
  /// self-wakes are the head L1-hit completion (FIFO: constant latency keeps
  /// it sorted) and the earliest compute timer. Skipping the gap is bit-exact
  /// because an idle tick() touches nothing: stall_cycles_ only advances on
  /// a stalled memory line or a parked tick, and both need a warp that is
  /// active or owns the LSU.
  Cycle next_event(Cycle now) const {
    if (lsu_owner_ >= 0 || !active_.empty()) return now + 1;
    Cycle ev = kNeverCycle;
    if (!completions_.empty()) ev = std::min(ev, completions_.front().first);
    if (!timers_.empty()) ev = std::min(ev, timers_.top().first);
    return ev > now ? ev : now + 1;
  }

  SmId id() const { return id_; }
  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t l1_miss_stalls() const { return stall_cycles_; }

  // --- Per-tenant accounting (sized from workload.num_tenants()) ---
  std::uint64_t tenant_instructions(TenantId t) const { return tenant_instructions_[t]; }
  /// Core cycle the tenant's last resident warp on this SM retired (0 if the
  /// tenant has no warps here or none have finished yet).
  Cycle tenant_finish_cycle(TenantId t) const { return tenant_finish_cycle_[t]; }

 private:
  enum class IssueResult {
    kIssued,       ///< Used the issue slot.
    kPollBlocked,  ///< Blocked on a pollable resource; stay active.
    kSleep,        ///< Blocked with a known wake event; deactivate.
  };

  IssueResult try_issue(unsigned warp_idx, Cycle now, icnt::Crossbar& req_xbar,
                        bool& mem_blocked);
  IssueResult issue_memory_line(unsigned warp_idx, Cycle now, icnt::Crossbar& req_xbar,
                                bool& mem_blocked);
  /// The head line of `w` found no crossbar slot: memoise that at the
  /// current epoch.
  IssueResult wait_for_xbar(Warp& w, bool& mem_blocked);
  /// End of a tick that issued nothing: park if the next tick would repeat it.
  void park_if_repeating(Cycle now, std::uint64_t stalls_before);

  void activate(unsigned warp_idx);

  const GpuConfig& cfg_;
  SmId id_;
  const workloads::Workload& workload_;
  const AddressMapper& mapper_;

  cache::Cache l1_;
  cache::MshrTable<cache::MshrToken> mshr_;  ///< Token = warp index within warps_.
  /// Decode scratch: every op_at writes here, and try_issue copies the
  /// header into the Warp and coalesces the lanes into Warp::lines.
  WarpOp decode_;
  std::vector<Warp> warps_;
  std::size_t done_warps_ = 0;

  std::vector<unsigned> active_;    ///< Warp indices eligible for issue scan.
  std::vector<std::uint8_t> in_active_;
  /// (wake cycle, warp): compute-occupancy expirations.
  std::priority_queue<std::pair<Cycle, unsigned>, std::vector<std::pair<Cycle, unsigned>>,
                      std::greater<>>
      timers_;

  /// L1 hits complete after l1_hit_latency: (ready cycle, warp index).
  std::deque<std::pair<Cycle, unsigned>> completions_;

  /// Warp index currently owning the load/store unit mid-instruction
  /// (issues its remaining transactions with strict priority); -1 if none.
  int lsu_owner_ = -1;

  /// Bumped by every on_reply (L1 fill, MSHR release) and every issued
  /// memory line (MSHR allocation, L1 hit, store update): the only events
  /// that can change a head line's L1/MSHR verdict. Starts at 1 so a
  /// Warp::xbar_wait_epoch of 0 never matches.
  std::uint64_t mem_epoch_ = 1;
  /// While now < park_until_, the stalled warp's crossbar memo holds (no
  /// reply or issue since) and the crossbar input stays full, tick() only
  /// counts a stall. 0 = not parked.
  Cycle park_until_ = 0;
  unsigned stall_warp_ = 0;  ///< Warp charged with the latest stall.

  std::uint64_t instructions_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::vector<std::uint64_t> tenant_instructions_;
  std::vector<Cycle> tenant_finish_cycle_;
  RequestId next_packet_id_;
};

}  // namespace lazydram::gpu
