// Top-level simulated GPU: SMs + request/reply crossbars + memory partitions
// (L2 slice, VP unit, memory controller) + clock domains + functional memory.
//
// This is the substrate equivalent of GPGPU-Sim's top level for the paper's
// purposes: it turns a workload model into the interleaved, coalesced DRAM
// request streams the lazy memory scheduler operates on, and runs the whole
// machine until the kernel (all warps) completes and the memory system
// drains. The run loop is an event wheel: cycles in which some component can
// act are stepped, quiet spans are fast-forwarded (see run()).
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/value_predictor.hpp"
#include "dram/address.hpp"
#include "gpu/functional_memory.hpp"
#include "gpu/sm.hpp"
#include "icnt/crossbar.hpp"
#include "mem/controller.hpp"
#include "telemetry/telemetry.hpp"

namespace lazydram {
namespace check {
class CheckContext;
class ProtocolChecker;
}  // namespace check
}  // namespace lazydram

namespace lazydram::gpu {

class GpuTop {
 public:
  /// Creates the per-channel scheduler. Returning a core::LazyScheduler
  /// enables the DMS/AMS/VP integration; other Scheduler implementations
  /// (plain FR-FCFS, FCFS) run without it.
  using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(ChannelId)>;

  /// `telemetry` (nullable) attaches the observability layer: its tracer is
  /// wired into every controller/scheduler, and window sampling is enabled
  /// on each channel when requested. Purely observational — a run's
  /// RunMetrics are bit-identical with or without it.
  /// `check` (nullable) attaches the verification layer: a protocol checker
  /// and/or request-stream recorder per channel, per its CheckConfig. The
  /// checker observes but never schedules, so (outside of a strict-mode
  /// throw) a run's results are bit-identical with or without it.
  GpuTop(const GpuConfig& cfg, const workloads::Workload& workload,
         const SchedulerFactory& factory, RowPolicy row_policy = RowPolicy::kOpenRow,
         telemetry::Telemetry* telemetry = nullptr,
         check::CheckContext* check = nullptr);

  /// Runs until the workload finishes and the memory system drains, or
  /// `max_core_cycles` elapse, then finalize()s. Returns true iff it
  /// finished.
  ///
  /// Event-wheel driver: whenever the serial side (SMs, crossbars,
  /// partition front-ends) has no work before the earliest cross-domain
  /// event (a reply becoming poppable, the soonest possible CAS data
  /// return), the core clock fast-forwards and only the memory controllers
  /// advance over the gap — each skipping its own quiet spans via
  /// next_event()/advance_idle(). No skip crosses a finished() poll (every
  /// 1024th core cycle), so the result equals that of calling step() every
  /// cycle with the same poll, in results and in trace output (Sharding.*
  /// lockstep tests, tools/diffcheck). Everything runs on the calling
  /// thread.
  bool run(Cycle max_core_cycles = 200'000'000);

  /// Advances one core cycle.
  void step();

  /// End-of-run bookkeeping: flushes open rows, closes power accounting and
  /// the final telemetry window on every channel. run() calls it; a caller
  /// driving step() itself calls it once after its last step.
  void finalize();

  bool finished() const;

  // --- Results ---
  Cycle core_cycles() const { return core_cycle_; }
  Cycle mem_cycles() const { return divider_.slow_cycles(); }
  std::uint64_t instructions() const;
  double ipc() const {
    return core_cycle_ == 0
               ? 0.0
               : static_cast<double>(instructions()) / static_cast<double>(core_cycle_);
  }

  // --- Per-tenant results (single-workload runs have one tenant, id 0) ---
  unsigned num_tenants() const { return workload_.num_tenants(); }
  std::uint64_t tenant_instructions(TenantId t) const;
  /// Core cycle the tenant's last warp retired, max over SMs (0 if none
  /// finished yet).
  Cycle tenant_finish_cycle(TenantId t) const;

  unsigned num_channels() const { return static_cast<unsigned>(partitions_.size()); }
  const MemoryController& controller(ChannelId ch) const { return *partitions_[ch].mc; }
  const cache::Cache& l2(ChannelId ch) const { return partitions_[ch].l2; }
  /// The channel's lazy scheduler, or nullptr if another policy runs there.
  const core::LazyScheduler* lazy(ChannelId ch) const { return partitions_[ch].lazy; }
  const core::ValuePredictor& vp(ChannelId ch) const { return *partitions_[ch].vp; }
  const FunctionalMemory& fmem() const { return fmem_; }
  const AddressMapper& mapper() const { return mapper_; }
  const Sm& sm(SmId id) const { return *sms_[id]; }
  /// The SM -> partition switch (its input queues are the SMs' crossbar slots).
  const icnt::Crossbar& request_crossbar() const { return req_xbar_; }
  unsigned num_sms() const { return static_cast<unsigned>(sms_.size()); }
  const GpuConfig& config() const { return cfg_; }

  /// Registers every component's counters/gauges/histograms into `hub`
  /// under hierarchical names ("dram.ch0.activations", "core.ch1.dms.delay",
  /// ...). The hub must not outlive this GpuTop.
  void register_stats(telemetry::TelemetryHub& hub) const;

  /// Wall-clock attribution of one run(), collected only while the
  /// SelfProfiler is armed (all zero otherwise). The hot loops carry no RAII
  /// zones; instead the wheel reads the clock at span boundaries and samples
  /// one core step in 64, so arming stays within the <=5% overhead budget:
  ///   serial_seconds     = run wall not spent in memory-only spans (SMs +
  ///                        crossbars + partition front-ends);
  ///   mem_serial_seconds = memory-only spans (run_mem_span).
  /// The sm/icnt/partition sample sums decompose the sampled steps' wall
  /// time; scale by 64 (or normalize by step_samples) for shares. The SM
  /// slice is the awake SMs' ticks and sleep checks; the partition slice the
  /// request crossbar and the partitions (controllers included); the icnt
  /// slice the reply crossbar, reply delivery and the SM wake bookkeeping.
  struct WheelSelfStats {
    double run_wall_seconds = 0.0;
    double serial_seconds = 0.0;
    double mem_serial_seconds = 0.0;
    std::uint64_t serial_spans = 0;
    std::uint64_t step_samples = 0;
    double sm_sample_seconds = 0.0;
    double icnt_sample_seconds = 0.0;
    double partition_sample_seconds = 0.0;
  };
  WheelSelfStats self_stats() const;

  /// Deterministic work counts of step(), kept out of every report so report
  /// bytes do not depend on them. Parked ticks are credited when an SM wakes
  /// (or at finalize()), so sm_ticks_slept lags while SMs sleep. The last
  /// two are summed over the controllers.
  struct WorkCounts {
    std::uint64_t sm_ticks = 0;                 ///< Sm::tick() calls.
    std::uint64_t sm_ticks_slept = 0;           ///< Parked ticks skipped.
    std::uint64_t mc_ticks = 0;                 ///< Controller ticks run in step().
    std::uint64_t mc_ticks_skipped = 0;         ///< Idle memory cycles step() replayed.
    std::uint64_t backlog_retries = 0;          ///< Stalled request packets retried.
    std::uint64_t backlog_retries_skipped = 0;  ///< Retries skipped on an unchanged key.
    std::uint64_t request_packets = 0;          ///< Request packets the partitions accepted.
    std::uint64_t policy_decides = 0;           ///< Scheduler::decide() calls.
    std::uint64_t decisions_reused = 0;         ///< Cached stable answers reused.
  };
  WorkCounts work_counts() const;

  /// True while SM `id` is out of step()'s tick set: its next tick would be
  /// parked (Sm::parked), so step() skips its ticks until a reply, a grant
  /// from its request-crossbar input, or Sm::park_until() wakes it.
  bool sm_sleeping(SmId id) const { return ((awake_[id / 64] >> (id % 64)) & 1) == 0; }

 private:
  struct PendingReply {
    Cycle ready = 0;
    icnt::Packet packet;
  };

  /// The inputs of a stalled request packet's verdict, reduced to counts
  /// that move whenever any of them changes: controller queue size, miss
  /// table size, deferred-enqueue queue size and L2 fills.
  struct BacklogKey {
    std::size_t queue = 0;
    std::size_t waiting = 0;
    std::size_t pending_mc = 0;
    std::uint64_t fills = 0;
    bool operator==(const BacklogKey&) const = default;
  };

  struct Partition {
    cache::Cache l2;
    std::unique_ptr<MemoryController> mc;
    core::LazyScheduler* lazy = nullptr;  ///< Borrowed from mc's scheduler.
    std::unique_ptr<core::ValuePredictor> vp;

    /// L2 miss table: line -> packets waiting for the refill, merged
    /// without limit (the table's entry count is the only cap).
    cache::MshrTable<icnt::Packet> waiting;
    std::deque<icnt::Packet> input_backlog;   ///< Stalled request packets.
    std::deque<MemRequest> pending_mc;        ///< Waiting for MC queue space.
    std::deque<PendingReply> pending_replies; ///< Waiting for reply crossbar.
    /// State at the backlog head's last (failed) attempt.
    BacklogKey stalled_at;
    bool ams_ready = false;

    explicit Partition(const CacheGeometry& geo)
        : l2(geo), waiting(geo.mshr_entries, cache::kUnlimitedMerges) {}
  };

  void partition_tick(Partition& p, unsigned idx, bool mem_ticked);
  void handle_request_packet(Partition& p, const icnt::Packet& pkt, bool& stalled);
  static BacklogKey backlog_key(const Partition& p);

  // --- Sleeping SMs (see sm_sleeping()) ---

  /// Takes `s` out of the tick set after its tick this cycle.
  void sleep_sm(SmId s);
  /// Returns `s` to the tick set, its first real tick at `first_tick`, and
  /// credits the parked ticks it skipped. No-op for an awake SM.
  void wake_sm(SmId s, Cycle first_tick);
  /// End-of-step wakes for the next cycle: sleeping SMs the request crossbar
  /// granted this cycle, and those whose park_until() falls due.
  void wake_sms(Cycle first_tick);

  // --- Event-wheel driver (see run()) ---

  /// First future core cycle at which step() could do serial-side work,
  /// assuming the memory side stays quiet (cross-domain events are bounded
  /// separately by MemoryController::next_cross_event). Conservative: any
  /// in-flight crossbar packet, backlog, or due reply degrades to now + 1.
  /// A sleeping SM needs no horizon of its own: it sleeps only while its
  /// request-crossbar input is full, which already pins the answer to
  /// now + 1, so no fast-forward ever skips a sleeping SM's wake.
  Cycle serial_next_event() const;

  /// Event-wheel main loop.
  void run_wheel(Cycle max_core_cycles);

  /// Advances every controller over memory cycles (m0, m1] in lockstep
  /// (cycle-major, channel order), so telemetry is emitted in the order a
  /// per-cycle step() loop emits it. Controllers skip shared quiet spans via
  /// the global minimum of their next_event horizons.
  void run_mem_span(Cycle m0, Cycle m1);

  /// Emits one LAZYDRAM_HEARTBEAT status line when the period elapsed.
  /// Called from coarse loop boundaries only (every 1024th step / each
  /// fast-forward), never when cfg_.heartbeat_seconds == 0.
  void maybe_heartbeat();

  GpuConfig cfg_;
  const workloads::Workload& workload_;
  AddressMapper mapper_;
  FunctionalMemory fmem_;

  std::vector<std::unique_ptr<Sm>> sms_;
  icnt::Crossbar req_xbar_;
  icnt::Crossbar reply_xbar_;
  std::vector<Partition> partitions_;

  /// One bit per SM, ceil(num_sms/64) words: set while the SM is awake.
  std::vector<std::uint64_t> awake_;
  std::vector<Cycle> sleep_from_;  ///< Per SM: first cycle of its current sleep.
  /// No sleeping SM's park_until() is earlier (may be stale-early).
  Cycle next_sm_wake_ = kNeverCycle;
  WorkCounts work_;

  ClockDivider divider_;
  Cycle core_cycle_ = 0;
  Cycle mem_now_ = 0;
  RequestId next_request_id_ = 1;
  telemetry::Tracer* tracer_ = nullptr;  ///< Borrowed; null when detached.
  /// Borrowed lifecycle collector; null when detached. Observational only.
  telemetry::LifecycleCollector* lifecycle_ = nullptr;
  /// Per-channel checkers, borrowed from the CheckContext (empty when
  /// checking is off; used only for stats registration).
  std::vector<check::ProtocolChecker*> checkers_;

  // Self-observability state (inert unless the SelfProfiler is armed /
  // cfg_.heartbeat_seconds > 0). Strictly passive: never read by simulation.
  bool self_enabled_ = false;  ///< SelfProfiler::enabled(), cached at run().
  WheelSelfStats self_stats_;
  std::chrono::steady_clock::time_point run_start_wall_;
  std::chrono::steady_clock::time_point next_heartbeat_;
  std::chrono::steady_clock::time_point last_heartbeat_;
  Cycle last_heartbeat_core_ = 0;

  /// Caps on per-core-cycle partition work (ports).
  static constexpr unsigned kInputsPerCycle = 2;
  static constexpr unsigned kRepliesPerCycle = 4;
  static constexpr std::size_t kPendingMcCap = 64;
};

}  // namespace lazydram::gpu
