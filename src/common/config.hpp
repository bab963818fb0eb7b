// Simulated-GPU configuration. Defaults reproduce Table I of the paper
// ("Key configuration parameters of the simulated GPU") plus the lazy-
// scheduler parameters fixed in Section IV (window sizes, thresholds, ranges).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lazydram {

/// GDDR5 command-timing parameters in memory-clock cycles (Table I, Hynix
/// GDDR5 H5GQ1H24AFR). tWL/tWR are not listed in Table I but are required for
/// a legal command engine; values follow the same Hynix datasheet family.
struct DramTiming {
  unsigned tCL = 12;    ///< CAS (read) latency: RD -> first data beat.
  unsigned tRP = 12;    ///< Precharge period: PRE -> ACT of same bank.
  unsigned tRC = 40;    ///< Row cycle: ACT -> ACT of same bank.
  unsigned tRAS = 28;   ///< Row active: ACT -> PRE of same bank.
  unsigned tCCD = 2;    ///< CAS -> CAS, same bank group.
  unsigned tRCD = 12;   ///< ACT -> first RD/WR of same bank.
  unsigned tRRD = 6;    ///< ACT -> ACT, different banks of same channel.
  unsigned tCDLR = 5;   ///< Last write data -> RD of same bank (write-to-read).
  unsigned tWL = 4;     ///< Write latency: WR -> first data beat.
  unsigned tWR = 12;    ///< Write recovery: last write data -> PRE of same bank.
  unsigned tBURST = 4;  ///< Data-bus occupancy of one 128B transaction.
  /// Four-activate window: at most 4 ACTs per channel within any tFAW
  /// cycles. Not listed in Table I, so it defaults to 0 (disabled) to keep
  /// reproduced results bit-identical; set it to model current-limited parts.
  unsigned tFAW = 0;
};

/// Event energies in nanojoules. Row energy (the quantity the paper reports)
/// is the ACT + restore + PRE cost paid once per row activation; RD/WR access
/// energy is paid per 128B column access. Absolute values are representative
/// GDDR5 numbers (GPUWattch/Hynix scale); all paper results are normalized,
/// so only the *ratios* influence reproduced shapes.
struct EnergyParams {
  double act_nj = 1.2;        ///< Row activation (wordline + sensing).
  double restore_nj = 1.0;    ///< Restoring row buffer contents to the cells.
  double pre_nj = 0.8;        ///< Precharge of the bank's bitlines.
  double rd_access_nj = 1.0;  ///< One 128B read column access + burst I/O.
  double wr_access_nj = 1.1;  ///< One 128B write column access + burst I/O.

  // --- State-based accounting (PowerAccountant) ---
  // Background power is charged per bank-cycle over exact state residencies;
  // refresh is one all-bank burst every tREFI. Representative GDDR5 scale
  // (IDD-derived ballpark); as with the event energies above, only the
  // ratios influence reproduced shapes.
  double act_stby_nj_per_cycle = 0.010;  ///< Per bank-cycle with a row open.
  double pre_stby_nj_per_cycle = 0.006;  ///< Per bank-cycle precharged.
  double ref_per_bank_nj = 2.5;          ///< One refresh burst of one bank.
  /// Memory cycles between refresh bursts (~3.9 us at 924 MHz); 0 disables
  /// refresh energy. Energy-only: no REF command exists in the timing model.
  unsigned trefi_cycles = 3600;

  /// Fraction of total memory-system energy that is row energy for the HBM
  /// projection reported in Section V ("Effect on Memory Energy"). The
  /// analytic constants below are the paper's assumed shares; the HBM bench
  /// additionally *derives* shares from the measured GDDR5 breakdown via the
  /// component scale factors and reports the delta.
  double hbm1_row_share = 0.50;
  double hbm2_row_share = 0.25;

  /// Per-component energy scale of HBM relative to GDDR5 (shorter, wider,
  /// lower-voltage I/O shrinks access energy most; background shrinks less;
  /// HBM1 keeps GDDR5's activation granularity so its row energy scales ~1,
  /// while HBM2's pseudo-channel mode halves the activated page and drops
  /// the array voltage, cutting energy per ACT). Used only to derive
  /// measured HBM row shares in bench_hbm_projection.
  double hbm1_row_scale = 1.0;
  double hbm1_access_scale = 0.35;
  double hbm1_background_scale = 0.80;
  double hbm2_row_scale = 0.25;
  double hbm2_access_scale = 0.18;
  double hbm2_background_scale = 0.70;

  double row_energy_per_act_nj() const { return act_nj + restore_nj + pre_nj; }
};

/// Per-tenant error-tolerance budgets for multi-tenant runs. Defaults mean
/// "inherit the global knob", so a vector of default-constructed TenantQos
/// behaves exactly like the legacy global budgets.
struct TenantQos {
  /// AMS prediction-coverage cap for this tenant's approximable reads;
  /// negative inherits SchemeParams::coverage_cap.
  double coverage_cap = -1.0;
  /// Upper bound on the DMS aging delay applied to this tenant's requests;
  /// kNeverCycle inherits the scheduler's (possibly dynamic) global delay.
  Cycle dms_delay_cap = kNeverCycle;
};

/// Parameters of the lazy memory scheduler (Section IV).
struct SchemeParams {
  // --- DMS ---
  Cycle static_delay = 128;        ///< Static-DMS: DMS(128).
  Cycle min_delay = 0;             ///< Dyn-DMS lower bound.
  Cycle max_delay = 2048;          ///< Dyn-DMS upper bound.
  Cycle delay_step = 128;          ///< Dyn-DMS additive step.
  Cycle profile_window = 4096;     ///< Window size in memory cycles.
  unsigned windows_per_restart = 32;  ///< Dyn-DMS restarts its search each N windows.
  double bwutil_threshold = 0.95;  ///< Keep BWUTIL >= 95% of sampled baseline.

  // --- AMS ---
  unsigned static_th_rbl = 8;      ///< Static-AMS: AMS(8).
  unsigned min_th_rbl = 1;
  unsigned max_th_rbl = 8;
  double coverage_cap = 0.10;      ///< User-defined prediction coverage (10%).

  // --- VP unit ---
  unsigned vp_set_radius = 4;      ///< Search +/- R nearby L2 sets.
  bool vp_zero_fill = false;       ///< Ablation: predict zero lines instead.
  std::uint64_t l2_warmup_fills = 512;  ///< AMS disabled until this many L2 fills.

  // --- Multi-tenancy ---
  /// Per-tenant error-tolerance budgets, indexed by TenantId. Empty (the
  /// default) keeps the legacy single-tenant semantics: one global coverage
  /// cap, one global DMS delay. When non-empty the AMS coverage cap and the
  /// DMS aging delay are partitioned per client (the protocol checker and
  /// the golden model enforce/honor the same per-tenant budgets).
  std::vector<TenantQos> tenant_qos;
};

/// Per-policy knobs for the scheduler plugins behind the SchedulerRegistry
/// (src/core/scheduler_registry.*). `name` selects the policy; only the
/// block matching the selected policy is read, the rest is inert. Parsed
/// from $LAZYDRAM_POLICY ("name[:key=value,...]") and bench CLI flags.
struct PolicyParams {
  /// Registry name of the scheduling policy: "lazy" (the paper's
  /// DMS/AMS-capable scheduler, configured by a SchemeSpec), "frfcfs",
  /// "fcfs", "bliss", "batch-rr" or "autotune". Empty selects "lazy" so
  /// existing configs keep their meaning.
  std::string name;

  // --- BLISS (blacklisting for fairness; keys: threshold, interval) ---
  /// Consecutive serves from one warp group (SM) before it is blacklisted.
  unsigned bliss_threshold = 4;
  /// Blacklist clearing interval in memory cycles.
  Cycle bliss_clear_interval = 8192;

  // --- Batch-cap RR (key: cap) ---
  /// Consecutive row hits one bank may stream before the policy rotates to
  /// the oldest request of another pending row.
  unsigned rr_cap = 4;

  // --- Hill-climbing delay autotuner (keys: min, max, step, window, tol) ---
  Cycle tune_min_delay = 0;      ///< Gating-delay search lower bound.
  Cycle tune_max_delay = 2048;   ///< Gating-delay search upper bound.
  Cycle tune_step = 128;         ///< Initial hill-climb step (adapts 8x both ways).
  Cycle tune_window = 4096;      ///< Measurement window in memory cycles.
  double tune_tolerance = 0.95;  ///< Keep BWUTIL >= this fraction of the best seen.
};

/// Cache geometry.
struct CacheGeometry {
  std::uint32_t size_bytes = 0;
  std::uint32_t ways = 0;
  std::uint32_t line_bytes = kLineBytes;
  std::uint32_t mshr_entries = 32;

  std::uint32_t num_sets() const { return size_bytes / (ways * line_bytes); }
};

/// Full simulated-GPU configuration (Table I defaults).
struct GpuConfig {
  // SM features.
  unsigned core_clock_mhz = 1400;
  unsigned num_sms = 30;
  unsigned simd_width = 32;
  unsigned max_warps_per_sm = 48;
  unsigned warp_size = 32;

  // Caches. L1D 16KB 4-way per SM; L2 128KB 8-way per memory channel.
  CacheGeometry l1{16 * 1024, 4, kLineBytes, 64};
  CacheGeometry l2{128 * 1024, 8, kLineBytes, 128};
  unsigned l1_hit_latency = 24;  ///< Core cycles from L1 hit to operand ready.
  unsigned l2_hit_latency = 48;  ///< Core cycles of L2 lookup/service.

  // Memory model.
  unsigned mem_clock_mhz = 924;
  unsigned num_channels = 6;
  unsigned banks_per_channel = 16;
  unsigned bank_groups_per_channel = 4;
  unsigned row_bytes = 2048;
  unsigned channel_interleave_bytes = 256;  ///< Linear space interleaved in 256B chunks.
  unsigned pending_queue_size = 128;
  DramTiming timing{};
  EnergyParams energy{};

  // Interconnect: one crossbar per direction, fixed traversal latency in core
  // cycles plus per-port single-flit bandwidth per cycle.
  unsigned icnt_latency = 8;

  SchemeParams scheme{};

  /// Scheduler-policy selection + per-policy knobs (see PolicyParams). The
  /// SchedulerRegistry is the single construction path for all of them.
  PolicyParams policy{};

  /// Enables the per-bank state-residency power accountant (src/dram/power).
  /// Strictly passive — results are bit-identical either way (proven by
  /// PowerAccounting.OffIsBitIdentical); off only removes the O(1)-per-
  /// command bookkeeping and the energy-breakdown outputs.
  /// LAZYDRAM_POWER=off (or =0) disables it for A/B comparison.
  bool power_accounting = true;

  /// Arms the wall-clock self-profiler (telemetry/selfprof) for this run:
  /// zone trees, the core-side/memory-side wall split, and the
  /// self_profile block in the JSON run report. Strictly passive — results
  /// and trace output are byte-identical either way (proven by
  /// FlightRecorder.OnIsBitIdentical); the overhead is gated at 5% by
  /// bench_micro --perf. LAZYDRAM_SELFPROF=1 (or --self-profile on the
  /// figure benches) enables it for full-simulation runs.
  bool self_profile = false;

  /// Emits a run-health status line to stderr every this-many wall-clock
  /// seconds (sim cycles, Mcyc/s, warps done, ETA, queue depth). 0
  /// disables. LAZYDRAM_HEARTBEAT=seconds (or --heartbeat) selects it for
  /// full-simulation runs; both accept finite periods up to one year.
  double heartbeat_seconds = 0.0;

  std::uint64_t seed = 0x1aE5D8A3u;

  /// Aborts (LD_ASSERT) if any derived quantity is inconsistent, e.g. cache
  /// geometry not power-of-two or interleave smaller than a line.
  void validate() const;

  /// Human-readable Table-I-style listing, one "key: value" row per line.
  std::vector<std::pair<std::string, std::string>> describe() const;
};

}  // namespace lazydram
