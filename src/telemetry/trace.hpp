// Event tracing for the lazy memory scheduler (the observability layer's
// "flight recorder"). Components emit typed events through a Tracer; a
// pluggable TraceSink decides what happens to them. The default sink is
// null: a disabled Tracer costs one pointer compare per emission site, so
// tracing can stay compiled into the hot path.
//
// Event taxonomy (each stamped with memory cycle + channel, bank where
// meaningful):
//   kRowActivate        - the controller issued an ACT (row opens).
//   kRowGroupDrop       - AMS removed one read of a draining row group.
//   kVpPrediction       - the VP unit synthesized a line for a dropped read.
//   kDmsStallBegin/End  - a bank's row-miss candidate became / stopped being
//                         age-gated by the DMS delay.
//   kDmsDelayChange     - Dyn-DMS moved the delay at a window boundary.
//   kAmsThresholdChange - Dyn-AMS moved Th_RBL at a window boundary.
//   kCheckViolation     - the protocol checker flagged a violation (the
//                         numeric code is check::ViolationKind).
//   (WindowSample records from the windowed sampler share the same sinks.)
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lazydram::telemetry {

enum class EventKind : std::uint8_t {
  kRowActivate,
  kRowGroupDrop,
  kVpPrediction,
  kDmsStallBegin,
  kDmsStallEnd,
  kDmsDelayChange,
  kAmsThresholdChange,
  kCheckViolation,
};

/// Short stable name used as the JSONL "type" field.
const char* event_kind_name(EventKind kind);

/// One traced event. The generic payload fields a/b/f are interpreted per
/// kind (see the emit helpers on Tracer for the exact meaning).
struct TraceEvent {
  EventKind kind = EventKind::kRowActivate;
  Cycle cycle = 0;            ///< Memory-domain cycle.
  ChannelId channel = 0;
  std::int32_t bank = -1;     ///< -1 when the event has no bank scope.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double f = 0.0;
};

/// One DMS age-gate interval of a request, in memory cycles. [begin, end):
/// the request was the bank's gated candidate from `begin` until the decide
/// (or serve/drop closeout) at `end`.
struct GateInterval {
  Cycle begin = 0;
  Cycle end = 0;
};

/// End-to-end lifecycle of one sampled memory read request: every pipeline
/// boundary it crossed, in its clock domain. Core-domain stamps are zero for
/// requests driven straight into a MemoryController (bench harnesses, unit
/// tests) and for phases a request never reached. Memory-domain stamps are
/// always present once the request was enqueued.
///
/// Served reads partition exactly: (cas - enqueue - gated) + gated +
/// (done - cas) == done - enqueue, the controller's read-latency sample.
/// AMS-dropped reads end at `drop_mem` with a zero-width VP-served terminal
/// phase instead of bank service.
struct RequestLifecycle {
  RequestId id = 0;
  Addr line_addr = 0;
  ChannelId channel = 0;
  std::int32_t bank = -1;
  TenantId tenant = 0;         ///< Owning client (0 in single-tenant runs).
  bool dropped = false;        ///< AMS drop (VP-served) instead of DRAM service.
  std::uint32_t mshr_merges = 0;  ///< L2-MSHR packets merged beyond the primary.

  // Core-domain stamps (0 = never reached / standalone controller mode).
  Cycle inject_core = 0;   ///< SM pushed the primary packet into the crossbar.
  Cycle eject_core = 0;    ///< Partition popped the packet from the crossbar.
  Cycle enqueue_core = 0;  ///< L2 miss allocated; request created.
  Cycle reply_core = 0;    ///< Partition popped the DRAM/VP reply.
  Cycle wakeup_core = 0;   ///< First reply packet reached the source SM.

  // Memory-domain stamps.
  Cycle enqueue_mem = 0;  ///< Entered the controller's pending queue.
  Cycle cas_mem = 0;      ///< RD issued (served requests only).
  Cycle done_mem = 0;     ///< Data burst completed (served requests only).
  Cycle drop_mem = 0;     ///< AMS removed the request (dropped only).
  Cycle gated_cycles = 0; ///< Total DMS age-gated cycles (sum over `gates`).
  std::vector<GateInterval> gates;  ///< Individual gate intervals, in order.
};

/// Per-bank slice of one profiling window (delta counters; see
/// WindowSampler::set_bank_probe). Renders scheduler fairness — bank-level
/// activation/hit balance, the drop round-robin, DMS stall skew — as a
/// heatmap over (window, bank).
struct BankWindowSample {
  std::uint64_t activations = 0;
  std::uint64_t column_accesses = 0;
  std::uint64_t row_hits = 0;  ///< column_accesses beyond each activation's first.
  std::uint64_t drops = 0;
  std::uint64_t dms_stall_cycles = 0;  ///< Cycles the bank's candidate sat age-gated.
  std::uint64_t active_cycles = 0;  ///< Cycles a row was open (power accountant).
  double energy_nj = 0.0;           ///< Total bank energy this window, all components.
};

/// Per-tenant slice of one profiling window (delta counters; see
/// WindowSampler::set_tenant_probe). Renders each client's share of a
/// channel's traffic and drop budget over time.
struct TenantWindowSample {
  std::uint64_t reads_received = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t drops = 0;
};

/// One closed profiling window of a channel (see WindowSampler). Counters
/// are deltas over the window; *_sum fields are per-tick accumulations whose
/// grand totals reproduce the end-of-run time-weighted averages exactly.
struct WindowSample {
  ChannelId channel = 0;
  std::uint64_t index = 0;     ///< Window ordinal within the channel.
  Cycle start_cycle = 0;       ///< First memory cycle of the window.
  Cycle end_cycle = 0;         ///< One past the last memory cycle.
  std::uint64_t ticks = 0;     ///< Memory cycles observed (== window size except the final partial window).

  std::uint64_t bus_busy_cycles = 0;  ///< Data-bus busy cycles this window.
  double bwutil = 0.0;                ///< bus_busy_cycles / ticks.

  std::uint64_t delay_sum = 0;  ///< Sum of the active DMS delay over ticks.
  double avg_delay = 0.0;
  std::uint64_t th_rbl_sum = 0; ///< Sum of the active Th_RBL over ticks.
  double avg_th_rbl = 0.0;

  double queue_occupancy = 0.0; ///< Mean pending-queue size over the window.

  std::uint64_t activations = 0;
  std::uint64_t row_hits = 0;   ///< Column accesses beyond each row's first.
  std::uint64_t column_reads = 0;
  std::uint64_t column_writes = 0;
  std::uint64_t drops = 0;
  std::uint64_t reads_received = 0;
  double coverage = 0.0;        ///< drops / reads_received within the window.

  /// Total DRAM energy spent this window. With the power accountant on this
  /// is the state-based total and the four components below decompose it;
  /// with accounting off it is row + access and background/refresh are zero.
  double energy_nj = 0.0;
  double energy_row_nj = 0.0;
  double energy_access_nj = 0.0;
  double energy_background_nj = 0.0;
  double energy_refresh_nj = 0.0;
  double avg_power_w = 0.0;  ///< energy_nj / ticks, converted to watts.

  /// Per-bank columns; empty unless a bank probe was attached to the sampler.
  std::vector<BankWindowSample> banks;
  /// Per-tenant columns; empty unless a tenant probe was attached.
  std::vector<TenantWindowSample> tenants;
};

/// Receives traced events. Implementations must not mutate simulator state.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void on_window(const WindowSample& window) = 0;
  /// A sampled request completed its lifecycle (served, or dropped to the
  /// VP). Default ignores it so event-only sinks need no change.
  virtual void on_lifecycle(const RequestLifecycle& request) { (void)request; }
};

/// Appends one JSON object per event/window to a file (JSON Lines). On open
/// failure the sink reports !ok(); callers should warn and fall back to no
/// tracing rather than abort the run.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  bool ok() const { return out_ != nullptr; }
  const std::string& path() const { return path_; }

  void on_event(const TraceEvent& event) override;
  void on_window(const WindowSample& window) override;
  void on_lifecycle(const RequestLifecycle& request) override;

 private:
  std::string path_;
  std::FILE* out_ = nullptr;
};

class FlightRecorder;

/// The emission facade held by instrumented components. With neither a sink
/// nor a flight recorder attached every emit helper is a single branch; no
/// event is constructed.
class Tracer {
 public:
  void set_sink(TraceSink* sink) { sink_ = sink; }
  /// enabled() deliberately ignores the flight recorder: it gates the
  /// expensive trace machinery (sink construction), while flight-only
  /// recording stays on the cheap direct path.
  bool enabled() const { return sink_ != nullptr; }

  /// Attaches the crash flight recorder. Events delivered through emit()
  /// are mirrored into its per-channel rings; windows/lifecycles are not
  /// (the rings hold discrete protocol events, the crash-relevant context).
  void set_flight(FlightRecorder* flight) { flight_ = flight; }
  FlightRecorder* flight() const { return flight_; }

  void emit(const TraceEvent& event);  // out-of-line: needs FlightRecorder

  void emit_window(const WindowSample& window) {
    if (sink_ != nullptr) sink_->on_window(window);
  }
  void emit_lifecycle(const RequestLifecycle& request) {
    if (sink_ != nullptr) sink_->on_lifecycle(request);
  }

  // --- Typed emit helpers (document the a/b/f payload per kind) ---

  void row_activate(Cycle cycle, ChannelId ch, BankId bank, RowId row) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kRowActivate, cycle, ch, static_cast<std::int32_t>(bank), row, 0, 0.0});
  }

  void row_group_drop(Cycle cycle, ChannelId ch, BankId bank, RowId row, RequestId req) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kRowGroupDrop, cycle, ch, static_cast<std::int32_t>(bank), row, req, 0.0});
  }

  void vp_prediction(Cycle cycle, ChannelId ch, Addr line, bool donor_found, Addr donor) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kVpPrediction, cycle, ch, -1, line, donor, donor_found ? 1.0 : 0.0});
  }

  void dms_stall_begin(Cycle cycle, ChannelId ch, BankId bank, RequestId req, Cycle delay) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kDmsStallBegin, cycle, ch, static_cast<std::int32_t>(bank), req, delay, 0.0});
  }

  void dms_stall_end(Cycle cycle, ChannelId ch, BankId bank) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kDmsStallEnd, cycle, ch, static_cast<std::int32_t>(bank), 0, 0, 0.0});
  }

  void dms_delay_change(Cycle cycle, ChannelId ch, Cycle from, Cycle to, double window_bwutil) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kDmsDelayChange, cycle, ch, -1, to, from, window_bwutil});
  }

  void ams_threshold_change(Cycle cycle, ChannelId ch, unsigned from, unsigned to,
                            double window_coverage) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kAmsThresholdChange, cycle, ch, -1, to, from, window_coverage});
  }

  void check_violation(Cycle cycle, ChannelId ch, std::int32_t bank, unsigned code) {
    if (sink_ == nullptr && flight_ == nullptr) return;
    emit({EventKind::kCheckViolation, cycle, ch, bank, code, 0, 0.0});
  }

 private:
  TraceSink* sink_ = nullptr;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace lazydram::telemetry
