// Request-lifecycle collector: stamps every sampled memory read request at
// each pipeline boundary (SM issue -> icnt inject/eject -> L2 miss -> pending
// queue -> DMS gate intervals -> CAS -> data return -> warp wakeup; AMS drops
// get a VP-served terminal phase) and accumulates per-phase latency
// histograms. Finished lifecycles are forwarded to the run's TraceSink
// (JSONL "req" lines, Chrome async spans).
//
// Discipline matches the rest of the telemetry layer: components hold a
// nullable LifecycleCollector* and a disabled collector costs one pointer
// compare per hook site; nothing here ever feeds back into simulation state
// (RunMetrics are bit-identical with the collector on or off).
//
// One wiring: on_request_created() opens a record when an L2 miss allocates
// the request — the 1/N sampling decision is made here — and
// on_warp_wakeup() closes it. Controller and scheduler hooks only fill in
// records that already exist. A test driving a MemoryController directly
// opens each read with on_request_created() and closes it when it pops the
// reply.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/request.hpp"
#include "telemetry/trace.hpp"

namespace lazydram::telemetry {

/// The per-phase latency attribution. Memory-domain phases (queue_wait,
/// dms_gated, service, drop_wait, drop_gated, vp_serve) are in memory
/// cycles; core-domain phases (icnt_request, partition_wait, reply_return)
/// are in core cycles.
enum class ReqPhase : std::uint8_t {
  kIcntRequest,    ///< Crossbar inject -> partition eject (core cycles).
  kPartitionWait,  ///< Eject -> pending-queue enqueue, incl. input backlog (core).
  kQueueWait,      ///< Enqueue -> CAS minus gated cycles (mem; served reads).
  kDmsGated,       ///< Total DMS age-gated cycles (mem; served reads).
  kService,        ///< CAS -> data-burst completion (mem; served reads).
  kReplyReturn,    ///< Reply pop -> first packet reaching the SM (core).
  kDropWait,       ///< Enqueue -> AMS drop minus gated cycles (mem; drops).
  kDropGated,      ///< Total gated cycles of a dropped read (mem).
  kVpServe,        ///< Zero-width VP-served terminal phase (mem; drops).
};
constexpr unsigned kNumReqPhases = 9;

/// Short stable phase name ("queue_wait", ...) used in JSON and tables.
const char* req_phase_name(ReqPhase phase);

/// Detached per-phase summary of one run (JSON report / RunTelemetry).
struct LifecycleSummary {
  std::uint64_t sample_every = 1;
  std::uint64_t sampled = 0;  ///< Lifecycles completed (served + dropped).
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mshr_merges = 0;  ///< Packets merged into sampled requests.

  struct PhaseStats {
    const char* phase = "";
    std::uint64_t count = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  };
  std::vector<PhaseStats> phases;  ///< Indexed by ReqPhase, all 9 present.
};

class LifecycleCollector {
 public:
  /// `tracer` (nullable) receives each finished lifecycle; `sample_every`
  /// keeps 1 request in N (N >= 1; the first of every stride is kept, so
  /// N = 1 records every read request).
  explicit LifecycleCollector(Tracer* tracer, std::uint64_t sample_every = 1);

  /// Keep finished records in memory (tests audit span nesting). Off by
  /// default: a full-rate run would otherwise retain every request.
  void set_retain(bool retain) { retain_ = retain; }

  // --- GpuTop-side hooks (core clock domain) ---

  /// An L2 read miss allocated a MemRequest: opens the record (this is also
  /// where the sampling decision is made).
  void on_request_created(RequestId id, Addr line, Cycle inject_core,
                          Cycle eject_core, Cycle now_core);
  /// A later packet for the same line merged into the L2 MSHR entry.
  void on_mshr_merge(Addr line);
  /// The partition popped this request's DRAM/VP reply.
  void on_reply_pop(RequestId id, Cycle now_core);
  /// The first reply packet reached the source SM; closes the record.
  void on_warp_wakeup(RequestId id, Cycle now_core);

  // --- Controller/scheduler-side hooks (memory clock domain) ---

  /// The request entered the pending queue. Only reads are recorded;
  /// callers may pass writes.
  void on_enqueue(const MemRequest& req, ChannelId channel, Cycle now_mem);
  // The four hooks below are the ones fired from inside a memory
  // controller's tick(). None of them opens or closes a record (creation and
  // the warp-wakeup close are core-domain).
  /// One DMS age-gate interval [begin, end) of this request closed.
  void on_gate_end(RequestId id, Cycle begin_mem, Cycle end_mem);
  /// The request's RD command issued.
  void on_cas(RequestId id, Cycle now_mem);
  /// The request's data burst completed.
  void on_data_return(RequestId id, Cycle done_mem);
  /// AMS dropped the request.
  void on_drop(RequestId id, Cycle now_mem);

  // --- Results ---

  std::uint64_t sample_every() const { return sample_every_; }
  std::uint64_t sampled() const { return served_ + dropped_; }
  std::uint64_t served() const { return served_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t mshr_merges() const { return mshr_merges_; }

  const Histogram& phase_histogram(ReqPhase phase) const {
    return phase_hist_[static_cast<unsigned>(phase)];
  }

  /// Finished records retained under set_retain(true).
  const std::vector<RequestLifecycle>& completed() const { return completed_; }

  /// Records still open (all requests should close by the end of a run).
  std::size_t live() const { return live_.size(); }

  LifecycleSummary summary() const;

 private:
  void finalize(RequestLifecycle& rec);

  Tracer* tracer_;
  std::uint64_t sample_every_;
  bool retain_ = false;

  std::uint64_t seq_ = 0;  ///< Read requests seen (sampling stride counter).
  std::uint64_t served_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t mshr_merges_ = 0;

  std::unordered_map<RequestId, RequestLifecycle> live_;
  std::unordered_map<Addr, RequestId> by_line_;  ///< MSHR-merge lookup.
  std::vector<RequestLifecycle> completed_;

  /// Latency caps chosen so DMS-delayed tails (delays up to a few thousand
  /// cycles) stay in-range; overflowed samples keep their exact mean (the
  /// histogram's weighted sum uses the true key).
  Histogram phase_hist_[kNumReqPhases]{
      Histogram{4096}, Histogram{4096}, Histogram{4096},
      Histogram{4096}, Histogram{4096}, Histogram{4096},
      Histogram{4096}, Histogram{4096}, Histogram{4096}};
};

}  // namespace lazydram::telemetry
