// Self-observability: a wall-clock zone profiler for the simulator itself
// (where does *host* time go — not simulated time, which the tracer covers).
//
// Design constraints, in order:
//  * Strictly passive: arming the profiler must never change simulation
//    results or trace/report bytes (FlightRecorder.OnIsBitIdentical pins it).
//  * Cheap enough to leave compiled in: a disabled zone is one relaxed
//    atomic load; an enabled zone is two steady_clock reads plus a short
//    child-list walk in a per-thread tree. Hot per-cycle loops do NOT get
//    zones — GpuTop attributes them with span-boundary clock reads and a
//    1-in-64 sampled step decomposition instead (see WheelSelfStats).
//  * Thread-aware: every thread (sweep workers, baseline runs) aggregates into
//    its own tree; snapshot() merges by zone-name path.
//
// Each thread also keeps a bounded begin/end event timeline so the self-time
// can be exported as its own Perfetto process (ChromeTraceSink::
// write_self_profile). When the buffer fills, whole zone pairs are dropped
// (an unrecorded enter suppresses its matching exit), so the exported stream
// always nests.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lazydram::telemetry {

/// Process-wide arm switch, read by SelfZone at construction. Extern rather
/// than a function-local static so the disabled fast path is a single load.
extern std::atomic<bool> g_selfprof_enabled;

/// One node of the merged zone tree, in preorder (depth gives nesting).
struct SelfZoneNode {
  std::string name;
  unsigned depth = 0;
  std::uint64_t count = 0;
  double inclusive_seconds = 0.0;  ///< Total time inside the zone.
  double exclusive_seconds = 0.0;  ///< inclusive minus child-zone time.
};

/// One begin/end record of a thread timeline. `name` is the zone's literal
/// on begin, nullptr on end.
struct SelfEvent {
  std::uint64_t ns = 0;  ///< Nanoseconds since the profiler epoch.
  const char* name = nullptr;
};

/// One thread's bounded event timeline (for the Perfetto self-time process).
struct SelfThreadTimeline {
  unsigned index = 0;            ///< Registration order (0 = first user).
  std::vector<SelfEvent> events;
  std::uint64_t dropped_zones = 0;  ///< Zone pairs lost to the buffer cap.
};

class SelfProfiler {
 public:
  struct Snapshot {
    std::vector<SelfZoneNode> zones;          ///< Merged across threads.
    std::vector<SelfThreadTimeline> timelines;
  };

  static SelfProfiler& instance();

  static bool enabled() { return g_selfprof_enabled.load(std::memory_order_relaxed); }
  /// Arms/disarms zone recording process-wide. Enabling is what
  /// RunConfig/GpuConfig::self_profile and $LAZYDRAM_SELFPROF resolve to;
  /// simulate_full only ever turns it ON (a sweep sibling may still be
  /// running), so A/B harnesses (bench_micro --perf) toggle it directly.
  static void set_enabled(bool on) {
    g_selfprof_enabled.store(on, std::memory_order_relaxed);
  }

  /// Opens/closes a zone on the calling thread. `name` must be a literal (or
  /// otherwise outlive the profiler); zones must strictly nest per thread.
  /// Callers normally use SelfZone / LD_SELF_ZONE instead.
  static void enter(const char* name);
  static void exit();

  /// Merged view of every thread's tree and timeline. Intended for quiescent
  /// points (end of a run); concurrently open zones contribute their counts
  /// but not their still-accumulating time.
  Snapshot snapshot() const;

  /// Zeroes all counters/timelines (keeps thread registrations). Only call
  /// with no zones open on other threads — the A/B perf harness uses it
  /// between its profiled and unprofiled runs.
  void reset();

  /// Nanoseconds since the profiler epoch (process start of first use).
  std::uint64_t now_ns() const;

 private:
  SelfProfiler();
  struct ThreadState;
  static ThreadState& state();

  friend struct SelfProfilerAccess;
};

/// RAII zone. Captures the enabled flag at entry so a mid-zone toggle can
/// never unbalance the per-thread stack.
class SelfZone {
 public:
  explicit SelfZone(const char* name)
      : active_(SelfProfiler::enabled()) {
    if (active_) SelfProfiler::enter(name);
  }
  ~SelfZone() { close(); }

  SelfZone(const SelfZone&) = delete;
  SelfZone& operator=(const SelfZone&) = delete;

  /// Ends the zone early (idempotent) — for phases that don't align with a
  /// C++ scope (e.g. setup ending where the object must stay alive).
  void close() {
    if (active_) {
      SelfProfiler::exit();
      active_ = false;
    }
  }

 private:
  bool active_;
};

}  // namespace lazydram::telemetry

#define LD_SELF_ZONE_CAT2(a, b) a##b
#define LD_SELF_ZONE_CAT(a, b) LD_SELF_ZONE_CAT2(a, b)
#define LD_SELF_ZONE(name) \
  ::lazydram::telemetry::SelfZone LD_SELF_ZONE_CAT(ld_self_zone_, __LINE__)(name)
