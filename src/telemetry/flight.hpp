// Self-observability: an always-on crash flight recorder.
//
// Keeps the last K typed telemetry events per channel in fixed-size rings,
// independent of whether a trace sink is attached (the Tracer feeds every
// emitted event here when a recorder is installed — see Tracer::set_flight).
// The rings are strictly passive: nothing is written anywhere until a dump
// fires. Dumps fire when
//   * the strict protocol checker is about to throw ViolationError
//     (check/checker.cpp), or
//   * an LD_ASSERT fails (via the hook in common/assert.hpp, installed by
//     the first FlightRecorder constructed).
// A dump writes one JSON file (path from $LAZYDRAM_FLIGHT_DUMP, default
// ./lazydram_flight.json) with every armed recorder's events merged in
// (cycle, channel) order, plus a short stderr summary, so a crashed run
// leaves forensics behind instead of discarding its recent history.
//
// Threading: a recorder belongs to one run, and a run emits from one thread,
// so record() takes no lock. Rings are pre-sized to kMaxChannels at
// construction; events on higher channel ids are dropped. The registry of
// live recorders is shared by concurrent runs (sweep workers) and locked.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace lazydram::telemetry {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultDepth = 64;
  static constexpr unsigned kMaxChannels = 64;

  /// `depth` = events retained per channel; 0 makes the recorder inert.
  explicit FlightRecorder(std::size_t depth = kDefaultDepth);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event to its channel's ring (overwriting the oldest once
  /// full).
  void record(const TraceEvent& event);

  std::size_t depth() const { return depth_; }
  /// Total events ever recorded across all channels (not just retained).
  std::uint64_t recorded() const;

  /// Retained events merged across channels, ordered by (cycle, channel)
  /// with per-channel arrival order preserved as the tiebreak.
  std::vector<TraceEvent> ordered_events() const;

  /// Writes this recorder's dump object ({"reason","detail","events":[...]})
  /// to `out`. Used by dump_all and directly testable.
  void dump(std::FILE* out, const char* reason, const std::string& detail) const;

  /// Dumps every live recorder to the flight-dump JSON file and prints a
  /// stderr summary. No-op when no recorder is armed.
  static void dump_all(const char* reason, const std::string& detail);

  /// Resolved dump path: knobs::kFlightDump.
  static std::string dump_path();

 private:
  struct Ring {
    std::vector<TraceEvent> buf;   // grows to depth_, then wraps
    std::uint64_t total = 0;       // events ever recorded on this channel
  };

  std::size_t depth_;
  std::vector<Ring> rings_;  // index = channel, fixed size kMaxChannels
};

}  // namespace lazydram::telemetry
