// Self-observability tests: the wall-clock zone profiler (SelfProfiler /
// SelfZone), the crash flight recorder (ring wrap, cross-channel merge
// order, dump-on-strict-violation, dump-on-assert), the live heartbeat, and
// the layer's core contract — arming all of it changes no simulation output
// byte (FlightRecorder.OnIsBitIdentical).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/mode.hpp"
#include "common/assert.hpp"
#include "common/config.hpp"
#include "core/scheme.hpp"
#include "dram/address.hpp"
#include "mem/pending_queue.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/selfprof.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

using telemetry::FlightRecorder;
using telemetry::SelfProfiler;
using telemetry::SelfZone;
using telemetry::TraceEvent;

// ---------------------------------------------------------------------------
// SelfProfiler
// ---------------------------------------------------------------------------

const telemetry::SelfZoneNode* find_zone(const SelfProfiler::Snapshot& snap,
                                         const std::string& name) {
  for (const telemetry::SelfZoneNode& z : snap.zones)
    if (z.name == name && z.count > 0) return &z;
  return nullptr;
}

TEST(SelfProf, ZoneTreeAggregatesByPath) {
  SelfProfiler::instance().reset();
  SelfProfiler::set_enabled(true);
  {
    SelfZone outer("t.outer");
    for (int i = 0; i < 3; ++i) {
      SelfZone inner("t.inner");
    }
  }
  SelfProfiler::set_enabled(false);

  const SelfProfiler::Snapshot snap = SelfProfiler::instance().snapshot();
  const telemetry::SelfZoneNode* outer = find_zone(snap, "t.outer");
  const telemetry::SelfZoneNode* inner = find_zone(snap, "t.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 3u);
  EXPECT_EQ(inner->depth, outer->depth + 1);
  EXPECT_GE(outer->inclusive_seconds, inner->inclusive_seconds);
  EXPECT_GE(outer->inclusive_seconds, outer->exclusive_seconds);
  EXPECT_GE(inner->exclusive_seconds, 0.0);

  // The per-thread timeline must hold the 4 strictly-nesting B/E pairs.
  std::size_t events = 0;
  for (const telemetry::SelfThreadTimeline& tl : snap.timelines) {
    events += tl.events.size();
    EXPECT_EQ(tl.dropped_zones, 0u);
  }
  EXPECT_EQ(events, 8u);
}

TEST(SelfProf, DisabledZonesRecordNothing) {
  SelfProfiler::instance().reset();
  SelfProfiler::set_enabled(false);
  {
    SelfZone z("t.never");
  }
  const SelfProfiler::Snapshot snap = SelfProfiler::instance().snapshot();
  EXPECT_EQ(find_zone(snap, "t.never"), nullptr);
  for (const telemetry::SelfThreadTimeline& tl : snap.timelines)
    EXPECT_TRUE(tl.events.empty());
}

TEST(SelfProf, EarlyCloseIsIdempotent) {
  SelfProfiler::instance().reset();
  SelfProfiler::set_enabled(true);
  {
    SelfZone z("t.close");
    z.close();
    z.close();  // Second close must be a no-op, destructor a third.
  }
  SelfProfiler::set_enabled(false);
  const SelfProfiler::Snapshot snap = SelfProfiler::instance().snapshot();
  const telemetry::SelfZoneNode* z = find_zone(snap, "t.close");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->count, 1u);
}

// ---------------------------------------------------------------------------
// FlightRecorder rings
// ---------------------------------------------------------------------------

TraceEvent act(Cycle cycle, ChannelId ch, std::uint64_t row) {
  TraceEvent e;
  e.kind = telemetry::EventKind::kRowActivate;
  e.cycle = cycle;
  e.channel = ch;
  e.bank = 0;
  e.a = row;
  return e;
}

TEST(FlightRecorder, RingKeepsLastKAcrossBothWrapBoundaries) {
  FlightRecorder rec(4);

  // Exactly full, no wrap yet: arrival order preserved.
  for (Cycle c = 1; c <= 4; ++c) rec.record(act(c, 0, c));
  std::vector<TraceEvent> got = rec.ordered_events();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].cycle, i + 1);

  // One past full: the oldest event falls off, order still oldest-first.
  rec.record(act(5, 0, 5));
  got = rec.ordered_events();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].cycle, i + 2);
  EXPECT_EQ(rec.recorded(), 5u);

  // Far past full (two whole laps): still the last 4, still in order.
  for (Cycle c = 6; c <= 13; ++c) rec.record(act(c, 0, c));
  got = rec.ordered_events();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].cycle, i + 10);
}

TEST(FlightRecorder, MergesChannelsInCycleChannelOrder) {
  FlightRecorder rec(8);
  rec.record(act(10, 1, 0));
  rec.record(act(10, 0, 0));
  rec.record(act(5, 2, 0));
  rec.record(act(10, 0, 1));  // Same (cycle, channel): arrival order holds.

  const std::vector<TraceEvent> got = rec.ordered_events();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].cycle, 5u);
  EXPECT_EQ(got[0].channel, 2u);
  EXPECT_EQ(got[1].cycle, 10u);
  EXPECT_EQ(got[1].channel, 0u);
  EXPECT_EQ(got[1].a, 0u);
  EXPECT_EQ(got[2].channel, 0u);
  EXPECT_EQ(got[2].a, 1u);
  EXPECT_EQ(got[3].channel, 1u);
}

TEST(FlightRecorder, ZeroDepthIsInert) {
  FlightRecorder rec(0);
  rec.record(act(1, 0, 0));
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.ordered_events().empty());
}

// ---------------------------------------------------------------------------
// Dump paths
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A strict-checker violation must leave the flight dump behind: the dump
// file names the violation and carries the ring's events — the history that
// led up to the violating command — in (cycle, channel) order, with the
// violation's own kCheckViolation event last.
TEST(FlightRecorder, StrictViolationDumpsRings) {
  const std::string dump_path = ::testing::TempDir() + "selfobs_flight.json";
  std::remove(dump_path.c_str());
  ASSERT_EQ(::setenv("LAZYDRAM_FLIGHT_DUMP", dump_path.c_str(), 1), 0);

  {
    telemetry::Telemetry tele;
    tele.enable_flight(8);

    GpuConfig cfg;
    check::CheckerOptions opts;
    opts.mode = check::CheckMode::kStrict;
    check::ProtocolChecker checker(cfg, 0, opts);
    checker.set_tracer(&tele.tracer());

    // Pre-violation history the dump should preserve.
    tele.tracer().row_activate(3, 0, 0, 7);
    tele.tracer().row_activate(4, 0, 1, 9);

    // RD on a closed bank: a bank-state violation, throws in strict mode
    // (and dumps the rings on the way out).
    PendingQueue queue(cfg.pending_queue_size, cfg.banks_per_channel);
    EXPECT_THROW(checker.on_command(dram::CommandKind::kRead, 0, 1, 10, queue),
                 check::ViolationError);
  }

  const std::string dump = read_file(dump_path);
  ASSERT_FALSE(dump.empty()) << "no flight dump at " << dump_path;
  EXPECT_NE(dump.find("protocol_violation"), std::string::npos);
  const std::size_t first_act = dump.find("\"type\":\"act\"");
  const std::size_t violation = dump.find("\"type\":\"check\"");
  ASSERT_NE(first_act, std::string::npos);
  ASSERT_NE(violation, std::string::npos);
  // History precedes the violating command's event: (cycle, channel) order.
  EXPECT_LT(first_act, violation);

  std::remove(dump_path.c_str());
  ::unsetenv("LAZYDRAM_FLIGHT_DUMP");
}

TEST(FlightRecorderDeathTest, AssertFailureDumpsRings) {
  const std::string dump_path = ::testing::TempDir() + "selfobs_assert_flight.json";
  ASSERT_EQ(::setenv("LAZYDRAM_FLIGHT_DUMP", dump_path.c_str(), 1), 0);
  FlightRecorder rec(4);
  rec.record(act(1, 0, 42));
  EXPECT_DEATH(LD_ASSERT_MSG(false, "selfobs death test"), "flight dump");
  ::unsetenv("LAZYDRAM_FLIGHT_DUMP");
  std::remove(dump_path.c_str());
}

// ---------------------------------------------------------------------------
// The core contract: arming the whole self-observability layer — profiler,
// heartbeat (armed but silent), flight recorder — changes no simulation
// output byte.
// ---------------------------------------------------------------------------

// Excise one "key": {...} object (possibly holding nested containers) from a
// JSON string by brace/bracket balancing. The self_profile section carries
// wall times, so it legitimately differs run to run.
std::string strip_section(std::string json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return json;
  std::size_t open = json.find('{', at);
  if (open == std::string::npos) return json;
  int depth = 0;
  std::size_t end = open;
  for (; end < json.size(); ++end) {
    if (json[end] == '{' || json[end] == '[') ++depth;
    if (json[end] == '}' || json[end] == ']') {
      if (--depth == 0) break;
    }
  }
  if (end >= json.size()) return json;
  if (end + 1 < json.size() && json[end + 1] == ',') ++end;
  json.erase(at, end - at + 1);
  return json;
}

struct RunFiles {
  sim::RunMetrics metrics;
  std::string trace;
  std::string report;
};

RunFiles run_with_selfobs(const workloads::Workload& wl, bool on,
                          const std::string& tag) {
  const std::string base = ::testing::TempDir() + "selfobs_" + tag;
  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
  config.compute_error = false;
  config.ignore_env_outputs = true;
  config.trace_path = base + ".trace.jsonl";
  config.json_report_path = base + ".report.json";
  if (on) {
    config.gpu.self_profile = true;
    config.gpu.heartbeat_seconds = 3600.0;  // Armed but silent.
    config.flight_depth =
        static_cast<std::int64_t>(FlightRecorder::kDefaultDepth);
  } else {
    config.flight_depth = 0;
  }

  RunFiles out;
  out.metrics = sim::simulate(wl, config);
  out.trace = read_file(config.trace_path);
  out.report = read_file(config.json_report_path);
  std::remove(config.trace_path.c_str());
  std::remove(config.json_report_path.c_str());
  return out;
}

TEST(FlightRecorder, OnIsBitIdentical) {
  const auto wl = workloads::make_workload("SCP");
  ASSERT_NE(wl, nullptr);

  SelfProfiler::set_enabled(false);
  const RunFiles off = run_with_selfobs(*wl, false, "off");
  const RunFiles on = run_with_selfobs(*wl, true, "on");
  SelfProfiler::set_enabled(false);
  SelfProfiler::instance().reset();

  ASSERT_TRUE(off.metrics.finished);
  EXPECT_EQ(off.metrics.core_cycles, on.metrics.core_cycles);
  ASSERT_FALSE(off.trace.empty());
  EXPECT_EQ(off.trace, on.trace);

  // Reports differ only in the wall-clock sections: "profile" (both runs)
  // and "self_profile" (the armed run only).
  const std::string off_rep =
      strip_section(strip_section(off.report, "profile"), "self_profile");
  const std::string on_rep =
      strip_section(strip_section(on.report, "profile"), "self_profile");
  ASSERT_FALSE(off_rep.empty());
  EXPECT_EQ(off_rep, on_rep);
  // The armed run actually produced the section it is allowed to add.
  EXPECT_EQ(off.report.find("\"self_profile\""), std::string::npos);
  EXPECT_NE(on.report.find("\"self_profile\""), std::string::npos);
  EXPECT_NE(on.report.find("\"mem_side_share\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

TEST(Heartbeat, EmitsRunHealthLines) {
  const auto wl = workloads::make_workload("SCP");
  ASSERT_NE(wl, nullptr);
  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
  config.compute_error = false;
  config.ignore_env_outputs = true;
  config.gpu.heartbeat_seconds = 1e-9;  // Every deadline check fires.

  ::testing::internal::CaptureStderr();
  const sim::RunMetrics m = sim::simulate(*wl, config);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(m.finished);
  EXPECT_NE(err.find("hb core="), std::string::npos);
  EXPECT_NE(err.find("Mcyc/s"), std::string::npos);
  EXPECT_NE(err.find("queued="), std::string::npos);
}

}  // namespace
}  // namespace lazydram
