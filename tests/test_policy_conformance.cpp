// Policy-conformance fuzzer: every registered scheduler policy is driven
// through a seeded synthetic request stream by a mirror harness that enforces
// the decide() contract the controller's skips and memos rely on (see
// src/mem/scheduler.hpp):
//
//   * decide() is side-effect-free — the controller may call it twice per
//     (bank, cycle) (drop pass + command pass); a mirror instance fed the
//     identical notification stream but double-called must never diverge
//     from the single-called primary;
//   * kNone answers carry the kInvalidRequest sentinel, never a live id;
//   * an empty bank answers kNone without side effects (the controller
//     skips decide() for it, so the mirror asks and the primary does not);
//   * none_until horizons are sound for traits().memo_safe policies: the
//     answer stays kNone until the horizon unless the bank's pending set or
//     the policy's delay/threshold knobs change;
//   * may_drop() is consistent with actual kDrop answers;
//   * the whole stream drains (liveness) — the batch-cap RR PRE/ACT
//     livelock regression lives here;
//   * the same seed reproduces the same decision log (determinism).
//
// The harness plays the policy side only: a kDrop here is one admission, and
// the controller's row-group drain that follows it is tested with the
// controller (test_controller_schemes.cpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/recorder.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "dram/address.hpp"
#include "mem/controller.hpp"
#include "mem/pending_queue.hpp"
#include "mem/scheduler.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/window_sampler.hpp"

namespace lazydram {
namespace {

// gtest prints a parameter without a PrintTo overload as a dump of its raw
// bytes, and that dump is part of the test name ctest lists. The struct
// therefore holds no pointer, only fixed bytes: with a std::string member the
// dump carried heap addresses and the name changed from build to build. The
// text fields are inline arrays sized so the struct keeps its 72 bytes, and
// the leading tag keeps the dump's first bytes, so the listed names keep
// the prefix they had.
struct PolicyCase {
  std::uint32_t tag = 0;    ///< Fixed leading bytes of the byte dump.
  core::SchemeKind scheme = core::SchemeKind::kBaseline;  ///< For lazy only.
  char name[20] = {};       ///< Test label.
  char spec_text[44] = {};  ///< parse_policy_spec input ("" = lazy).
};
static_assert(sizeof(PolicyCase) == 72);

std::vector<PolicyCase> conformance_cases() {
  using core::SchemeKind;
  // Tags count from 0x10, so fcfs's listed name keeps its recorded prefix
  // "72-byte object <1".
  std::vector<PolicyCase> cases = {
      {0, SchemeKind::kBaseline, "frfcfs", "frfcfs"},
      {0, SchemeKind::kBaseline, "fcfs", "fcfs"},
      {0, SchemeKind::kBaseline, "bliss", "bliss:threshold=3,interval=512"},
      {0, SchemeKind::kBaseline, "batch-rr", "batch-rr:cap=2"},
      {0, SchemeKind::kBaseline, "autotune", "autotune:min=0,max=256,step=32,window=256"},
      {0, SchemeKind::kBaseline, "lazy-baseline", ""},
      {0, SchemeKind::kStaticDms, "lazy-static-dms", ""},
      {0, SchemeKind::kStaticCombo, "lazy-static-combo", ""},
      {0, SchemeKind::kDynCombo, "lazy-dyn-combo", ""},
  };
  for (std::size_t i = 0; i < cases.size(); ++i)
    cases[i].tag = static_cast<std::uint32_t>(0x10 + i);
  return cases;
}

std::unique_ptr<Scheduler> build(const PolicyCase& pc, const GpuConfig& cfg) {
  const core::SchemeSpec spec = pc.spec_text[0] == '\0'
                                    ? core::make_scheme_spec(pc.scheme, cfg.scheme)
                                    : core::SchemeSpec{};
  std::unique_ptr<Scheduler> s = core::make_scheduler(cfg, spec);
  // The AMS-capable lazy schemes need the L2-warm-up gate released, as the
  // GpuTop wiring would after warm-up.
  if (auto* lazy = dynamic_cast<core::LazyScheduler*>(s.get())) lazy->set_ams_ready(true);
  return s;
}

bool same_decision(const Decision& a, const Decision& b) {
  return a.action == b.action && a.req_id == b.req_id && a.none_until == b.none_until &&
         a.stable == b.stable;
}

/// Drives the primary instance (decide() once per visited bank-cycle) and a
/// mirror (decide() twice) through one seeded stream; returns an FNV-1a hash
/// of the primary's applied decision log for the determinism check.
std::uint64_t run_stream(const PolicyCase& pc, std::uint64_t seed) {
  GpuConfig cfg;
  if (pc.spec_text[0] != '\0') {
    std::string err;
    EXPECT_TRUE(core::parse_policy_spec(pc.spec_text, cfg, &err)) << err;
  }
  cfg.validate();
  const unsigned kBanks = cfg.banks_per_channel;
  constexpr RowId kRows = 6;
  constexpr Cycle kStreamCycles = 60'000;
  constexpr Cycle kMaxCycles = 400'000;

  std::unique_ptr<Scheduler> primary = build(pc, cfg);
  std::unique_ptr<Scheduler> mirror = build(pc, cfg);

  PendingQueue queue(cfg.pending_queue_size, kBanks);
  std::vector<BankView> banks(kBanks);
  for (BankId b = 0; b < kBanks; ++b) banks[b].bank = b;
  std::vector<Cycle> busy_until(kBanks, 0);
  std::vector<Cycle> horizon(kBanks, 0);  ///< Active none_until per bank.

  Rng rng(seed);
  RequestId next_id = 1;
  std::uint64_t bus_busy = 0;
  Cycle last_delay = 0;
  unsigned last_th_rbl = 0;
  std::uint64_t log_hash = 1469598103934665603ull;  // FNV-1a offset basis.
  const auto log = [&](std::uint64_t v) {
    log_hash = (log_hash ^ v) * 1099511628211ull;
  };
  const bool memo_safe = primary->traits().memo_safe;
  EXPECT_EQ(memo_safe, mirror->traits().memo_safe);
  EXPECT_EQ(primary->traits().hit_first, mirror->traits().hit_first);

  bool drained = false;
  for (Cycle now = 0; now < kMaxCycles; ++now) {
    // Stream phase: Bernoulli arrivals, skewed across banks/rows/SMs so row
    // hits, conflicts, blacklist streaks and batch rotations all occur.
    if (now < kStreamCycles && !queue.full() && rng.next_bool(0.25)) {
      MemRequest r;
      r.id = next_id++;
      r.kind = rng.next_bool(0.15) ? AccessKind::kWrite : AccessKind::kRead;
      r.approximable = r.is_read() && rng.next_bool(0.7);
      r.src_sm = r.is_read() ? static_cast<SmId>(rng.next_below(4)) : MemRequest::kNoSm;
      r.enqueue_cycle = now;
      r.loc.bank = static_cast<BankId>(rng.next_below(kBanks));
      // Skew: row 0 is hot, the rest uniform — sustains streaks and hits.
      r.loc.row = rng.next_bool(0.4) ? 0 : 1 + rng.next_below(kRows - 1);
      r.line_addr = static_cast<Addr>(r.id) * kLineBytes;
      queue.push(r);
      primary->on_enqueue(r);
      mirror->on_enqueue(r);
      horizon[r.loc.bank] = 0;  // Pending set changed: horizon void.
    }

    primary->tick(now, bus_busy);
    mirror->tick(now, bus_busy);

    // Delay/threshold knob edges invalidate every none_until horizon, exactly
    // as the controller's memo layer does.
    telemetry::WindowProbe pp{}, mp{};
    primary->fill_probe(pp);
    mirror->fill_probe(mp);
    EXPECT_EQ(pp.dms_delay, mp.dms_delay) << pc.name << " cycle " << now;
    EXPECT_EQ(pp.th_rbl, mp.th_rbl) << pc.name << " cycle " << now;
    if (pp.dms_delay != last_delay || pp.th_rbl != last_th_rbl) {
      last_delay = pp.dms_delay;
      last_th_rbl = pp.th_rbl;
      for (BankId b = 0; b < kBanks; ++b) horizon[b] = 0;
    }

    EXPECT_EQ(primary->may_drop(), mirror->may_drop()) << pc.name;

    for (BankId b = 0; b < kBanks; ++b) {
      if (busy_until[b] > now) continue;  // Command engine busy: no decide.
      // The controller never asks the policy about a bank without pending
      // work, under either row policy. That is only sound if decide() there
      // is a side-effect-free kNone: ask the mirror, so any side effect shows
      // up as a primary-vs-mirror divergence.
      if (queue.bank_size(b) == 0) {
        const Decision skipped = mirror->decide(queue, banks[b], now);
        EXPECT_EQ(skipped.action, Decision::Action::kNone)
            << pc.name << ": empty bank " << static_cast<int>(b) << " at cycle " << now;
        EXPECT_EQ(skipped.req_id, kInvalidRequest) << pc.name;
        continue;
      }

      const Decision d = primary->decide(queue, banks[b], now);
      const Decision m1 = mirror->decide(queue, banks[b], now);
      const Decision m2 = mirror->decide(queue, banks[b], now);
      EXPECT_TRUE(same_decision(m1, m2))
          << pc.name << ": double-called decide diverged on bank "
          << static_cast<int>(b) << " at cycle " << now;
      EXPECT_TRUE(same_decision(d, m1))
          << pc.name << ": mirror diverged from primary on bank "
          << static_cast<int>(b) << " at cycle " << now;

      if (horizon[b] > now) {
        EXPECT_EQ(d.action, Decision::Action::kNone)
            << pc.name << ": bank " << static_cast<int>(b) << " promised kNone until "
            << horizon[b] << " but answered otherwise at " << now;
      }

      switch (d.action) {
        case Decision::Action::kNone: {
          EXPECT_EQ(d.req_id, kInvalidRequest) << pc.name;
          if (memo_safe && d.none_until > now) horizon[b] = d.none_until;
          break;
        }
        case Decision::Action::kServe: {
          const MemRequest* found = queue.find(d.req_id);
          EXPECT_NE(found, nullptr) << pc.name << ": served unknown id " << d.req_id;
          if (found == nullptr) return log_hash;
          EXPECT_EQ(found->loc.bank, b) << pc.name;
          if (d.stable) {
            // A stable serve may not depend on time: with the bank's state
            // unchanged, the mirror must give it again far in the future.
            const Decision later = mirror->decide(queue, banks[b], now + 100'000);
            EXPECT_TRUE(same_decision(d, later))
                << pc.name << ": stable serve on bank " << static_cast<int>(b)
                << " at cycle " << now << " did not hold";
          }
          const bool hit = banks[b].row_open && banks[b].open_row == found->loc.row;
          busy_until[b] = now + (hit ? 4 : 24);  // CAS vs PRE+ACT+CAS, roughly.
          banks[b].row_open = true;
          banks[b].open_row = found->loc.row;
          const MemRequest r = queue.erase(d.req_id);
          primary->on_serve(r);
          mirror->on_serve(r);
          horizon[b] = 0;
          bus_busy += 2;  // One burst on the shared data bus.
          log(0x5eull);
          log(d.req_id);
          break;
        }
        case Decision::Action::kDrop: {
          EXPECT_TRUE(primary->may_drop()) << pc.name;
          const MemRequest* found = queue.find(d.req_id);
          EXPECT_NE(found, nullptr) << pc.name << ": dropped unknown id " << d.req_id;
          if (found == nullptr) return log_hash;
          EXPECT_EQ(found->loc.bank, b) << pc.name;
          EXPECT_TRUE(found->approximable) << pc.name << ": dropped a precise read";
          const MemRequest r = queue.erase(d.req_id);
          primary->on_drop(r);
          mirror->on_drop(r);
          horizon[b] = 0;
          log(0xd0ull);
          log(d.req_id);
          break;
        }
      }
      log(static_cast<std::uint64_t>(b));
      log(now);
    }

    if (now >= kStreamCycles && queue.empty()) {
      drained = true;
      break;
    }
  }
  // Liveness: every policy must drain the stream well before the bound —
  // batch-cap RR's rotation must not PRE/ACT-livelock a closed capped row,
  // and DMS gates must expire.
  EXPECT_TRUE(drained) << pc.name << ": stream failed to drain (livelock?)";
  EXPECT_TRUE(queue.empty()) << pc.name;
  return log_hash;
}

class PolicyConformance : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyConformance, ContractHoldsUnderSeededFuzzStream) {
  const PolicyCase& pc = GetParam();
  const std::uint64_t h1 = run_stream(pc, 0xC0FFEEull);
  const std::uint64_t h2 = run_stream(pc, 0xC0FFEEull);
  EXPECT_EQ(h1, h2) << pc.name << ": same seed produced different decision logs";
  // A different seed exercises a different stream (and, overwhelmingly
  // likely, a different log) — run it for coverage, not for inequality.
  run_stream(pc, 0xBEEFull);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyConformance,
                         ::testing::ValuesIn(conformance_cases()),
                         [](const ::testing::TestParamInfo<PolicyCase>& info) {
                           std::string n = info.param.name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// --- Controller idle skip -----------------------------------------------
//
// GpuTop::step() advances each controller through MemoryController::advance,
// which replays a cycle next_event() proves idle with advance_idle() instead
// of ticking it, and the event wheel's memory-only spans skip idle runs the
// same way (GpuTop::run_mem_span). Both must be bit-identical to tick() on
// every cycle, for every policy. One seeded stream of bursts and idle gaps feeds
// three controllers: `ref` ticks every cycle, `step` advances one cycle at a
// time, `span` advances only from one arrival to the next. Each records its
// request stream for the golden model, so diffcheck's recordings are proven
// independent of which cycles tick.

/// In-memory trace sink: protocol events and window samples.
struct CaptureSink final : telemetry::TraceSink {
  std::vector<telemetry::TraceEvent> events;
  std::vector<telemetry::WindowSample> windows;
  void on_event(const telemetry::TraceEvent& e) override { events.push_back(e); }
  void on_window(const telemetry::WindowSample& w) override { windows.push_back(w); }
};

struct ObservedChannel {
  ObservedChannel(const PolicyCase& pc, const GpuConfig& cfg, const AddressMapper& mapper) {
    std::unique_ptr<Scheduler> sched = build(pc, cfg);
    if (auto* lazy = dynamic_cast<core::LazyScheduler*>(sched.get()))
      lazy->set_telemetry(&tracer, 0);
    mc = std::make_unique<MemoryController>(cfg, 0, mapper, std::move(sched));
    tracer.set_sink(&sink);
    mc->set_tracer(&tracer);
    mc->set_recorder(&recorder);
    mc->enable_window_sampling(cfg.scheme.profile_window, &tracer);
  }
  void pop_replies(Cycle now) {
    while (auto r = mc->pop_reply(now)) replies.push_back(*r);
  }

  CaptureSink sink;
  telemetry::Tracer tracer;
  check::ChannelRecorder recorder{0};
  std::unique_ptr<MemoryController> mc;
  std::vector<MemReply> replies;
};

/// Everything the command engine changes when it issues a command or drops a
/// request, at the current cycle.
std::vector<std::uint64_t> engine_state(const MemoryController& mc) {
  const dram::DramChannel& ch = mc.channel();
  std::vector<std::uint64_t> v = {ch.activations(),      ch.energy().read_accesses(),
                                  ch.energy().write_accesses(), ch.bus_busy_cycles(),
                                  mc.reads_served(),     mc.writes_served(),
                                  mc.reads_dropped(),    mc.queue().size()};
  for (BankId b = 0; b < ch.num_banks(); ++b)
    v.push_back(ch.bank(b).row_open() ? ch.bank(b).open_row() : kInvalidRow);
  return v;
}

void expect_same_run(const ObservedChannel& ref, const ObservedChannel& dut,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const MemoryController& a = *ref.mc;
  const MemoryController& b = *dut.mc;
  EXPECT_EQ(engine_state(a), engine_state(b));
  EXPECT_EQ(a.reads_received(), b.reads_received());
  EXPECT_EQ(a.writes_received(), b.writes_received());
  EXPECT_EQ(a.read_latency_hist().total(), b.read_latency_hist().total());
  EXPECT_DOUBLE_EQ(a.read_latency().mean(), b.read_latency().mean());

  ASSERT_EQ(ref.replies.size(), dut.replies.size());
  for (std::size_t i = 0; i < ref.replies.size(); ++i) {
    EXPECT_EQ(ref.replies[i].id, dut.replies[i].id) << "reply " << i;
    EXPECT_EQ(ref.replies[i].ready_cycle, dut.replies[i].ready_cycle) << "reply " << i;
    EXPECT_EQ(ref.replies[i].approximate, dut.replies[i].approximate) << "reply " << i;
  }

  ASSERT_EQ(ref.sink.events.size(), dut.sink.events.size());
  for (std::size_t i = 0; i < ref.sink.events.size(); ++i) {
    const telemetry::TraceEvent& x = ref.sink.events[i];
    const telemetry::TraceEvent& y = dut.sink.events[i];
    EXPECT_TRUE(x.kind == y.kind && x.cycle == y.cycle && x.bank == y.bank && x.a == y.a &&
                x.b == y.b && x.f == y.f)
        << "trace event " << i << " at cycle " << x.cycle;
  }
  ASSERT_EQ(ref.sink.windows.size(), dut.sink.windows.size());
  for (std::size_t i = 0; i < ref.sink.windows.size(); ++i) {
    const telemetry::WindowSample& x = ref.sink.windows[i];
    const telemetry::WindowSample& y = dut.sink.windows[i];
    EXPECT_EQ(x.end_cycle, y.end_cycle) << "window " << i;
    EXPECT_EQ(x.ticks, y.ticks) << "window " << i;
    EXPECT_EQ(x.delay_sum, y.delay_sum) << "window " << i;
    EXPECT_EQ(x.th_rbl_sum, y.th_rbl_sum) << "window " << i;
    EXPECT_EQ(x.bus_busy_cycles, y.bus_busy_cycles) << "window " << i;
    EXPECT_EQ(x.drops, y.drops) << "window " << i;
    EXPECT_DOUBLE_EQ(x.queue_occupancy, y.queue_occupancy) << "window " << i;
    EXPECT_DOUBLE_EQ(x.energy_nj, y.energy_nj) << "window " << i;
  }

  const check::ChannelRecording& x = ref.recorder.recording();
  const check::ChannelRecording& y = dut.recorder.recording();
  EXPECT_TRUE(x.arrivals == y.arrivals) << "recorded arrivals differ";
  EXPECT_TRUE(x.serves == y.serves) << "recorded serves differ";
  EXPECT_TRUE(x.drops == y.drops) << "recorded drops differ";
  EXPECT_TRUE(x.drop_gates == y.drop_gates) << "recorded drop gates differ";
  EXPECT_TRUE(x.delay_changes == y.delay_changes) << "recorded delay changes differ";
  EXPECT_EQ(x.last_cycle, y.last_cycle);

  const dram::PowerAccountant& pa = a.channel().power();
  const dram::PowerAccountant& pb = b.channel().power();
  EXPECT_DOUBLE_EQ(pa.channel_energy().total_nj(), pb.channel_energy().total_nj());
  EXPECT_DOUBLE_EQ(pa.channel_energy().background_nj, pb.channel_energy().background_nj);
  EXPECT_EQ(pa.channel_active_cycles(), pb.channel_active_cycles());
}

class ControllerIdleSkip : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(ControllerIdleSkip, AdvanceMatchesTickingEveryCycle) {
  const PolicyCase& pc = GetParam();
  GpuConfig cfg;
  if (pc.spec_text[0] != '\0') {
    std::string err;
    ASSERT_TRUE(core::parse_policy_spec(pc.spec_text, cfg, &err)) << err;
  }
  cfg.validate();
  const AddressMapper mapper(cfg);
  ObservedChannel ref(pc, cfg, mapper);
  ObservedChannel step(pc, cfg, mapper);
  ObservedChannel span(pc, cfg, mapper);

  constexpr Cycle kStreamCycles = 40'000;
  constexpr Cycle kEndCycle = 60'000;
  Rng rng(0x5EEDull);
  RequestId next_id = 1;
  Cycle burst_end = 0;
  Cycle next_burst = 1;
  Cycle span_at = 0;  // Last cycle `span` was advanced to.
  std::uint64_t step_ticked = 0, span_ticked = 0;
  for (Cycle m = 1; m <= kEndCycle; ++m) {
    ref.mc->tick(m);
    step_ticked += step.mc->advance(m - 1, m);

    // Bursts of Bernoulli arrivals, a few hundred cycles long, separated by
    // idle gaps long enough for the queue to drain.
    if (m < kStreamCycles && m >= next_burst) {
      burst_end = m + 100 + rng.next_below(300);
      next_burst = burst_end + 200 + rng.next_below(2000);
    }
    if (m < burst_end && !ref.mc->queue().full() && rng.next_bool(0.3)) {
      MemRequest r;
      r.id = next_id++;
      r.kind = rng.next_bool(0.15) ? AccessKind::kWrite : AccessKind::kRead;
      r.approximable = r.is_read() && rng.next_bool(0.7);
      r.src_sm = r.is_read() ? static_cast<SmId>(rng.next_below(4)) : MemRequest::kNoSm;
      const auto bank = static_cast<BankId>(rng.next_below(cfg.banks_per_channel));
      const RowId row = rng.next_bool(0.5) ? 0 : 1 + rng.next_below(5);
      r.line_addr = mapper.compose(
          0, bank, row, static_cast<std::uint32_t>(rng.next_below(16) * kLineBytes));
      span_ticked += span.mc->advance(span_at, m);
      span_at = m;
      for (ObservedChannel* c : {&ref, &step, &span}) c->mc->enqueue(r, m);
    }
    ref.pop_replies(m);
    step.pop_replies(m);
    ASSERT_EQ(engine_state(*ref.mc), engine_state(*step.mc)) << pc.name << " cycle " << m;
  }
  span_ticked += span.mc->advance(span_at, kEndCycle);
  span.pop_replies(kEndCycle);
  for (ObservedChannel* c : {&ref, &step, &span}) c->mc->finalize();

  EXPECT_TRUE(ref.mc->idle()) << pc.name << ": stream did not drain";
  EXPECT_GT(ref.replies.size(), 1000u) << pc.name;
  // The skip must actually have happened, inside bursts as well as between,
  // and exactly as often as pinned: a lost fast path or a new spurious wake
  // shows as an exact diff, with no timing noise. `span` ticks the same
  // cycles as `step`; it only calls advance() less often.
  struct PinnedTicks {
    const char* name;
    std::uint64_t step, span;
  };
  constexpr PinnedTicks kPinned[] = {
      {"frfcfs", 10377, 10377},          {"fcfs", 11071, 11071},
      {"bliss", 14863, 14863},           {"batch-rr", 10603, 10603},
      {"autotune", 10562, 10562},        {"lazy-baseline", 10377, 10377},
      {"lazy-static-dms", 10478, 10478}, {"lazy-static-combo", 10281, 10281},
      {"lazy-dyn-combo", 10301, 10301},
  };
  const PinnedTicks* pin = nullptr;
  for (const PinnedTicks& p : kPinned)
    if (std::string_view(pc.name) == p.name) pin = &p;
  ASSERT_NE(pin, nullptr) << pc.name << ": no pinned tick counts";
  EXPECT_LT(step_ticked, kEndCycle / 2) << pc.name;
  EXPECT_EQ(step_ticked, pin->step) << pc.name;
  EXPECT_EQ(span_ticked, pin->span) << pc.name;
  expect_same_run(ref, step, std::string(pc.name) + ": one cycle at a time");
  expect_same_run(ref, span, std::string(pc.name) + ": arrival to arrival");
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ControllerIdleSkip,
                         ::testing::ValuesIn(conformance_cases()),
                         [](const ::testing::TestParamInfo<PolicyCase>& info) {
                           std::string n = info.param.name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace lazydram
