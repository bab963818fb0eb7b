// lazydram end-to-end benchmark.
//
// Runs one named workload through the public sim::simulate_full entry point
// on the default GpuConfig (Table I, default driver, no knob set), repeating
// whole passes over the workload's simulations for a fixed wall budget, and
// prints the end-to-end metrics (untraced) or the per-layer metrics (from a
// separate traced pass) as the last stdout line, one JSON object:
//
//   {"correct": B, "attempted": N, "failed": F, "metrics": {...}}
//
// Every pass's simulated outputs are folded into a digest that must repeat
// exactly: against the digest pinned for (workload, seed) when the caller
// passes one, and against the run's first pass otherwise. A pass that throws
// or whose digest differs counts as failed; the run continues.
//
// Usage:
//   lazydram_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--expect-digest HEX] [--spans PATH] [--spec SPEC]
//   lazydram_perfbench --workload NAME --seed N --digest-only
//   lazydram_perfbench --list
//
// Exit codes: 0 when a result line was printed (its "correct" field carries
// the verdict), 2 on a usage error, including a malformed tenant spec and any
// LAZYDRAM_* variable in the environment.
#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "gpu/functional_memory.hpp"
#include "gpu/tenant.hpp"
#include "sim/simulator.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/selfprof.hpp"

extern char** environ;

namespace {

using namespace lazydram;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads ---------------------------------------------------------------

// One simulate_full call: a tenant spec (src/gpu/tenant.hpp grammar) under a
// paper scheme.
struct SimDef {
  std::string spec;
  core::SchemeKind scheme;
};

struct WorkloadDef {
  std::string name;
  std::vector<SimDef> sims;
};

// The three traffic regimes. README.md records why each was chosen and which
// layer metric each is expected to move.
std::vector<WorkloadDef> workload_defs() {
  using core::SchemeKind;
  return {
      // Memory-bound, row-thrashing apps, each alone: the partition slice
      // (L2, controller, scheduler, DRAM) is saturated and DMS gating, the
      // AMS drop pass and the VP all run.
      {"membound-lazy",
       {{"SCP:think=400", SchemeKind::kDynCombo},
        {"blackscholes:think=400", SchemeKind::kDynCombo}}},
      // Compute-bound apps under plain FR-FCFS: the SM tick and the reply
      // crossbar dominate; the scheduler does no lazy work and nothing is
      // approximated.
      {"compute-baseline",
       {{"GEMM:think=400", SchemeKind::kBaseline},
        {"ATAX:think=400", SchemeKind::kBaseline}}},
      // Short memory bursts between long think times from two tenants with
      // QoS caps: the memory side is mostly idle, so the run loop's idle
      // handling and the per-tenant error pass dominate.
      {"bursty-tenants",
       {{"SCP:warps=16,repeat=16,think=60000,cap=0.05;"
         "CONS:warps=16,repeat=16,think=60000,approx=0",
         SchemeKind::kDynCombo}}},
  };
}

// --- Benchmark-side spans ----------------------------------------------------

// Spans recorded by the benchmark around its calls into the library, kept in
// memory and written out once at the end.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int begin(const char* name, int parent) {
    spans_.push_back({name, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- One pass ------------------------------------------------------------------

struct SimResult {
  sim::RunMetrics metrics;
  telemetry::RunTelemetry telemetry;
  double wall_s = 0.0;   // Workload construction through collect_metrics.
  double setup_s = 0.0;  // Workload construction + simulate_full's setup.
};

struct PassResult {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
  std::uint64_t core_cycles = 0;
  std::uint64_t digest = 0;
  std::vector<SimResult> sims;
};

// Sum of the per-channel counters "<prefix>.ch<N>.<suffix>", excluding the
// per-tenant slices that share the prefix.
std::uint64_t sum_channels(const telemetry::TelemetryHub::Snapshot& snap,
                           const std::string& prefix, const std::string& suffix) {
  std::uint64_t total = 0;
  const std::string head = prefix + ".ch";
  const std::string tail = "." + suffix;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() <= head.size() + tail.size() || name.rfind(head, 0) != 0 ||
        name.compare(name.size() - tail.size(), tail.size(), tail) != 0)
      continue;
    const std::string mid = name.substr(head.size(), name.size() - head.size() - tail.size());
    if (mid.find_first_not_of("0123456789") == std::string::npos) total += value;
  }
  return total;
}

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// The simulated outputs a speed-only change must leave identical.
void fold_digest(Fnv& h, const SimResult& r) {
  const sim::RunMetrics& m = r.metrics;
  h.add(static_cast<std::uint64_t>(m.core_cycles));
  h.add(m.instructions);
  h.add(m.activations);
  h.add(m.dram_reads);
  h.add(m.dram_writes);
  h.add(sum_channels(r.telemetry.stats, "mem", "reads_served"));
  h.add(m.drops);
  h.add(m.app_error);
}

PassResult run_pass(const WorkloadDef& wl, std::uint64_t seed, bool traced,
                    SpanLog* spans) {
  PassResult pass;
  Fnv digest;
  const int pass_span = spans != nullptr ? spans->begin("pass", -1) : -1;
  const auto pass_start = Clock::now();
  for (const SimDef& def : wl.sims) {
    const auto construct_start = Clock::now();
    const int construct_span =
        spans != nullptr ? spans->begin("workload.construct", pass_span) : -1;
    gpu::TenantSet tenants(gpu::parse_tenant_specs(def.spec), seed);
    if (spans != nullptr) spans->end(construct_span);
    const double construct_s = seconds_since(construct_start);

    sim::RunConfig rc;
    rc.spec = core::make_scheme_spec(def.scheme, rc.gpu.scheme);
    tenants.apply_qos(rc.gpu);
    rc.ignore_env_outputs = true;
    if (traced) {
      rc.gpu.self_profile = true;
      rc.lifecycle = true;
      rc.trace_sample = 1;
    }
    const int sim_span = spans != nullptr ? spans->begin("sim.simulate_full", pass_span) : -1;
    SimResult r;
    {
      sim::RunOutput out = sim::simulate_full(tenants.workload(), rc);
      r.metrics = std::move(out.metrics);
      r.telemetry = std::move(out.telemetry);
    }
    if (spans != nullptr) spans->end(sim_span);
    if (!r.metrics.finished) throw std::runtime_error("run did not finish: " + def.spec);

    const telemetry::RunProfile& p = r.telemetry.profile;
    r.wall_s = seconds_since(construct_start);
    r.setup_s = construct_s + p.setup_seconds;
    pass.setup_s += r.setup_s;
    pass.run_s += p.run_seconds;
    pass.collect_s += p.collect_seconds;
    pass.core_cycles += r.metrics.core_cycles;
    fold_digest(digest, r);
    pass.sims.push_back(std::move(r));
  }
  pass.wall_s = seconds_since(pass_start);
  if (spans != nullptr) spans->end(pass_span);
  pass.digest = digest.value();
  return pass;
}

// Keeps the op-stream enumeration from being optimized away.
volatile std::uint64_t g_sink = 0;

// Times the workload layer's public calls apart from any simulation: the op
// stream (op_at over every warp), init_memory, and the two compute_output
// passes the error metric runs (exact view, then an approximate view; the
// overlay is empty here, so the second pass pays lookups but no hits).
struct WorkloadLayer {
  double opgen_s = 0.0;
  std::uint64_t ops = 0;
  double init_s = 0.0;
  double functional_s = 0.0;
};

WorkloadLayer time_workload_layer(const WorkloadDef& wl, std::uint64_t seed,
                                  SpanLog& spans) {
  WorkloadLayer out;
  const int parent = spans.begin("workloads", -1);
  for (const SimDef& def : wl.sims) {
    gpu::TenantSet tenants(gpu::parse_tenant_specs(def.spec), seed);
    const workloads::Workload& w = tenants.workload();

    int id = spans.begin("workloads.op_at", parent);
    std::uint64_t sink = 0;
    gpu::WarpOp op;
    for (unsigned warp = 0; warp < w.num_warps(); ++warp)
      for (unsigned step = 0; w.op_at(warp, step, op); ++step) {
        sink += op.cycles + op.num_addrs + op.addrs[0];
        ++out.ops;
      }
    spans.end(id);
    out.opgen_s += spans.seconds(id);
    g_sink = sink;

    gpu::MemoryImage image;
    id = spans.begin("workloads.init_memory", parent);
    w.init_memory(image);
    spans.end(id);
    out.init_s += spans.seconds(id);

    gpu::ApproxOverlay overlay;
    gpu::MemoryImage exact_img(image);
    gpu::MemoryImage approx_img(image);
    id = spans.begin("workloads.compute_output", parent);
    gpu::MemView exact_view(exact_img, nullptr);
    w.compute_output(exact_view);
    gpu::MemView approx_view(approx_img, &overlay);
    w.compute_output(approx_view);
    spans.end(id);
    out.functional_s += spans.seconds(id);
  }
  spans.end(parent);
  return out;
}

// --- Metrics -----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The CPUs of a shared host run at visibly different speeds (their sibling
// hardware threads carry other load), and a process tends to stay on one CPU
// for a whole run. Pinning pass i to the i-th allowed CPU in turn makes every
// run sample all of them.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  std::size_t slots() const { return std::max<std::size_t>(1, cpus_.size()); }

  /// Pins the calling thread for pass `pass`; returns the CPU slot used.
  std::size_t pin(std::size_t pass) const {
    const std::size_t slot = pass % slots();
    if (!cpus_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[slot], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    return slot;
  }

 private:
  std::vector<int> cpus_;
};

// The fastest time seen for each of a workload's simulations; the reported
// value is their sum. On a shared host, other tenants slow single passes by
// up to 2x at random, and the median pass follows their load from run to
// run. A simulation's fastest pass is the closest estimate of its cost on an
// uncontended CPU, and it is the steadiest from run to run.
class Fastest {
 public:
  explicit Fastest(std::size_t sims)
      : best_(sims, std::numeric_limits<double>::infinity()) {}
  void add(std::size_t sim, double seconds) { best_[sim] = std::min(best_[sim], seconds); }
  double total() const {
    double sum = 0.0;
    for (double s : best_) sum += s;
    return sum;
  }

 private:
  std::vector<double> best_;
};

// Fastest wall, setup and run times of a set of passes.
struct PassTimes {
  explicit PassTimes(std::size_t sims) : wall(sims), setup(sims), run(sims) {}
  void add(const PassResult& p) {
    for (std::size_t i = 0; i < p.sims.size(); ++i) {
      const SimResult& r = p.sims[i];
      wall.add(i, r.wall_s);
      setup.add(i, r.setup_s);
      run.add(i, r.telemetry.profile.run_seconds);
    }
    ++passes;
  }
  Fastest wall, setup, run;
  std::size_t passes = 0;
};

// A "<field>: N kB" line of /proc/self/status, in KiB.
double status_kib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(status, line))
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + key.size(), nullptr);
  return -1.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// Per-layer metrics of the traced passes: self-profile times summed over
// every traced pass, simulated counts and waits from the first (they repeat
// exactly), plus the workload-layer spans.
std::vector<Metric> layer_metrics(const std::vector<PassResult>& traced,
                                  double trace_overhead, const WorkloadLayer& wl_layer) {
  std::uint64_t step_samples = 0, all_cycles = 0;
  double sm_s = 0, icnt_s = 0, part_s = 0, mem_span_s = 0, run_wall_s = 0;
  std::vector<double> setup_s, run_s, collect_s;
  for (const PassResult& pass : traced) {
    double setup = 0, run = 0, collect = 0;
    for (const SimResult& r : pass.sims) {
      const telemetry::SelfProfileReport& sp = r.telemetry.self_profile;
      all_cycles += r.metrics.core_cycles;
      step_samples += sp.step_samples;
      sm_s += sp.sm_sample_seconds;
      icnt_s += sp.icnt_sample_seconds;
      part_s += sp.partition_sample_seconds;
      mem_span_s += sp.mem_serial_seconds + sp.mem_parallel_wall_seconds;
      run_wall_s += sp.run_wall_seconds;
      setup += r.telemetry.profile.setup_seconds;
      run += r.telemetry.profile.run_seconds;
      collect += r.telemetry.profile.collect_seconds;
    }
    setup_s.push_back(setup);
    run_s.push_back(run);
    collect_s.push_back(collect);
  }

  std::uint64_t core_cycles = 0, instructions = 0, spans = 0;
  std::uint64_t l2_accesses = 0, l2_hits = 0, reads_received = 0, reads_served = 0;
  std::uint64_t drops = 0, vp = 0, acts = 0, col_rd = 0, col_wr = 0;
  double energy = 0, avg_delay = 0, bus_busy = 0, bus_cycles = 0;
  std::uint64_t p50s[telemetry::kNumReqPhases] = {};
  std::uint64_t queue_p99 = 0;
  const std::vector<SimResult>& first = traced.front().sims;
  for (const SimResult& r : first) {
    const sim::RunMetrics& m = r.metrics;
    const telemetry::RunTelemetry& t = r.telemetry;
    core_cycles += m.core_cycles;
    instructions += m.instructions;
    spans += t.self_profile.serial_spans + t.self_profile.parallel_epochs;
    l2_accesses += sum_channels(t.stats, "cache.l2", "accesses");
    l2_hits += sum_channels(t.stats, "cache.l2", "hits");
    reads_received += m.reads_received;
    reads_served += sum_channels(t.stats, "mem", "reads_served");
    drops += m.drops;
    vp += sum_channels(t.stats, "core", "vp.predictions");
    acts += m.activations;
    col_rd += m.dram_reads;
    col_wr += m.dram_writes;
    energy += m.total_energy_nj;
    avg_delay += m.avg_delay / static_cast<double>(first.size());
    bus_busy += m.bwutil * static_cast<double>(m.mem_cycles);
    bus_cycles += static_cast<double>(m.mem_cycles);
    // Percentiles do not add across runs; a multi-run workload reports the
    // largest of its runs'. Summary phases are indexed by ReqPhase.
    for (unsigned i = 0; i < telemetry::kNumReqPhases; ++i)
      p50s[i] = std::max(p50s[i], t.lifecycle.phases[i].p50);
    queue_p99 = std::max(
        queue_p99,
        t.lifecycle.phases[static_cast<unsigned>(telemetry::ReqPhase::kQueueWait)].p99);
  }

  const auto p50 = [&](telemetry::ReqPhase ph) {
    return static_cast<double>(p50s[static_cast<unsigned>(ph)]);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double real_steps = 64.0 * static_cast<double>(step_samples);
  using telemetry::ReqPhase;
  return {
      {"gpu.sm_us_per_step", 1e6 * ratio(sm_s, static_cast<double>(step_samples)), "us"},
      {"icnt.us_per_step", 1e6 * ratio(icnt_s, static_cast<double>(step_samples)), "us"},
      {"partition.us_per_step", 1e6 * ratio(part_s, static_cast<double>(step_samples)),
       "us"},
      {"gpu.run_us_per_step", 1e6 * ratio(run_wall_s, real_steps), "us"},
      {"gpu.step_fraction", ratio(real_steps, static_cast<double>(all_cycles)), "ratio"},
      {"mem.span_s", mem_span_s / static_cast<double>(traced.size()), "s"},
      {"mem.spans", static_cast<double>(spans), "count"},
      {"workloads.opgen_ns_per_op",
       1e9 * ratio(wl_layer.opgen_s, static_cast<double>(wl_layer.ops)), "ns"},
      {"workloads.init_s", wl_layer.init_s, "s"},
      {"workloads.functional_s", wl_layer.functional_s, "s"},
      {"sim.setup_s", median(setup_s), "s"},
      {"sim.run_s", median(run_s), "s"},
      {"sim.collect_s", median(collect_s), "s"},
      {"telemetry.trace_overhead", trace_overhead, "ratio"},
      {"gpu.core_cycles", static_cast<double>(core_cycles), "cycles"},
      {"gpu.instructions", static_cast<double>(instructions), "count"},
      {"gpu.ipc", ratio(static_cast<double>(instructions), static_cast<double>(core_cycles)),
       "ratio"},
      {"icnt.request_cycles_p50", p50(ReqPhase::kIcntRequest), "core_cycles"},
      {"icnt.reply_cycles_p50", p50(ReqPhase::kReplyReturn), "core_cycles"},
      {"cache.l2.accesses", static_cast<double>(l2_accesses), "count"},
      {"cache.l2.hit_rate",
       ratio(static_cast<double>(l2_hits), static_cast<double>(l2_accesses)), "ratio"},
      {"partition.wait_cycles_p50", p50(ReqPhase::kPartitionWait), "core_cycles"},
      {"mem.reads_received", static_cast<double>(reads_received), "count"},
      {"mem.reads_served", static_cast<double>(reads_served), "count"},
      {"mem.queue_wait_cycles_p50", p50(ReqPhase::kQueueWait), "mem_cycles"},
      {"mem.queue_wait_cycles_p99", static_cast<double>(queue_p99), "mem_cycles"},
      {"core.dms_gated_cycles_p50", p50(ReqPhase::kDmsGated), "mem_cycles"},
      {"core.dms.avg_delay", avg_delay, "mem_cycles"},
      {"core.ams.reads_dropped", static_cast<double>(drops), "count"},
      {"core.ams.coverage",
       ratio(static_cast<double>(drops), static_cast<double>(reads_received)), "ratio"},
      {"core.vp.predictions", static_cast<double>(vp), "count"},
      {"dram.activations", static_cast<double>(acts), "count"},
      {"dram.column_reads", static_cast<double>(col_rd), "count"},
      {"dram.column_writes", static_cast<double>(col_wr), "count"},
      {"dram.bwutil", ratio(bus_busy, bus_cycles), "ratio"},
      {"dram.service_cycles_p50", p50(ReqPhase::kService), "mem_cycles"},
      {"dram.total_energy_nj", energy, "nJ"},
  };
}

// --- Command line ------------------------------------------------------------

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "lazydram_perfbench: %s\n"
               "usage: lazydram_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expect-digest HEX] [--spans PATH] [--spec SPEC]\n"
               "       lazydram_perfbench --workload NAME --seed N --digest-only\n"
               "       lazydram_perfbench --list\n",
               what.c_str());
  std::exit(2);
}

std::uint64_t parse_number(const std::string& flag, const std::string& text, int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0' || errno != 0)
    usage_error("bad value for " + flag + ": '" + text + "'");
  return v;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool digest_only = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool have_expected = false;
  std::uint64_t expected_digest = 0;
  std::string spans_path;
  std::string spec;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest-only") {
      o.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = parse_number(flag, val);
      o.have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_number(flag, val));
      o.have_seconds = o.seconds >= 1.0;
      if (!o.have_seconds) usage_error("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage_error("--trace takes 0 or 1");
      o.trace = val == "1";
      o.have_trace = true;
    } else if (flag == "--expect-digest") {
      o.expected_digest = parse_number(flag, val, 16);
      o.have_expected = true;
    } else if (flag == "--spans") {
      o.spans_path = val;
    } else if (flag == "--spec") {
      o.spec = val;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || !o.have_seed) usage_error("--workload and --seed are required");
  if (!o.digest_only && (!o.have_seconds || !o.have_trace))
    usage_error("--seconds and --trace are required");
  return o;
}

// simulate_full honors a dozen LAZYDRAM_* variables that change the driver,
// the policy or the outputs; a benchmark run must not pick any of them up.
void refuse_lazydram_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LAZYDRAM_", 9) != 0) continue;
    const std::string entry = *e;
    usage_error("refusing to run: " + entry.substr(0, entry.find('=')) +
                " is set in the environment");
  }
}

// Every spec must parse before anything runs: a malformed one is a usage
// error, never an abort inside the library.
void check_specs(const WorkloadDef& wl) {
  for (const SimDef& s : wl.sims) {
    try {
      gpu::parse_tenant_specs(s.spec);
    } catch (const std::invalid_argument& e) {
      usage_error(std::string("bad workload spec: ") + e.what());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  refuse_lazydram_env();
  const std::vector<WorkloadDef> defs = workload_defs();
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const WorkloadDef& wl : defs) {
      check_specs(wl);
      std::printf("%s", wl.name.c_str());
      for (const SimDef& s : wl.sims)
        std::printf("\t%s [%s]", s.spec.c_str(), core::scheme_name(s.scheme));
      std::printf("\n");
    }
    return 0;
  }
  const Options opt = parse_args(argc, argv);

  const auto it = std::find_if(defs.begin(), defs.end(),
                               [&](const WorkloadDef& d) { return d.name == opt.workload; });
  if (it == defs.end()) usage_error("unknown workload '" + opt.workload + "'");
  WorkloadDef wl = *it;
  if (!opt.spec.empty()) wl.sims = {{opt.spec, wl.sims.front().scheme}};
  check_specs(wl);

  if (opt.digest_only) {
    const PassResult p = run_pass(wl, opt.seed, false, nullptr);
    std::printf("%016" PRIx64 "\n", p.digest);
    return 0;
  }

  const double rss0_kib = status_kib("VmRSS");
  const auto start = Clock::now();
  // A traced run splits its budget between the untraced passes (the base of
  // the overhead ratio) and the traced passes.
  const double timed_budget = opt.trace ? opt.seconds / 2 : opt.seconds;

  std::uint64_t attempted = 0, failed = 0;
  bool have_reference = opt.have_expected;
  std::uint64_t reference = opt.expected_digest;
  bool profiler_clean = true;
  const auto check = [&](const PassResult& p) {
    if (!have_reference) {
      reference = p.digest;
      have_reference = true;
    }
    if (p.digest != reference) {
      std::fprintf(stderr, "digest mismatch: got %016" PRIx64 ", want %016" PRIx64 "\n",
                   p.digest, reference);
      ++failed;
    }
  };

  const CpuRotation cpus;
  PassTimes untraced(wl.sims.size());
  std::uint64_t core_cycles = 0;  // Of one pass; every pass simulates the same.
  while (attempted == 0 || seconds_since(start) < timed_budget) {
    const std::size_t slot = cpus.pin(attempted++);
    try {
      if (telemetry::SelfProfiler::enabled()) profiler_clean = false;
      const PassResult p = run_pass(wl, opt.seed, false, nullptr);
      for (const SimResult& r : p.sims)
        if (r.telemetry.self_profile.enabled) profiler_clean = false;
      check(p);
      std::fprintf(stderr,
                   "pass %zu (cpu slot %zu): wall %.4f s, run %.4f s, setup %.4f s, "
                   "collect %.6f s\n",
                   untraced.passes, slot, p.wall_s, p.run_s, p.setup_s, p.collect_s);
      untraced.add(p);
      core_cycles = p.core_cycles;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pass failed: %s\n", e.what());
      ++failed;
    }
  }
  const double peak_rss_mb = (status_kib("VmHWM") - rss0_kib) / 1024.0;

  std::printf("workload %s seed %" PRIu64 ": %zu untraced passes, digest %016" PRIx64 "\n",
              wl.name.c_str(), opt.seed, untraced.passes, reference);
  for (const SimDef& s : wl.sims)
    std::printf("  run %s [%s]\n", s.spec.c_str(), core::scheme_name(s.scheme));

  if (!opt.trace) {
    if (untraced.passes == 0) {
      print_result(false, attempted, failed, {});
      return 0;
    }
    const std::vector<Metric> metrics = {
        {"sim_cycles_per_s", static_cast<double>(core_cycles) / untraced.run.total(), "1/s"},
        {"wall_s", untraced.wall.total(), "s"},
        {"setup_s", untraced.setup.total(), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    for (const Metric& m : metrics)
      std::printf("  %-18s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  %zu passes over %zu CPUs; runs_failed %" PRIu64 "/%" PRIu64 "\n",
                untraced.passes, cpus.slots(), failed, attempted);
    if (!profiler_clean) std::printf("  self-profiler was armed during a timed pass\n");
    print_result(failed == 0 && profiler_clean, attempted, failed, metrics);
    return 0;
  }

  // Traced passes, after every timed pass: the profiler arm switch is
  // process-global and simulate_full only ever turns it on.
  SpanLog spans;
  std::vector<PassResult> traced;
  PassTimes traced_times(wl.sims.size());
  WorkloadLayer layer;
  const auto traced_start = Clock::now();
  const double traced_budget = opt.seconds - timed_budget;
  for (std::size_t tries = 0; tries == 0 || seconds_since(traced_start) < traced_budget;
       ++tries) {
    cpus.pin(attempted++);
    try {
      telemetry::SelfProfiler::instance().reset();
      traced.push_back(run_pass(wl, opt.seed, true, &spans));
      check(traced.back());
      traced_times.add(traced.back());
      if (traced.size() == 1) layer = time_workload_layer(wl, opt.seed, spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "traced pass failed: %s\n", e.what());
      ++failed;
    }
  }
  telemetry::SelfProfiler::set_enabled(false);
  telemetry::SelfProfiler::instance().reset();
  if (traced.empty() || untraced.passes == 0) {
    print_result(false, attempted, failed, {});
    return 0;
  }

  const std::vector<Metric> metrics =
      layer_metrics(traced, traced_times.run.total() / untraced.run.total(), layer);
  for (const Metric& m : metrics)
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  // The sampled step slices must fit inside the measured wall per real step.
  double slices = 0.0, per_step = 0.0;
  for (const Metric& m : metrics) {
    if (m.name == "gpu.sm_us_per_step" || m.name == "icnt.us_per_step" ||
        m.name == "partition.us_per_step")
      slices += m.value;
    if (m.name == "gpu.run_us_per_step") per_step = m.value;
  }
  std::printf("  step slices %.4f us <= run wall per real step %.4f us: %s\n", slices,
              per_step, slices <= per_step ? "yes" : "NO");
  std::printf("  %zu traced passes; runs_failed %" PRIu64 "/%" PRIu64 "\n",
              traced.size(), failed, attempted);
  if (!opt.spans_path.empty() && !spans.write(opt.spans_path))
    std::fprintf(stderr, "could not write spans to %s\n", opt.spans_path.c_str());
  print_result(failed == 0 && profiler_clean, attempted, failed, metrics);
  return 0;
}
