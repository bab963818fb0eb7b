// Warp-level execution state and the op-stream abstraction.
//
// Instead of a full PTX/SASS pipeline, each warp executes a stream of
// warp-level operations produced by the workload model:
//   kCompute(c) — occupies the warp for c core cycles (arithmetic intensity);
//                 waits for all of the warp's outstanding loads first,
//   kLoad      — up to 32 lane addresses, coalesced into 128B transactions;
//                 issues without blocking (memory-level parallelism),
//   kStore     — like kLoad but write-through, fire-and-forget.
// This preserves exactly what the paper's mechanisms observe: interleaved,
// coalesced request streams whose latency tolerance grows with arithmetic
// intensity and warp count.
//
// Ops are written in place. A workload's op_at fills the caller's WarpOp: the
// factories return a small Run that operator= applies, and multi-address ops
// set their header with begin_load() and then write addrs[0, num_addrs). No
// writer touches the lanes past num_addrs, so building an op costs what it
// holds rather than sizeof(WarpOp). Lanes past num_addrs keep stale values
// from earlier ops, so readers must not rely on them.
// The SM decodes into one scratch WarpOp per SM and keeps only the op's
// header and coalesced lines in the Warp.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lazydram::gpu {

struct WarpOp {
  enum class Kind : std::uint8_t { kCompute, kLoad, kStore };

  /// A whole op as the factories describe it: the header plus `nlines`
  /// consecutive lines from `first` (none for kCompute).
  struct Run {
    Kind kind;
    std::uint16_t cycles;
    std::uint8_t nlines;
    bool approximable;
    Addr first;
  };

  Kind kind = Kind::kCompute;
  std::uint16_t cycles = 1;       ///< kCompute: core cycles of occupancy.
  std::uint8_t num_addrs = 0;     ///< kLoad/kStore: valid entries in addrs.
  bool approximable = false;      ///< kLoad: annotated-approximable region.
  std::array<Addr, 32> addrs{};   ///< Per-lane byte addresses.

  WarpOp() = default;
  /// Implicit, so a list of ops can be written as factory calls.
  WarpOp(const Run& run) { *this = run; }

  /// Writes the header and addrs[0, run.nlines); the other lanes keep
  /// whatever they held.
  WarpOp& operator=(const Run& run) {
    kind = run.kind;
    cycles = run.cycles;
    num_addrs = run.nlines;
    approximable = run.approximable;
    for (unsigned i = 0; i < run.nlines; ++i)
      addrs[i] = run.first + static_cast<Addr>(i) * kLineBytes;
    return *this;
  }

  /// Header of a load whose `n` lane addresses the caller writes next into
  /// addrs[0, n).
  void begin_load(std::uint8_t n, bool approx) {
    kind = Kind::kLoad;
    cycles = 1;
    num_addrs = n;
    approximable = approx;
  }

  static Run compute(std::uint16_t cycles) { return {Kind::kCompute, cycles, 0, false, 0}; }

  /// Fully-coalesced access: 32 lanes covering one 128B line at `line`.
  static Run load_line(Addr line, bool approximable) {
    return {Kind::kLoad, 1, 1, approximable, line_base(line)};
  }

  static Run store_line(Addr line) { return {Kind::kStore, 1, 1, false, line_base(line)}; }
};

/// Execution state of one warp resident on an SM. The current op is held as
/// its header (kind, cycles, approximable) and its coalesced lines; the lane
/// addresses stay in the SM's decode scratch.
struct Warp {
  unsigned global_id = 0;      ///< Grid-wide warp index (workload coordinate).
  TenantId tenant = 0;         ///< Owning client (workload tenant_of_warp).
  unsigned step = 0;           ///< Next op index in the workload's stream.
  unsigned outstanding = 0;    ///< Loads in flight (scoreboard).
  unsigned lines_issued = 0;   ///< Lines of the current memory op issued.
  Cycle busy_until = 0;        ///< kCompute occupancy.

  bool done = false;
  bool has_op = false;         ///< A decoded op is in progress.
  WarpOp::Kind kind = WarpOp::Kind::kCompute;  ///< Current op's kind.
  bool approximable = false;   ///< Current kLoad's annotation.
  std::uint16_t cycles = 1;    ///< Current kCompute's occupancy.

  std::vector<Addr> lines;     ///< Coalesced lines of the current memory op.
  /// The SM's mem_epoch when the head line (lines[lines_issued]) last found
  /// the request-crossbar input full; 0 = none. While it equals the SM's
  /// current epoch, the line's L1/MSHR verdict cannot have changed.
  std::uint64_t xbar_wait_epoch = 0;

  std::uint64_t instructions = 0;
};

}  // namespace lazydram::gpu
