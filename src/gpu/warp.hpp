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
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lazydram::gpu {

struct WarpOp {
  enum class Kind : std::uint8_t { kCompute, kLoad, kStore };

  Kind kind = Kind::kCompute;
  std::uint16_t cycles = 1;       ///< kCompute: core cycles of occupancy.
  std::uint8_t num_addrs = 0;     ///< kLoad/kStore: valid entries in addrs.
  bool approximable = false;      ///< kLoad: annotated-approximable region.
  std::array<Addr, 32> addrs{};   ///< Per-lane byte addresses.

  static WarpOp compute(std::uint16_t cycles) {
    WarpOp op;
    op.kind = Kind::kCompute;
    op.cycles = cycles;
    return op;
  }

  /// Fully-coalesced access: 32 lanes covering one 128B line at `line`.
  static WarpOp load_line(Addr line, bool approximable) {
    WarpOp op;
    op.kind = Kind::kLoad;
    op.approximable = approximable;
    op.num_addrs = 1;
    op.addrs[0] = line_base(line);
    return op;
  }

  static WarpOp store_line(Addr line) {
    WarpOp op;
    op.kind = Kind::kStore;
    op.num_addrs = 1;
    op.addrs[0] = line_base(line);
    return op;
  }
};

/// Execution state of one warp resident on an SM.
struct Warp {
  unsigned global_id = 0;      ///< Grid-wide warp index (workload coordinate).
  TenantId tenant = 0;         ///< Owning client (workload tenant_of_warp).
  unsigned step = 0;           ///< Next op index in the workload's stream.
  unsigned outstanding = 0;    ///< Loads in flight (scoreboard).
  Cycle busy_until = 0;        ///< kCompute occupancy.
  bool done = false;

  bool has_op = false;         ///< A decoded op is in progress.
  WarpOp op;
  std::vector<Addr> lines;     ///< Coalesced lines of the current memory op.
  unsigned lines_issued = 0;
  /// The SM's mem_epoch when the head line (lines[lines_issued]) last found
  /// the request-crossbar input full; 0 = none. While it equals the SM's
  /// current epoch, the line's L1/MSHR verdict cannot have changed.
  std::uint64_t xbar_wait_epoch = 0;

  std::uint64_t instructions = 0;
};

}  // namespace lazydram::gpu
