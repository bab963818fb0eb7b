// FWT — fast Walsh-Hadamard transform (CUDA SDK).
//
// Table II classification: Group 4; High thrashing, Medium delay tolerance,
// High activation sensitivity, HIGH Th_RBL sensitivity, Low error tolerance.
//
// Model: log2(N) butterfly stages over a 4MB array. Each butterfly loads the
// line pair (i, i XOR 2^s) as one two-transaction op: early stages pair
// lines within the same DRAM row (high locality); late stages pair lines
// hundreds of KB apart — lone scattered reads that produce a fat RBL(1)
// tail (High thrashing, High Th_RBL sensitivity) whose mates (other warps'
// butterflies into the same remote rows) arrive skewed (High activation
// sensitivity). The transform is exact arithmetic over hash-random data:
// approximating any input perturbs many outputs (Low error tolerance).
#include "workloads/apps.hpp"

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kLines = 1u << 15;  // 32768 lines = 4MB, N = 1M floats.
constexpr unsigned kWarps = 1024;
constexpr unsigned kLinesPerWarp = kLines / kWarps;  // 32.
constexpr unsigned kStages = 10;                     // Line-level strides 2^0..2^9.

constexpr Addr kData = MiB(16);
constexpr Addr kOut = MiB(64);

/// Functional model works on a window of the array (the full transform of
/// 1M floats would dominate runtime; 64K floats keeps the same dataflow).
constexpr unsigned kFuncLog2 = 16;
constexpr std::uint64_t kFuncElems = 1u << kFuncLog2;

class FwtWorkload final : public Workload {
 public:
  std::string name() const override { return "FWT"; }
  std::string description() const override { return "Fast Walsh transform (CUDA SDK)"; }
  unsigned group() const override { return 4; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kHigh,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = true,
            .error_tolerance = Level::kLow};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per stage: kLinesPerWarp/2 butterflies, each (pair load, compute),
    // then a tile store of the warp's partition.
    constexpr unsigned kFliesPerStage = kLinesPerWarp / 2;
    constexpr unsigned kStepsPerStage = kFliesPerStage * 2 + 1;
    constexpr unsigned kTotal = kStages * kStepsPerStage;
    if (step >= kTotal) return false;

    const unsigned stage = step / kStepsPerStage;
    const unsigned s = step % kStepsPerStage;
    const unsigned stride = 1u << stage;  // In lines.

    if (s == kStepsPerStage - 1) {
      op = wide_store(kData + static_cast<Addr>(warp) * kLinesPerWarp * kLineBytes, 16);
      return true;
    }

    const unsigned fly = s / 2;
    if (s % 2 == 0) {
      // Butterfly partner pair: lines (base, base XOR stride).
      const unsigned lo =
          (warp * kFliesPerStage + fly) * 2 % kLines;  // Spread butterflies.
      const unsigned line_a = lo & ~stride;
      const unsigned line_b = line_a | stride;
      op.begin_load(2, /*approx=*/true);
      op.addrs[0] = kData + static_cast<Addr>(line_a) * kLineBytes;
      op.addrs[1] = kData + static_cast<Addr>(line_b) * kLineBytes;
      return true;
    }
    op = gpu::WarpOp::compute(6);
    return true;
  }

  void init_memory(gpu::MemoryImage& image) const override {
    fill_hash_random(image, kData, kFuncElems, 0xF7, -1.0, 1.0);
  }

  void compute_output(gpu::MemView& view) const override {
    // In-place iterative Walsh-Hadamard over the functional window, staged
    // through the output array so reads flow through the view (and thus the
    // approximation overlay).
    for (std::uint64_t i = 0; i < kFuncElems; ++i)
      view.write_f32(f32_addr(kOut, i), view.read_f32(f32_addr(kData, i)));
    for (unsigned s = 0; s < kFuncLog2; ++s) {
      const std::uint64_t h = 1ull << s;
      for (std::uint64_t i = 0; i < kFuncElems; i += h * 2) {
        for (std::uint64_t j = i; j < i + h; ++j) {
          const float a = view.read_f32(f32_addr(kOut, j));
          const float b = view.read_f32(f32_addr(kOut, j + h));
          view.write_f32(f32_addr(kOut, j), a + b);
          view.write_f32(f32_addr(kOut, j + h), a - b);
        }
      }
    }
  }

  std::vector<AddrRange> output_ranges() const override {
    return {{kOut, kFuncElems * 4}};
  }

  std::vector<AddrRange> approximable_ranges() const override {
    return {{kData, static_cast<std::uint64_t>(kLines) * kLineBytes}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_fwt() { return std::make_unique<FwtWorkload>(); }

}  // namespace lazydram::workloads
