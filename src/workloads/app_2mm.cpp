// 2MM — two chained matrix multiplications: D = A*B, E = C*D (Polybench).
//
// Table II classification: Group 4; MEDIUM thrashing, Medium delay
// tolerance, Medium activation sensitivity, Low Th_RBL sensitivity, Low
// error tolerance.
//
// Model: like GEMM but blocked more cache-friendlily (8-line B tiles
// instead of a pure column walk) and with the second multiply reading the
// L2-warm intermediate D — less low-RBL traffic overall (Medium thrashing,
// Medium activation sensitivity). Hash-random inputs: Low error tolerance.
#include "workloads/apps.hpp"

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kM = 40;   // Rows of A/C-result blocks per multiply.
constexpr unsigned kN = 512;  // Columns.
constexpr unsigned kK = 512;  // Inner dimension.
constexpr unsigned kJBlocks = kN / 32;

constexpr Addr kA = MiB(16);
constexpr Addr kB = MiB(32);
constexpr Addr kC = MiB(48);
constexpr Addr kD = MiB(64);
constexpr Addr kE = MiB(96);

class TwoMmWorkload final : public Workload {
 public:
  std::string name() const override { return "2MM"; }
  std::string description() const override {
    return "Two matrix multiplications E = C*(A*B) (Polybench)";
  }
  unsigned group() const override { return 4; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kMedium,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kMedium,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kLow};
  }

  unsigned num_warps() const override { return kM * kJBlocks
  * 2; }  // Two multiplies.

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    const bool second = warp >= kM * kJBlocks;  // E = C*D half.
    const unsigned local = warp % (kM * kJBlocks);
    const unsigned jb = local % kJBlocks;
    const unsigned i = local / kJBlocks;

    // Per 8-k block: left-matrix tile (every 16 blocks), right-matrix
    // 8-line block tile, compute; store at the end.
    constexpr unsigned kBlocks = kK / 8;
    constexpr unsigned kStepsPerBlock = 3;
    constexpr unsigned kTotal = kBlocks * kStepsPerBlock + 1;
    if (step >= kTotal) return false;

    if (step == kTotal - 1) {
      const Addr out = second ? kE : kD;
      op = gpu::WarpOp::store_line(
          f32_line(out, static_cast<std::uint64_t>(i) * kN + 32 * jb));
      return true;
    }

    const unsigned blk = step / kStepsPerBlock;
    const Addr left = second ? kC : kA;
    const Addr right = second ? kD : kB;
    switch (step % kStepsPerBlock) {
      case 0:
        if (blk % 16 == 0) {
          op = wide_load(f32_addr(left, static_cast<std::uint64_t>(i) * kK + blk * 8), 4,
                         /*approximable=*/false);
        } else {
          op = gpu::WarpOp::compute(2);
        }
        return true;
      case 1:
        // Right-matrix 8-row block of the jb column strip: one line per k,
        // fetched as an 8-transaction strided op (4KB pitch between lines).
        {
          op.begin_load(8, /*approx=*/true);
          // The second multiply contracts over D's kM rows; wrap the
          // block walk into the right matrix's actual row count.
          const unsigned right_rows = second ? kM : kK;
          for (unsigned r = 0; r < 8; ++r)
            op.addrs[r] = f32_line(
                right,
                ((static_cast<std::uint64_t>(blk) * 8 + r) % right_rows) * kN + 32 * jb);
        }
        return true;
      default:
        op = gpu::WarpOp::compute(8);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    fill_hash_random(image, kA, static_cast<std::uint64_t>(kM) * kK, 0x21, -1.0, 1.0);
    fill_hash_random(image, kB, static_cast<std::uint64_t>(kK) * kN, 0x22, -1.0, 1.0);
    fill_hash_random(image, kC, static_cast<std::uint64_t>(kM) * kK, 0x23, -1.0, 1.0);
  }

  void compute_output(gpu::MemView& view) const override {
    // D = A*B (kM x kN), E = C*D with C (kM x kK=kM? ) — C is kM x kM here:
    // the chained multiply contracts over the first kM rows of D.
    for (unsigned i = 0; i < kM; ++i)
      for (unsigned j = 0; j < kN; ++j) {
        double acc = 0.0;
        for (unsigned k = 0; k < kK; ++k)
          acc += static_cast<double>(
                     view.read_f32(f32_addr(kA, static_cast<std::uint64_t>(i) * kK + k))) *
                 view.read_f32(f32_addr(kB, static_cast<std::uint64_t>(k) * kN + j));
        view.write_f32(f32_addr(kD, static_cast<std::uint64_t>(i) * kN + j),
                       static_cast<float>(acc));
      }
    for (unsigned i = 0; i < kM; ++i)
      for (unsigned j = 0; j < kN; ++j) {
        double acc = 0.0;
        for (unsigned k = 0; k < kM; ++k)
          acc += static_cast<double>(
                     view.read_f32(f32_addr(kC, static_cast<std::uint64_t>(i) * kK + k))) *
                 view.read_f32(f32_addr(kD, static_cast<std::uint64_t>(k) * kN + j));
        view.write_f32(f32_addr(kE, static_cast<std::uint64_t>(i) * kN + j),
                       static_cast<float>(acc));
      }
  }

  std::vector<AddrRange> output_ranges() const override {
    return {{kE, static_cast<std::uint64_t>(kM) * kN * 4}};
  }

  std::vector<AddrRange> approximable_ranges() const override {
    return {{kB, static_cast<std::uint64_t>(kK) * kN * 4},
            {kD, static_cast<std::uint64_t>(kM) * kN * 4}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_2mm() { return std::make_unique<TwoMmWorkload>(); }

}  // namespace lazydram::workloads
