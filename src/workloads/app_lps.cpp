// LPS — 3D Laplace solver (GPGPU-Sim benchmark suite).
//
// Table II classification: Group 1; High thrashing, Medium delay tolerance,
// LOW activation sensitivity, High Th_RBL sensitivity, High error tolerance.
// Fig. 7(a)'s case-study app: DMS barely reduces activations (2% at its MTD
// of 256; 6% at 512 for an 11% IPC loss), while AMS(8) removes 16% of
// activations and even gains IPC.
//
// Model: one Jacobi sweep of a 3D potential field. Warps process 32-cell
// x-segments in a *hashed* order, so concurrent warps work on far-apart
// cells. The in-plane part of the stencil (centre row and the y+/-1 rows,
// six lines) is fetched as ONE multi-transaction op — its same-row lines
// merge at baseline, and no delayed locality remains to recover (Low
// activation sensitivity). The two z-plane neighbours (+/-36KB) are lone
// scattered reads: a fat RBL(1) tail of approximable loads (High thrashing,
// High Th_RBL sensitivity). The smooth field plus an averaging stencil keeps
// value-prediction error small (High error tolerance); a moderate compute
// burst gives Medium delay tolerance.
#include "workloads/apps.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kNx = 96, kNy = 96, kNz = 64;  // ~2.3MB grid.
constexpr Addr kU = MiB(16);
constexpr Addr kOut = MiB(64);
constexpr std::uint64_t kCells = static_cast<std::uint64_t>(kNx) * kNy * kNz;

constexpr unsigned kWarps = 1280;
constexpr std::uint64_t kSegments = kCells / 32;
constexpr std::uint64_t kSegsPerWarp = kSegments / kWarps;

constexpr std::uint16_t kStencilCycles = 16;

constexpr std::uint64_t cell_index(unsigned x, unsigned y, unsigned z) {
  return (static_cast<std::uint64_t>(z) * kNy + y) * kNx + x;
}

/// Hashed segment for (warp, iteration): concurrent warps touch far-apart
/// grid regions (drives addresses only; the functional model is exact).
std::uint64_t segment_of(unsigned warp, std::uint64_t iter) {
  return mix64(static_cast<std::uint64_t>(warp) * kSegsPerWarp + iter) % kSegments;
}

class LpsWorkload final : public Workload {
 public:
  std::string name() const override { return "LPS"; }
  std::string description() const override { return "3D Laplace solver (Jacobi sweep)"; }
  unsigned group() const override { return 1; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kHigh,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kLow,
            .th_rbl_sensitive = true,
            .error_tolerance = Level::kHigh};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per segment: in-plane op (6 lines), z-1 single, z+1 single, compute,
    // store.
    constexpr unsigned kStepsPerSeg = 5;
    const std::uint64_t total = kSegsPerWarp * kStepsPerSeg;
    if (step >= total) return false;

    const std::uint64_t iter = step / kStepsPerSeg;
    const unsigned phase = step % kStepsPerSeg;
    const std::uint64_t seg = segment_of(warp, iter);
    const std::uint64_t base_cell = seg * 32;

    const unsigned x = static_cast<unsigned>(base_cell % kNx);
    const unsigned y = static_cast<unsigned>((base_cell / kNx) % kNy);
    const unsigned z =
        static_cast<unsigned>(base_cell / (static_cast<std::uint64_t>(kNx) * kNy));
    const unsigned ym = y > 0 ? y - 1 : 0;
    const unsigned yp = std::min(kNy - 1, y + 1);
    const unsigned zm = z > 0 ? z - 1 : 0;
    const unsigned zp = std::min(kNz - 1, z + 1);

    switch (phase) {
      case 0: {
        // In-plane fetch: centre row and both y-neighbour rows (2 lines
        // each), one multi-transaction op -> same-row lines merge at
        // baseline.
        op.begin_load(6, /*approx=*/true);
        unsigned n = 0;
        for (const unsigned yy : {y, ym, yp}) {
          const Addr base = f32_line(kU, cell_index(x, yy, z));
          op.addrs[n++] = base;
          op.addrs[n++] = base + kLineBytes;
        }
        return true;
      }
      case 1:  // z-1 plane: lone scattered read (the RBL(1) tail).
        op = gpu::WarpOp::load_line(f32_line(kU, cell_index(x, y, zm)), true);
        return true;
      case 2:  // z+1 plane.
        op = gpu::WarpOp::load_line(f32_line(kU, cell_index(x, y, zp)), true);
        return true;
      case 3:
        op = gpu::WarpOp::compute(kStencilCycles);
        return true;
      default:
        op = gpu::WarpOp::store_line(f32_line(kOut, base_cell));
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    for (unsigned z = 0; z < kNz; ++z)
      for (unsigned y = 0; y < kNy; ++y)
        for (unsigned x = 0; x < kNx; ++x) {
          const double v = 10.0 + 3.0 * std::sin(0.07 * x) * std::cos(0.05 * y) +
                           2.0 * std::sin(0.03 * z + 0.5);
          image.write_f32(f32_addr(kU, cell_index(x, y, z)), static_cast<float>(v));
        }
  }

  void compute_output(gpu::MemView& view) const override {
    const auto clamp = [](int v, int hi) { return std::max(0, std::min(hi - 1, v)); };
    for (unsigned z = 0; z < kNz; ++z)
      for (unsigned y = 0; y < kNy; ++y)
        for (unsigned x = 0; x < kNx; ++x) {
          const auto u = [&](int xi, int yi, int zi) {
            return static_cast<double>(view.read_f32(f32_addr(
                kU, cell_index(static_cast<unsigned>(clamp(xi, kNx)),
                               static_cast<unsigned>(clamp(yi, kNy)),
                               static_cast<unsigned>(clamp(zi, kNz))))));
          };
          const double next =
              (u(x - 1, y, z) + u(x + 1, y, z) + u(x, y - 1, z) + u(x, y + 1, z) +
               u(x, y, z - 1) + u(x, y, z + 1)) /
              6.0;
          view.write_f32(f32_addr(kOut, cell_index(x, y, z)), static_cast<float>(next));
        }
  }

  std::vector<AddrRange> output_ranges() const override { return {{kOut, kCells * 4}}; }

  std::vector<AddrRange> approximable_ranges() const override {
    return {{kU, kCells * 4}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_lps() { return std::make_unique<LpsWorkload>(); }

}  // namespace lazydram::workloads
