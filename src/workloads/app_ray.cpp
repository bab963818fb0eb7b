// RAY — ray tracing (GPGPU-Sim benchmark suite).
//
// Table II classification: Group 3; High thrashing, High delay tolerance,
// High activation sensitivity, Low Th_RBL sensitivity, High error tolerance.
//
// Model: each warp traces a tile of rays. Per bounce it loads the ray
// record, three scattered BVH/scene-node reads (pointer-bearing:
// NOT annotated approximable — this is what keeps RAY's prediction coverage
// below the 10% target, placing it in Group 3), occasionally one scattered
// texture read (annotated), and a heavy shading/intersection compute burst
// (High delay tolerance). The scattered scene walk is the delayed-locality
// traffic: other warps' rays traverse the same nodes skewed in time (High
// activation sensitivity). Texture values feed an averaging framebuffer
// accumulation over smooth textures (High error tolerance).
#include "workloads/apps.hpp"

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kWarps = 1350;
constexpr unsigned kBounces = 20;

constexpr Addr kRays = MiB(16);     // Ray records, 1 line per warp-bounce.
constexpr Addr kScene = MiB(64);    // BVH nodes + triangles (6MB, pointers).
constexpr std::uint64_t kSceneLines = MiB(6) / kLineBytes;
constexpr Addr kTex = MiB(128);     // Texture atlas (2MB, annotated).
constexpr std::uint64_t kTexElems = 1u << 19;
constexpr Addr kFrame = MiB(160);   // Framebuffer, 1 line per warp.

std::uint64_t scene_line(unsigned warp, unsigned bounce, unsigned probe) {
  return mix64((static_cast<std::uint64_t>(warp) << 16) | (bounce << 4) | probe) %
         kSceneLines;
}

std::uint64_t tex_index(unsigned warp, unsigned bounce) {
  return mix64(0x7e0 + ((static_cast<std::uint64_t>(warp) << 12) | bounce)) % kTexElems;
}

class RayWorkload final : public Workload {
 public:
  std::string name() const override { return "RAY"; }
  std::string description() const override { return "Ray tracing (GPGPU-Sim suite)"; }
  unsigned group() const override { return 3; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kHigh,
            .delay_tolerance = Level::kHigh,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kHigh};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per bounce: ray record, 3 scene probes, texture read on every other
    // bounce, shading compute; one framebuffer store at the end.
    constexpr unsigned kStepsPerBounce = 6;
    constexpr unsigned kTotal = kBounces * kStepsPerBounce + 1;
    if (step >= kTotal) return false;

    if (step == kTotal - 1) {
      op = gpu::WarpOp::store_line(kFrame + static_cast<Addr>(warp) * kLineBytes);
      return true;
    }

    const unsigned bounce = step / kStepsPerBounce;
    const unsigned phase = step % kStepsPerBounce;

    switch (phase) {
      case 0:  // Ray record (private, L1-friendly).
        op = gpu::WarpOp::load_line(kRays + static_cast<Addr>(warp) * kLineBytes, false);
        return true;
      case 1:
      case 2:
      case 3:  // Scattered BVH/scene probes — pointers, never approximated.
        op = gpu::WarpOp::load_line(
            kScene + scene_line(warp, bounce, phase) * kLineBytes, /*approximable=*/false);
        return true;
      case 4:
        if (bounce % 3 == 0) {  // Scattered texture fetch (annotated).
          op = gpu::WarpOp::load_line(f32_line(kTex, tex_index(warp, bounce)),
                                      /*approximable=*/true);
        } else {
          op = gpu::WarpOp::compute(8);
        }
        return true;
      default:  // Intersection + shading.
        op = gpu::WarpOp::compute(40);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    fill_smooth(image, kTex, kTexElems, 25.0, 2.0, 128.0);
    // Scene nodes hold bounding-box floats in a similar numeric range, so a
    // donor mistakenly drawn from the scene region perturbs rather than
    // zeroes the predicted texel.
    fill_smooth(image, kScene, kSceneLines * kF32PerLine, 25.0, 2.2, 128.0);
  }

  void compute_output(gpu::MemView& view) const override {
    // Framebuffer pixel = average of the textures sampled along the path.
    for (unsigned w = 0; w < kWarps; ++w) {
      double acc = 0.0;
      unsigned n = 0;
      for (unsigned bounce = 0; bounce < kBounces; bounce += 3) {
        acc += view.read_f32(f32_addr(kTex, tex_index(w, bounce)));
        ++n;
      }
      view.write_f32(kFrame + static_cast<Addr>(w) * kLineBytes,
                     static_cast<float>(acc / n));
    }
  }

  std::vector<AddrRange> output_ranges() const override {
    // One accumulated sample per warp (stored at its frame line's base).
    return {{kFrame, static_cast<std::uint64_t>(kWarps) * kLineBytes}};
  }

  std::vector<AddrRange> approximable_ranges() const override {
    return {{kTex, kTexElems * 4}};
  }

  /// Only the first float of each frame line is an output; the rest of the
  /// line is padding that must not dilute the mean.
  void tally_output_errors(const gpu::MemView& exact, const gpu::MemView& approx,
                           ErrorTally& tally) const override {
    for (unsigned w = 0; w < kWarps; ++w) {
      const Addr a = kFrame + static_cast<Addr>(w) * kLineBytes;
      tally.add(exact.read_f32(a), approx.read_f32(a));
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_ray() { return std::make_unique<RayWorkload>(); }

}  // namespace lazydram::workloads
