// blackscholes — Black-Scholes option pricing (AxBench/CUDA SDK).
//
// Table II classification: Group 4; MEDIUM thrashing, Medium delay
// tolerance, High activation sensitivity, High Th_RBL sensitivity, Low
// error tolerance.
//
// Model: pure elementwise pricing over five input arrays (spot, strike,
// expiry, rate, volatility). Warps stream 8-line tiles of each array in a
// grid-strided order: the five concurrent streams plus stride skew leave a
// minority of requests in low-RBL rows (Medium thrashing) that delay can
// consolidate (High activation sensitivity) and that a lowered Th_RBL can
// target precisely (High Th_RBL sensitivity). The CDF evaluation is steep
// around the money, so hash-random inputs amplify approximation error (Low
// error tolerance).
#include "workloads/apps.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kWarps = 720;
constexpr unsigned kTilesPerWarp = 4;
constexpr unsigned kTileLines = 8;

constexpr std::uint64_t kOptions = 1u << 19;  // 512K options (2MB per array).
constexpr std::uint64_t kTiles = kOptions / (kTileLines * kF32PerLine);

constexpr Addr kSpot = MiB(16);
constexpr Addr kStrike = MiB(48);
constexpr Addr kExpiry = MiB(80);
constexpr Addr kRate = MiB(112);
constexpr Addr kVol = MiB(144);
constexpr Addr kPrice = MiB(176);

constexpr Addr kArrays[5] = {kSpot, kStrike, kExpiry, kRate, kVol};

class BlackScholesWorkload final : public Workload {
 public:
  std::string name() const override { return "blackscholes"; }
  std::string description() const override {
    return "Black-Scholes option pricing (AxBench)";
  }
  unsigned group() const override { return 4; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kMedium,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = true,
            .error_tolerance = Level::kLow};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per tile: five 8-line input tiles, compute, output store.
    constexpr unsigned kStepsPerTile = 7;
    constexpr unsigned kTotal = kTilesPerWarp * kStepsPerTile;
    if (step >= kTotal) return false;

    const unsigned t = step / kStepsPerTile;
    const unsigned phase = step % kStepsPerTile;
    // Grid-strided tile order: warp w prices tiles w, w+kWarps, ...
    const std::uint64_t tile =
        (static_cast<std::uint64_t>(t) * kWarps + warp) % kTiles;
    const Addr tile_off = tile * kTileLines * kLineBytes;

    if (phase < 5) {
      op = wide_load(kArrays[phase] + tile_off, kTileLines, /*approximable=*/true);
      return true;
    }
    if (phase == 5) {
      op = gpu::WarpOp::compute(22);  // exp/log/CDF chain.
      return true;
    }
    op = wide_store(kPrice + tile_off, kTileLines);
    return true;
  }

  void init_memory(gpu::MemoryImage& image) const override {
    fill_hash_random(image, kSpot, kOptions, 0xB5, 20.0, 120.0);
    fill_hash_random(image, kStrike, kOptions, 0xB6, 30.0, 110.0);
    fill_hash_random(image, kExpiry, kOptions, 0xB7, 0.1, 2.0);
    fill_hash_random(image, kRate, kOptions, 0xB8, 0.01, 0.06);
    fill_hash_random(image, kVol, kOptions, 0xB9, 0.1, 0.6);
  }

  void compute_output(gpu::MemView& view) const override {
    const auto cdf = [](double x) {
      return 0.5 * std::erfc(-x / std::sqrt(2.0));
    };
    // One page of each array per step: five input runs in, one price run out.
    constexpr std::uint64_t kChunk = gpu::kPageBytes / 4;
    static_assert(kOptions % kChunk == 0);
    float in[5][kChunk];
    float price[kChunk];
    for (std::uint64_t first = 0; first < kOptions; first += kChunk) {
      for (unsigned a = 0; a < 5; ++a)
        view.read_f32s(f32_addr(kArrays[a], first), in[a], kChunk);
      for (std::uint64_t j = 0; j < kChunk; ++j) {
        const double s = in[0][j];
        const double k = in[1][j];
        const double t = in[2][j];
        const double r = in[3][j];
        const double v = in[4][j];
        const double sig = std::max(1e-3, v) * std::sqrt(std::max(1e-3, t));
        const double d1 =
            (std::log(std::max(1e-3, s / std::max(1e-3, k))) + (r + 0.5 * v * v) * t) / sig;
        const double d2 = d1 - sig;
        const double call = s * cdf(d1) - k * std::exp(-r * t) * cdf(d2);
        price[j] = static_cast<float>(call);
      }
      view.write_f32s(f32_addr(kPrice, first), price, kChunk);
    }
  }

  std::vector<AddrRange> output_ranges() const override {
    return {{kPrice, kOptions * 4}};
  }

  std::vector<AddrRange> approximable_ranges() const override {
    std::vector<AddrRange> out;
    for (const Addr a : kArrays) out.push_back({a, kOptions * 4});
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> make_blackscholes() {
  return std::make_unique<BlackScholesWorkload>();
}

}  // namespace lazydram::workloads
