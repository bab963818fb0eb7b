#include "workloads/patterns.hpp"

#include <algorithm>
#include <cmath>

namespace lazydram::workloads {
namespace {

/// Writes arr[i] = value(i) for i in [0, n), one page of values per span write.
template <class Value>
void fill_by_page(gpu::MemoryImage& image, Addr base, std::uint64_t n, Value value) {
  constexpr std::uint64_t kPerPage = gpu::kPageBytes / 4;
  float page[kPerPage];
  for (std::uint64_t start = 0; start < n; start += kPerPage) {
    const std::uint64_t count = std::min(kPerPage, n - start);
    for (std::uint64_t j = 0; j < count; ++j) page[j] = value(start + j);
    image.write_f32s(f32_addr(base, start), page, count);
  }
}

}  // namespace

void fill_smooth(gpu::MemoryImage& image, Addr base, std::uint64_t n, double amplitude,
                 double freq, double offset) {
  constexpr double kTwoPi = 6.283185307179586;
  fill_by_page(image, base, n, [&](std::uint64_t i) {
    const double phase = kTwoPi * freq * static_cast<double>(i) / static_cast<double>(n);
    return static_cast<float>(offset + amplitude * std::sin(phase));
  });
}

void fill_hash_random(gpu::MemoryImage& image, Addr base, std::uint64_t n,
                      std::uint64_t seed, double lo, double hi) {
  fill_by_page(image, base, n, [&](std::uint64_t i) {
    const double u = mix_unit(seed * 0x9e3779b97f4a7c15ULL + i);
    return static_cast<float>(lo + (hi - lo) * u);
  });
}

void fill_linear(gpu::MemoryImage& image, Addr base, std::uint64_t n, double start,
                 double slope) {
  fill_by_page(image, base, n, [&](std::uint64_t i) {
    return static_cast<float>(start + slope * static_cast<double>(i));
  });
}

}  // namespace lazydram::workloads
