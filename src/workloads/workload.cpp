#include "workloads/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace lazydram::workloads {

const char* level_name(Level level) {
  switch (level) {
    case Level::kLow: return "Low";
    case Level::kMedium: return "Medium";
    case Level::kHigh: return "High";
  }
  return "?";
}

void ErrorTally::add(float exact, float approx) {
  double error = 1.0;  // Non-finite divergence counts as 100% error.
  if (std::isfinite(exact) && std::isfinite(approx)) {
    const double denom = std::abs(static_cast<double>(exact));
    const double diff = std::abs(static_cast<double>(approx) - static_cast<double>(exact));
    // Guard tiny denominators so near-zero outputs do not explode the
    // relative metric (standard practice in approximate-computing evals).
    error = std::min(1.0, diff / std::max(denom, 1e-6));
  }
  for (ErrorTally* t = this; t != nullptr; t = t->total) {
    t->sum += error;
    ++t->count;
  }
}

FunctionalPasses::FunctionalPasses(const Workload& workload, const gpu::FunctionalMemory& fmem)
    : exact_image_(gpu::MemoryImage::copy_on_write(fmem.image())),
      approx_image_(gpu::MemoryImage::copy_on_write(fmem.image())),
      exact_view_(exact_image_, nullptr),
      approx_view_(approx_image_, &fmem.overlay()) {
  workload.compute_output(exact_view_);
  workload.compute_output(approx_view_);
}

void Workload::tally_output_errors(const gpu::MemView& exact, const gpu::MemView& approx,
                                   ErrorTally& tally) const {
  constexpr std::uint64_t kChunk = gpu::kPageBytes / 4;
  float exact_run[kChunk];
  float approx_run[kChunk];
  for (const AddrRange& range : output_ranges()) {
    LD_ASSERT_MSG(range.bytes % 4 == 0, "output ranges must be f32 arrays");
    for (std::uint64_t first = 0; first < range.bytes / 4; first += kChunk) {
      const std::uint64_t count = std::min(kChunk, range.bytes / 4 - first);
      exact.read_f32s(range.base + 4 * first, exact_run, count);
      approx.read_f32s(range.base + 4 * first, approx_run, count);
      for (std::uint64_t j = 0; j < count; ++j) tally.add(exact_run[j], approx_run[j]);
    }
  }
}

double Workload::application_error(const gpu::FunctionalMemory& fmem) const {
  const FunctionalPasses passes(*this, fmem);
  ErrorTally tally;
  tally_output_errors(passes.exact(), passes.approx(), tally);
  return tally.mean();
}

bool Workload::is_approximable(Addr addr) const {
  for (const AddrRange& range : approximable_ranges())
    if (range.contains(addr)) return true;
  return false;
}

}  // namespace lazydram::workloads
