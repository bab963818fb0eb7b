#include "core/value_predictor.hpp"

#include <cstdlib>

#include "common/assert.hpp"

namespace lazydram::core {

ValuePredictor::ValuePredictor(const cache::Cache& l2, const LineReader& reader,
                               unsigned set_radius, PredictorKind kind)
    : l2_(l2), reader_(reader), set_radius_(set_radius), kind_(kind) {}

ValuePredictor::Prediction ValuePredictor::predict(Addr line_addr) {
  ++predictions_;
  Prediction p;

  if (kind_ == PredictorKind::kZeroFill) {
    ++zero_fills_;
    return p;  // data is zero-initialized.
  }

  const std::uint32_t home = l2_.set_index(line_addr);
  const std::uint32_t sets = l2_.num_sets();

  bool found = false;
  Addr best = 0;
  std::uint64_t best_dist = ~std::uint64_t{0};
  for (int d = -static_cast<int>(set_radius_); d <= static_cast<int>(set_radius_); ++d) {
    // Set indices wrap: with power-of-two sets, the neighbouring-set walk is
    // a ring (matches an index decrement/increment in hardware).
    const std::uint32_t set =
        static_cast<std::uint32_t>((static_cast<int>(home) + d + static_cast<int>(sets))) %
        sets;
    for (const Addr a : l2_.set_tags(set)) {
      // Invalid ways hold kNoLine; the dropped line itself is not cached.
      if (a == cache::Cache::kNoLine || a == line_addr) continue;
      const std::uint64_t dist = a > line_addr ? a - line_addr : line_addr - a;
      if (!found || dist < best_dist || (dist == best_dist && a < best)) {
        found = true;
        best = a;
        best_dist = dist;
      }
    }
  }

  if (!found) {
    ++zero_fills_;
    return p;  // Cold nearby sets: zero line.
  }

  p.donor_found = true;
  p.donor_addr = best;
  reader_.read_line(best, p.data.data());
  return p;
}

}  // namespace lazydram::core
