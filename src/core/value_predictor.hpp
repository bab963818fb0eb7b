// Value Prediction unit (Section IV-D).
//
// Approximates the value of a dropped 128B read using the intuition that
// nearby addresses store similar values: search the L2 slice's sets within
// +/- `set_radius` of the dropped line's home set and copy the valid line
// whose base address is numerically nearest. Before the L2 is warm (or if
// the nearby sets are empty) the prediction falls back to a zero line.
//
// The unit only consults the L2 *tag* arrays to choose a donor address; the
// donor's bytes are then read through a LineReader (the functional memory
// image), which is exactly the data the cache would hold.
#pragma once

#include <array>
#include <cstdint>

#include "cache/cache.hpp"
#include "common/types.hpp"

namespace lazydram::core {

/// Read access to the simulated data image (implemented by
/// gpu::FunctionalMemory; kept abstract so core/ does not depend on gpu/).
class LineReader {
 public:
  virtual ~LineReader() = default;
  virtual void read_line(Addr line_addr, std::uint8_t out[kLineBytes]) const = 0;
};

enum class PredictorKind {
  kNearestLine,  ///< The paper's VP design.
  kZeroFill,     ///< Ablation: always predict a zero line.
};

class ValuePredictor {
 public:
  ValuePredictor(const cache::Cache& l2, const LineReader& reader, unsigned set_radius,
                 PredictorKind kind = PredictorKind::kNearestLine);

  struct Prediction {
    std::array<std::uint8_t, kLineBytes> data{};
    bool donor_found = false;
    Addr donor_addr = 0;
  };

  /// Synthesizes a value for the dropped line at `line_addr`.
  Prediction predict(Addr line_addr);

  std::uint64_t predictions() const { return predictions_; }
  std::uint64_t zero_fills() const { return zero_fills_; }

 private:
  const cache::Cache& l2_;
  const LineReader& reader_;
  unsigned set_radius_;
  PredictorKind kind_;

  std::uint64_t predictions_ = 0;
  std::uint64_t zero_fills_ = 0;
};

}  // namespace lazydram::core
