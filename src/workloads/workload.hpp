// Workload (GPGPU application model) interface.
//
// Each of the paper's 20 applications (Table II) is modeled as:
//   * a timed half — per-warp op streams (op_at) that reproduce the app's
//     memory access pattern, arithmetic intensity and footprint, and thereby
//     its Table II/III feature classification, and
//   * a functional half — input initialization (init_memory), a dataflow
//     model (compute_output) and declared output ranges, from which the
//     application error under value approximation is measured exactly as the
//     paper defines it (average relative error of outputs).
//
// The `#pragma pred_var` annotations of Listing 1 become approximable
// address ranges; op streams tag loads from those ranges.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "gpu/functional_memory.hpp"
#include "gpu/warp.hpp"

namespace lazydram::workloads {

/// Table III intensity levels.
enum class Level : std::uint8_t { kLow, kMedium, kHigh };

const char* level_name(Level level);

/// The application's Table II classification (used by the characterization
/// bench to validate that the model reproduces the paper's feature vector).
struct FeatureTargets {
  Level thrashing = Level::kLow;            ///< % requests in RBL(1-8) rows.
  Level delay_tolerance = Level::kLow;      ///< Maximum tolerable delay band.
  Level activation_sensitivity = Level::kLow;  ///< Act. reduction at DMS(2048).
  bool th_rbl_sensitive = false;            ///< Gains from lowering Th_RBL.
  Level error_tolerance = Level::kLow;      ///< App error band at 10% coverage.
};

/// Half-open byte range [base, base + bytes).
struct AddrRange {
  Addr base = 0;
  std::uint64_t bytes = 0;
  bool contains(Addr a) const { return a >= base && a - base < bytes; }
};

/// Running (sum, count) of per-output relative errors (Section II-D).
struct ErrorTally {
  double sum = 0.0;
  std::uint64_t count = 0;
  /// When set, every term is also added there, in the same order (a
  /// tenant's tally feeds the run's aggregate).
  ErrorTally* total = nullptr;

  /// Adds min(1, |approx - exact| / |exact|); a non-finite value on either
  /// side counts as 100% error.
  void add(float exact, float approx);
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  /// Result-presentation group 1-4 (Section V).
  virtual unsigned group() const = 0;
  virtual FeatureTargets targets() const = 0;

  // --- Timed half ---
  virtual unsigned num_warps() const = 0;
  /// Produces warp `warp`'s op at position `step`; returns false when the
  /// warp's program has ended. Must be deterministic and side-effect free.
  virtual bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const = 0;

  // --- Tenancy (multi-stream front-end; see workloads::MixWorkload) ---
  /// Number of independent clients multiplexed by this workload. Plain
  /// single-application models keep the default of 1.
  virtual unsigned num_tenants() const { return 1; }
  /// Owning tenant of a warp id in [0, num_warps()).
  virtual TenantId tenant_of_warp(unsigned warp) const {
    (void)warp;
    return 0;
  }
  /// Display name of a tenant (mixes return the client's spec name).
  virtual std::string tenant_name(TenantId t) const {
    std::string name = "t";
    name += std::to_string(t);  // Not "t" + ...: GCC 12 flags that -Wrestrict.
    return name;
  }
  /// Owning tenant of a byte address (tenants occupy disjoint address
  /// windows, so ownership is derivable from the address alone — used to tag
  /// L2 writebacks that no longer carry an originating packet).
  virtual TenantId tenant_of_addr(Addr addr) const {
    (void)addr;
    return 0;
  }

  // --- Functional half ---
  virtual void init_memory(gpu::MemoryImage& image) const = 0;
  /// Executes the app's dataflow against `view` (reads consult the
  /// approximate overlay when present; writes land in the view's storage).
  virtual void compute_output(gpu::MemView& view) const = 0;
  /// f32 arrays whose values constitute the application output.
  virtual std::vector<AddrRange> output_ranges() const = 0;
  /// Annotated safe-to-approximate input regions (Listing 1).
  virtual std::vector<AddrRange> approximable_ranges() const = 0;

  /// Adds each output's relative error between the exact and approximate
  /// views to `tally` (Section II-D). Default: every f32 of output_ranges(),
  /// in range order. Models whose ranges hold non-output bytes override it.
  virtual void tally_output_errors(const gpu::MemView& exact, const gpu::MemView& approx,
                                   ErrorTally& tally) const;

  /// Average relative error between the exact and approximate outputs of a
  /// finished run (Section II-D): tally_output_errors over FunctionalPasses.
  double application_error(const gpu::FunctionalMemory& fmem) const;

  /// True iff `addr` lies in an annotated approximable range.
  bool is_approximable(Addr addr) const;
};

/// The exact and approximate functional passes over one finished run: two
/// copy-on-write children of the run's image, each with the workload's
/// compute_output applied through its view (the approximate one reads the VP
/// overlay). The children own only the pages the model writes; `fmem` must
/// outlive this object and must not change meanwhile.
class FunctionalPasses {
 public:
  FunctionalPasses(const Workload& workload, const gpu::FunctionalMemory& fmem);
  FunctionalPasses(const FunctionalPasses&) = delete;
  FunctionalPasses& operator=(const FunctionalPasses&) = delete;

  const gpu::MemView& exact() const { return exact_view_; }
  const gpu::MemView& approx() const { return approx_view_; }

 private:
  gpu::MemoryImage exact_image_;
  gpu::MemoryImage approx_image_;
  gpu::MemView exact_view_;
  gpu::MemView approx_view_;
};

}  // namespace lazydram::workloads
