#include "core/ams.hpp"

#include "common/assert.hpp"

namespace lazydram::core {

AmsUnit::AmsUnit(const SchemeParams& params, bool dynamic, unsigned static_th_rbl)
    : params_(params), dynamic_(dynamic), th_rbl_(static_th_rbl) {
  LD_ASSERT(th_rbl_ >= params_.min_th_rbl && th_rbl_ <= params_.max_th_rbl);
  if (dynamic_) th_rbl_ = params_.max_th_rbl;  // Dyn-AMS starts at 8.
}

void AmsUnit::tick(Cycle now_mem, bool halted) {
  halted_ = halted;
  if (!dynamic_) return;
  if (now_mem - window_start_ < params_.profile_window) return;

  // Window boundary: adapt Th_RBL from the window's measured coverage.
  if (window_reads_ > 0) {
    const double window_coverage =
        static_cast<double>(window_drops_) / static_cast<double>(window_reads_);
    const unsigned th_before = th_rbl_;
    // The cumulative cap gates drops at exactly the target, so a window that
    // "achieves the user-defined coverage" sits marginally below it; the 5%
    // slack keeps the comparison from sticking at that boundary.
    if (window_coverage >= 0.95 * params_.coverage_cap) {
      if (th_rbl_ > params_.min_th_rbl) --th_rbl_;
    } else {
      if (th_rbl_ < params_.max_th_rbl) ++th_rbl_;
    }
    if (tracer_ != nullptr && th_rbl_ != th_before)
      tracer_->ams_threshold_change(now_mem, channel_, th_before, th_rbl_, window_coverage);
  }
  window_start_ = now_mem;
  window_reads_ = 0;
  window_drops_ = 0;
}

void AmsUnit::set_tenant_qos(const std::vector<TenantQos>& qos) {
  tenant_caps_.clear();
  tenant_reads_.assign(qos.size(), 0);
  tenant_drops_.assign(qos.size(), 0);
  for (const TenantQos& q : qos)
    tenant_caps_.push_back(q.coverage_cap < 0.0 ? params_.coverage_cap : q.coverage_cap);
}

bool AmsUnit::admits_row(const PendingQueue& queue, const MemRequest& candidate) const {
  // Criterion 1: annotated-approximable global read.
  if (!candidate.is_read() || !candidate.approximable) return false;

  // Criterion 4: the whole pending row group must be approximable reads
  // (never drop a row that pending writes will touch) and its observed RBL
  // must not exceed Th_RBL.
  const BankId bank = candidate.loc.bank;
  const RowId row = candidate.loc.row;
  if (!queue.row_group_all_approximable(bank, row)) return false;
  // Boundary audited: the paper drops when the observed RBL is <= Th_RBL
  // ("rows with a low access count"), so exact equality DOES drop — the
  // refusal is strictly `>`. Pinned by AmsUnit.DropsAtExactThRblBoundary.
  return queue.row_group_size(bank, row) <= th_rbl_;
}

void AmsUnit::on_read_received(TenantId tenant) {
  ++reads_received_;
  ++window_reads_;
  if (tenant < tenant_reads_.size()) ++tenant_reads_[tenant];
}

void AmsUnit::on_drop(TenantId tenant) {
  ++reads_dropped_;
  ++window_drops_;
  if (tenant < tenant_drops_.size()) ++tenant_drops_[tenant];
}

}  // namespace lazydram::core
