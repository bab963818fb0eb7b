#include "mem/batch_rr.hpp"

#include "common/assert.hpp"
#include "telemetry/hub.hpp"

namespace lazydram {

BatchRrScheduler::BatchRrScheduler(const PolicyParams& p, unsigned num_banks)
    : Scheduler(SchedulerTraits{/*hit_first=*/false}),
      cap_(p.rr_cap),
      last_row_(num_banks, kInvalidRow),
      streak_(num_banks, 0) {
  LD_ASSERT(cap_ > 0);
}

const MemRequest* BatchRrScheduler::oldest_other_row(const PendingQueue& queue,
                                                     BankId bank, RowId avoid) {
  for (const MemRequest* req : queue.bank_requests(bank))
    if (req->loc.row != avoid) return req;
  return nullptr;
}

Decision BatchRrScheduler::decide(const PendingQueue& queue, const BankView& bank,
                                  Cycle now) {
  (void)now;
  const bool capped =
      streak_[bank.bank] >= cap_ && bank.row_open && bank.open_row == last_row_[bank.bank];
  if (bank.row_open && !capped) {
    if (const MemRequest* hit = queue.oldest_for_row(bank.bank, bank.open_row))
      return Decision::serve(hit->id);
  }
  if (capped) {
    // Rotate: oldest request of another row. When only the capped row pends,
    // the cap is waived — there is no competition to be fair to (and serving
    // the hit is the only livelock-free answer once the engine PREs/ACTs).
    if (const MemRequest* other = oldest_other_row(queue, bank.bank, bank.open_row))
      return Decision::serve(other->id);
    if (const MemRequest* hit = queue.oldest_for_row(bank.bank, bank.open_row))
      return Decision::serve(hit->id);
    return Decision::none();
  }
  if (!bank.row_open && streak_[bank.bank] >= cap_) {
    // The capped row was closed (by our own rotation PRE) but the streak has
    // not been broken by a serve yet. Steering back to last_row_ here would
    // re-ACT it, get capped again, PRE again — a PRE/ACT livelock with zero
    // column accesses. Keep steering away until another row's access lands.
    if (const MemRequest* other = oldest_other_row(queue, bank.bank, last_row_[bank.bank]))
      return Decision::serve(other->id);
  }
  if (const MemRequest* oldest = queue.oldest_for_bank(bank.bank))
    return Decision::serve(oldest->id);
  return Decision::none();
}

void BatchRrScheduler::on_serve(const MemRequest& req) {
  const BankId b = req.loc.bank;
  if (req.loc.row == last_row_[b]) {
    ++streak_[b];
  } else {
    if (streak_[b] >= cap_) ++rotations_;
    last_row_[b] = req.loc.row;
    streak_[b] = 1;
  }
}

void BatchRrScheduler::register_stats(telemetry::TelemetryHub& hub,
                                      const std::string& prefix) const {
  hub.add_counter(prefix + "batch_rr.rotations", [this] { return rotations_; });
}

}  // namespace lazydram
