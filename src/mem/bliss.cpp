#include "mem/bliss.hpp"

#include "common/assert.hpp"
#include "telemetry/hub.hpp"

namespace lazydram {

BlissScheduler::BlissScheduler(const PolicyParams& p, unsigned num_sms)
    : Scheduler(SchedulerTraits{/*hit_first=*/false, /*memo_safe=*/false}),
      threshold_(p.bliss_threshold),
      clear_interval_(p.bliss_clear_interval),
      blacklist_(num_sms, 0),
      next_clear_(p.bliss_clear_interval) {
  LD_ASSERT(threshold_ > 0 && clear_interval_ > 0);
}

Decision BlissScheduler::decide(const PendingQueue& queue, const BankView& bank,
                                Cycle now) {
  (void)now;
  // Rank = blacklisted*2 + !row_hit, so non-blacklisted hits (0) beat
  // non-blacklisted misses (1) beat blacklisted hits (2) beat blacklisted
  // misses (3). The per-bank list is arrival-ordered, so the first request
  // seen at the best rank is also the oldest at that rank.
  const MemRequest* best = nullptr;
  unsigned best_rank = 4;
  for (const MemRequest* req : queue.bank_requests(bank.bank)) {
    const bool listed = req->src_sm != MemRequest::kNoSm && blacklist_[req->src_sm];
    const bool hit = bank.row_open && req->loc.row == bank.open_row;
    const unsigned rank = (listed ? 2u : 0u) + (hit ? 0u : 1u);
    if (rank < best_rank) {
      best = req;
      best_rank = rank;
      if (rank == 0) break;
    }
  }
  return best == nullptr ? Decision::none() : Decision::serve(best->id);
}

void BlissScheduler::tick(Cycle now, std::uint64_t bus_busy_total) {
  (void)bus_busy_total;
  if (now < next_clear_) return;
  bool any = false;
  for (std::uint8_t& b : blacklist_) {
    any |= b != 0;
    b = 0;
  }
  if (any) ++clear_events_;
  streak_sm_ = MemRequest::kNoSm;
  streak_ = 0;
  // Catch up past idle stretches without looping interval by interval.
  next_clear_ += ((now - next_clear_) / clear_interval_ + 1) * clear_interval_;
}

void BlissScheduler::on_serve(const MemRequest& req) {
  // Writes carry no SM: they neither extend nor break a streak (a dirty
  // eviction interleaved into an SM's stream should not launder its streak).
  if (req.src_sm == MemRequest::kNoSm) return;
  if (req.src_sm == streak_sm_) {
    if (++streak_ >= threshold_) {
      if (!blacklist_[streak_sm_]) {
        blacklist_[streak_sm_] = 1;
        ++blacklist_events_;
      }
      streak_ = 0;
    }
  } else {
    streak_sm_ = req.src_sm;
    streak_ = 1;
  }
}

void BlissScheduler::register_stats(telemetry::TelemetryHub& hub,
                                    const std::string& prefix) const {
  hub.add_counter(prefix + "bliss.blacklist_events", [this] { return blacklist_events_; });
  hub.add_counter(prefix + "bliss.clear_events", [this] { return clear_events_; });
  hub.add_gauge(prefix + "bliss.blacklisted_sms", [this] {
    double n = 0;
    for (std::uint8_t b : blacklist_) n += b != 0 ? 1.0 : 0.0;
    return n;
  });
}

}  // namespace lazydram
