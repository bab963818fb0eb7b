// Plain FCFS scheduler — the classic in-order baseline used by the ablation
// benches to quantify how much of the baseline's row locality FR-FCFS's
// re-ordering already provides. Serves each bank's requests strictly in
// arrival order (no row-hit prioritization).
#pragma once

#include "mem/scheduler.hpp"

namespace lazydram {

class FcfsScheduler : public Scheduler {
 public:
  /// Strict age order closes an open row even while hits for it pend.
  FcfsScheduler() : Scheduler(SchedulerTraits{/*hit_first=*/false}) {}

  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override;

  /// Stateless per tick: an idle channel never changes a future decision.
  Cycle next_tick_event(Cycle now) const override {
    (void)now;
    return kNeverCycle;
  }
};

}  // namespace lazydram
