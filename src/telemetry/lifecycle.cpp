#include "telemetry/lifecycle.hpp"

#include <utility>

#include "common/assert.hpp"

namespace lazydram::telemetry {

const char* req_phase_name(ReqPhase phase) {
  switch (phase) {
    case ReqPhase::kIcntRequest: return "icnt_request";
    case ReqPhase::kPartitionWait: return "partition_wait";
    case ReqPhase::kQueueWait: return "queue_wait";
    case ReqPhase::kDmsGated: return "dms_gated";
    case ReqPhase::kService: return "service";
    case ReqPhase::kReplyReturn: return "reply_return";
    case ReqPhase::kDropWait: return "drop_wait";
    case ReqPhase::kDropGated: return "drop_gated";
    case ReqPhase::kVpServe: return "vp_serve";
  }
  LD_ASSERT_MSG(false, "unreachable");
  return "?";
}

LifecycleCollector::LifecycleCollector(Tracer* tracer, std::uint64_t sample_every)
    : tracer_(tracer), sample_every_(sample_every == 0 ? 1 : sample_every) {}

void LifecycleCollector::on_request_created(RequestId id, Addr line, Cycle inject_core,
                                            Cycle eject_core, Cycle now_core) {
  if (seq_++ % sample_every_ != 0) return;
  RequestLifecycle rec;
  rec.id = id;
  rec.line_addr = line;
  rec.inject_core = inject_core;
  rec.eject_core = eject_core;
  rec.enqueue_core = now_core;
  live_.emplace(id, std::move(rec));
  by_line_[line] = id;
}

void LifecycleCollector::on_mshr_merge(Addr line) {
  const auto it = by_line_.find(line);
  if (it == by_line_.end()) return;
  const auto rec = live_.find(it->second);
  if (rec != live_.end()) ++rec->second.mshr_merges;
}

void LifecycleCollector::on_reply_pop(RequestId id, Cycle now_core) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  it->second.reply_core = now_core;
  by_line_.erase(it->second.line_addr);
}

void LifecycleCollector::on_warp_wakeup(RequestId id, Cycle now_core) {
  // The first reply packet closes the record, so later packets find none.
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  it->second.wakeup_core = now_core;
  finalize(it->second);
  live_.erase(it);
}

void LifecycleCollector::on_enqueue(const MemRequest& req, ChannelId channel, Cycle now_mem) {
  if (!req.is_read()) return;
  const auto it = live_.find(req.id);
  if (it == live_.end()) return;
  it->second.channel = channel;
  it->second.bank = static_cast<std::int32_t>(req.loc.bank);
  it->second.tenant = req.tenant;
  it->second.enqueue_mem = now_mem;
}

void LifecycleCollector::on_gate_end(RequestId id, Cycle begin_mem, Cycle end_mem) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  it->second.gates.push_back({begin_mem, end_mem});
  it->second.gated_cycles += end_mem - begin_mem;
}

void LifecycleCollector::on_cas(RequestId id, Cycle now_mem) {
  const auto it = live_.find(id);
  if (it != live_.end()) it->second.cas_mem = now_mem;
}

void LifecycleCollector::on_data_return(RequestId id, Cycle done_mem) {
  const auto it = live_.find(id);
  if (it != live_.end()) it->second.done_mem = done_mem;
}

void LifecycleCollector::on_drop(RequestId id, Cycle now_mem) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  it->second.dropped = true;
  it->second.drop_mem = now_mem;
}

void LifecycleCollector::finalize(RequestLifecycle& rec) {
  const auto hist = [this](ReqPhase p) -> Histogram& {
    return phase_hist_[static_cast<unsigned>(p)];
  };
  // Core-domain phases exist only when every bounding stamp was recorded
  // (a test driving a controller directly leaves them zero).
  if (rec.inject_core != 0 && rec.eject_core != 0)
    hist(ReqPhase::kIcntRequest).add(rec.eject_core - rec.inject_core);
  if (rec.eject_core != 0 && rec.enqueue_core != 0)
    hist(ReqPhase::kPartitionWait).add(rec.enqueue_core - rec.eject_core);
  if (rec.reply_core != 0 && rec.wakeup_core != 0)
    hist(ReqPhase::kReplyReturn).add(rec.wakeup_core - rec.reply_core);

  if (rec.dropped) {
    ++dropped_;
    hist(ReqPhase::kDropWait).add(rec.drop_mem - rec.enqueue_mem - rec.gated_cycles);
    hist(ReqPhase::kDropGated).add(rec.gated_cycles);
    hist(ReqPhase::kVpServe).add(0);  // VP synthesis is instantaneous at drop.
  } else {
    ++served_;
    hist(ReqPhase::kQueueWait).add(rec.cas_mem - rec.enqueue_mem - rec.gated_cycles);
    hist(ReqPhase::kDmsGated).add(rec.gated_cycles);
    hist(ReqPhase::kService).add(rec.done_mem - rec.cas_mem);
  }
  mshr_merges_ += rec.mshr_merges;

  if (tracer_ != nullptr) tracer_->emit_lifecycle(rec);
  if (retain_) completed_.push_back(rec);
}

LifecycleSummary LifecycleCollector::summary() const {
  LifecycleSummary s;
  s.sample_every = sample_every_;
  s.sampled = sampled();
  s.served = served_;
  s.dropped = dropped_;
  s.mshr_merges = mshr_merges_;
  s.phases.reserve(kNumReqPhases);
  for (unsigned i = 0; i < kNumReqPhases; ++i) {
    const Histogram& h = phase_hist_[i];
    LifecycleSummary::PhaseStats ps;
    ps.phase = req_phase_name(static_cast<ReqPhase>(i));
    ps.count = h.total();
    ps.mean = h.mean();
    ps.p50 = h.percentile(0.50);
    ps.p95 = h.percentile(0.95);
    ps.p99 = h.percentile(0.99);
    s.phases.push_back(ps);
  }
  return s;
}

}  // namespace lazydram::telemetry
