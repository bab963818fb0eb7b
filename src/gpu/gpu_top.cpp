#include "gpu/gpu_top.hpp"

#include <algorithm>
#include <bit>

#include "check/checker.hpp"
#include "check/context.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "telemetry/selfprof.hpp"

namespace lazydram::gpu {

namespace {
double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
}  // namespace

GpuTop::GpuTop(const GpuConfig& cfg, const workloads::Workload& workload,
               const SchedulerFactory& factory, RowPolicy row_policy,
               telemetry::Telemetry* telemetry, check::CheckContext* check)
    : cfg_(cfg),
      workload_(workload),
      mapper_(cfg),
      req_xbar_(cfg.num_sms, cfg.num_channels, cfg.icnt_latency, /*queue*/ 8),
      reply_xbar_(cfg.num_channels, cfg.num_sms, cfg.icnt_latency, /*queue*/ 8),
      divider_(cfg.mem_clock_mhz, cfg.core_clock_mhz) {
  cfg_.validate();

  workload_.init_memory(fmem_.image());

  sms_.reserve(cfg.num_sms);
  for (SmId s = 0; s < cfg.num_sms; ++s)
    sms_.push_back(std::make_unique<Sm>(cfg_, s, workload_, mapper_));

  // Distribute the grid's warps round-robin over the SMs (one wave; workload
  // models size their grids within max resident warps).
  const unsigned warps = workload_.num_warps();
  LD_ASSERT_MSG(warps <= cfg.num_sms * cfg.max_warps_per_sm,
                "workload grid exceeds one wave of resident warps");
  for (unsigned w = 0; w < warps; ++w) sms_[w % cfg.num_sms]->assign_warp(w);
  awake_.assign((cfg.num_sms + 63) / 64, 0);
  for (SmId s = 0; s < cfg.num_sms; ++s) awake_[s / 64] |= std::uint64_t{1} << (s % 64);
  sleep_from_.assign(cfg.num_sms, 0);

  if (telemetry != nullptr) {
    tracer_ = &telemetry->tracer();
    lifecycle_ = telemetry->lifecycle();
  }

  if (check != nullptr && !check->active()) check = nullptr;

  // Multi-tenant QoS: resolve inherit-marked caps once so every per-channel
  // component (AMS budget, checker shadow counters, recorder replay caps)
  // sees identical resolved vectors.
  std::vector<double> tenant_cov_caps;
  std::vector<Cycle> tenant_delay_caps;
  for (const TenantQos& q : cfg_.scheme.tenant_qos) {
    tenant_cov_caps.push_back(q.coverage_cap < 0.0 ? cfg_.scheme.coverage_cap
                                                   : q.coverage_cap);
    tenant_delay_caps.push_back(q.dms_delay_cap);
  }

  partitions_.reserve(cfg.num_channels);
  checkers_.assign(cfg.num_channels, nullptr);
  for (ChannelId ch = 0; ch < cfg.num_channels; ++ch) {
    Partition& p = partitions_.emplace_back(cfg.l2);
    std::unique_ptr<Scheduler> sched = factory(ch);
    p.lazy = dynamic_cast<core::LazyScheduler*>(sched.get());
    const bool hit_first = sched->traits().hit_first;
    if (tracer_ != nullptr && p.lazy != nullptr) p.lazy->set_telemetry(tracer_, ch);
    if (lifecycle_ != nullptr && p.lazy != nullptr) p.lazy->set_lifecycle(lifecycle_);
    if (p.lazy != nullptr && !cfg_.scheme.tenant_qos.empty())
      p.lazy->set_tenant_qos(cfg_.scheme.tenant_qos);
    p.mc = std::make_unique<MemoryController>(cfg_, ch, mapper_, std::move(sched),
                                              row_policy);
    if (workload_.num_tenants() > 1)
      p.mc->enable_tenant_accounting(workload_.num_tenants());
    if (tracer_ != nullptr) p.mc->set_tracer(tracer_);
    if (lifecycle_ != nullptr) p.mc->set_lifecycle(lifecycle_);
    if (check != nullptr) {
      if (check->config().mode != check::CheckMode::kOff) {
        check::CheckerOptions opts;
        opts.mode = check->config().mode;
        opts.starvation_bound = check->config().starvation_bound;
        // Policies that legitimately close rows with younger hits pending
        // (FCFS's strict age order, BLISS, batch-cap RR) declare it.
        opts.hit_first = hit_first;
        opts.ams_allowed = p.lazy != nullptr && p.lazy->spec().ams_enabled;
        opts.coverage_cap = cfg.scheme.coverage_cap;
        if (opts.ams_allowed) opts.tenant_coverage_caps = tenant_cov_caps;
        check::ProtocolChecker* ck = check->add_checker(cfg_, ch, opts);
        ck->set_tracer(tracer_);
        p.mc->set_checker(ck);
        checkers_[ch] = ck;
      }
      if (check->config().record) {
        check::ChannelRecorder* rec = check->add_recorder(ch);
        if (p.lazy != nullptr) rec->set_spec(p.lazy->spec());
        if (!tenant_delay_caps.empty()) rec->set_tenant_delay_caps(tenant_delay_caps);
        p.mc->set_recorder(rec);
      }
    }
    if (telemetry != nullptr && telemetry->window_sampling())
      p.mc->enable_window_sampling(cfg.scheme.profile_window, tracer_);
    p.vp = std::make_unique<core::ValuePredictor>(
        p.l2, fmem_, cfg.scheme.vp_set_radius,
        cfg.scheme.vp_zero_fill ? core::PredictorKind::kZeroFill
                                : core::PredictorKind::kNearestLine);
  }
}

std::uint64_t GpuTop::instructions() const {
  std::uint64_t total = 0;
  for (const auto& sm : sms_) total += sm->instructions();
  return total;
}

std::uint64_t GpuTop::tenant_instructions(TenantId t) const {
  std::uint64_t total = 0;
  for (const auto& sm : sms_) total += sm->tenant_instructions(t);
  return total;
}

Cycle GpuTop::tenant_finish_cycle(TenantId t) const {
  Cycle last = 0;
  for (const auto& sm : sms_)
    if (sm->tenant_finish_cycle(t) > last) last = sm->tenant_finish_cycle(t);
  return last;
}

void GpuTop::sleep_sm(SmId s) {
  awake_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  sleep_from_[s] = core_cycle_ + 1;
  next_sm_wake_ = std::min(next_sm_wake_, sms_[s]->park_until());
}

void GpuTop::wake_sm(SmId s, Cycle first_tick) {
  std::uint64_t& word = awake_[s / 64];
  const std::uint64_t bit = std::uint64_t{1} << (s % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  const Cycle slept = first_tick - sleep_from_[s];
  sms_[s]->add_parked_ticks(slept);
  work_.sm_ticks_slept += slept;
}

void GpuTop::wake_sms(Cycle first_tick) {
  // A grant freed a slot in a sleeping SM's crossbar input.
  const std::vector<std::uint64_t>& granted = req_xbar_.granted_sources();
  for (unsigned w = 0; w < awake_.size(); ++w)
    for (std::uint64_t bits = granted[w] & ~awake_[w]; bits != 0; bits &= bits - 1)
      wake_sm(static_cast<SmId>(w * 64 + std::countr_zero(bits)), first_tick);
  // A compute timer or L1-hit completion falls due. next_sm_wake_ may be
  // stale (its SM already woke), which only costs an extra scan.
  if (first_tick < next_sm_wake_) return;
  next_sm_wake_ = kNeverCycle;
  for (SmId s = 0; s < sms_.size(); ++s) {
    if ((awake_[s / 64] >> (s % 64)) & 1) continue;
    const Cycle due = sms_[s]->park_until();
    if (due <= first_tick)
      wake_sm(s, first_tick);
    else
      next_sm_wake_ = std::min(next_sm_wake_, due);
  }
}

bool GpuTop::finished() const {
  for (const auto& sm : sms_)
    if (!sm->all_done()) return false;
  if (!req_xbar_.idle() || !reply_xbar_.idle()) return false;
  for (const Partition& p : partitions_) {
    if (!p.input_backlog.empty() || !p.pending_mc.empty() || !p.pending_replies.empty())
      return false;
    if (!p.waiting.empty()) return false;
    if (!p.mc->idle()) return false;
  }
  return true;
}

GpuTop::BacklogKey GpuTop::backlog_key(const Partition& p) {
  return {p.mc->queue().size(), p.waiting.size(), p.pending_mc.size(), p.l2.fills()};
}

void GpuTop::handle_request_packet(Partition& p, const icnt::Packet& pkt, bool& stalled) {
  // A stalled attempt only probes (contains()) and counts nothing; the L2
  // counts one access() per packet, on the attempt that serves it.
  stalled = false;
  const bool hit = p.l2.contains(pkt.line_addr);

  if (pkt.kind == AccessKind::kWrite) {
    // Write-back for hits; write-no-allocate for misses (the store stream
    // goes straight to DRAM, becoming the pending write requests AMS must
    // respect).
    if (!hit && p.pending_mc.size() >= kPendingMcCap) {
      stalled = true;
      return;
    }
    p.l2.access(pkt.line_addr, /*is_write=*/true);
    if (hit) return;
    MemRequest req;
    req.id = next_request_id_++;
    req.line_addr = pkt.line_addr;
    req.kind = AccessKind::kWrite;
    req.tenant = pkt.tenant;
    p.pending_mc.push_back(req);
    return;
  }

  // Read. A miss merges into its line's miss-table entry, or allocates one
  // if the table and the controller's queue have room; else it stalls.
  if (!hit && (p.waiting.full() || !p.mc->can_accept()) && !p.waiting.has(pkt.line_addr)) {
    stalled = true;
    return;
  }
  p.l2.access(pkt.line_addr, /*is_write=*/false);
  if (hit) {
    icnt::Packet reply = pkt;
    reply.approximate = p.l2.line_is_approx(pkt.line_addr);
    p.pending_replies.push_back(
        PendingReply{core_cycle_ + cfg_.l2_hit_latency, reply});
    return;
  }
  if (!p.waiting.allocate(pkt.line_addr, pkt)) {
    if (lifecycle_ != nullptr) lifecycle_->on_mshr_merge(pkt.line_addr);
    return;
  }

  MemRequest req;
  req.id = next_request_id_++;
  req.line_addr = pkt.line_addr;
  req.kind = AccessKind::kRead;
  req.approximable = pkt.approximable;
  req.src_sm = pkt.src_sm;
  req.tenant = pkt.tenant;
  // Open the lifecycle record before enqueue so the controller's hook finds
  // it (the sampling decision is made inside the collector).
  if (lifecycle_ != nullptr)
    lifecycle_->on_request_created(req.id, pkt.line_addr, pkt.inject_cycle,
                                   pkt.eject_cycle, core_cycle_);
  p.mc->enqueue(req, mem_now_);
}

void GpuTop::partition_tick(Partition& p, unsigned idx, bool mem_ticked) {
  // 1. DRAM side advances in the memory clock domain; a cycle the
  //    controller proves idle is replayed instead of ticked.
  if (mem_ticked) {
    const std::uint64_t ticked = p.mc->advance(mem_now_ - 1, mem_now_);
    work_.mc_ticks += ticked;
    work_.mc_ticks_skipped += 1 - ticked;
  }

  // 2. Drain deferred MC work (write-backs, stalled writes).
  while (!p.pending_mc.empty() && p.mc->can_accept()) {
    p.mc->enqueue(p.pending_mc.front(), mem_now_);
    p.pending_mc.pop_front();
  }

  // 3. Accept request packets: backlog first (ordering), then the crossbar.
  //    The backlog holds only the handful of packets already popped before a
  //    stall; while it is non-empty the crossbar is NOT drained, so
  //    backpressure reaches the SMs instead of requests piling up where the
  //    FR-FCFS scheduler cannot see them.
  for (unsigned n = 0; n < kInputsPerCycle; ++n) {
    icnt::Packet pkt;
    const bool from_backlog = !p.input_backlog.empty();
    if (from_backlog) {
      // The head stalled on its last attempt. Its verdict reads only the
      // L2's contents, the miss table, the deferred-enqueue queue and the
      // controller's queue space, and none of them changes without moving
      // one of the key's counts; until one moves, a retry would stall again.
      if (backlog_key(p) == p.stalled_at) {
        ++work_.backlog_retries_skipped;
        break;
      }
      ++work_.backlog_retries;
      pkt = p.input_backlog.front();
    } else {
      auto popped = req_xbar_.pop(idx, core_cycle_);
      if (!popped) break;
      pkt = *popped;
      pkt.eject_cycle = core_cycle_;  // Lifecycle stamp: crossbar exit.
    }
    bool stalled = false;
    handle_request_packet(p, pkt, stalled);
    if (stalled) {
      p.stalled_at = backlog_key(p);
      if (!from_backlog) p.input_backlog.push_back(pkt);
      break;
    }
    ++work_.request_packets;
    if (from_backlog) p.input_backlog.pop_front();
  }

  // 4. Consume DRAM replies: VP-synthesize dropped reads, fill the L2, wake
  //    the waiting packets.
  for (unsigned n = 0; n < kRepliesPerCycle; ++n) {
    auto reply = p.mc->pop_reply(mem_now_);
    if (!reply) break;
    if (lifecycle_ != nullptr) lifecycle_->on_reply_pop(reply->id, core_cycle_);

    if (reply->approximate) {
      // The request never touched DRAM; the VP unit synthesizes the line
      // from the nearest valid line in nearby L2 sets (Section IV-D).
      core::ValuePredictor::Prediction pred = p.vp->predict(reply->line_addr);
      fmem_.record_approx_line(reply->line_addr, pred.data.data());
      if (tracer_ != nullptr)
        tracer_->vp_prediction(mem_now_, static_cast<ChannelId>(idx), reply->line_addr,
                               pred.donor_found, pred.donor_addr);
    }

    const cache::AccessResult fill =
        p.l2.fill(reply->line_addr, /*dirty=*/false, reply->approximate);
    if (fill.writeback) {
      MemRequest wb;
      wb.id = next_request_id_++;
      wb.line_addr = fill.evicted_line;
      wb.kind = AccessKind::kWrite;
      // The evicting request's tenant is unrelated to the victim line; the
      // writeback bills the tenant that owns the evicted address.
      wb.tenant = workload_.tenant_of_addr(fill.evicted_line);
      p.pending_mc.push_back(wb);
    }

    // release() asserts the line has a waiting L2 miss.
    for (const icnt::Packet& waiter : p.waiting.release(reply->line_addr)) {
      icnt::Packet out = waiter;
      out.approximate = reply->approximate;
      out.parent = reply->id;  // Lifecycle stamp: which request this answers.
      p.pending_replies.push_back(
          PendingReply{core_cycle_ + cfg_.l2_hit_latency, out});
    }
  }

  // 5. Return replies toward the SMs.
  while (!p.pending_replies.empty() && p.pending_replies.front().ready <= core_cycle_ &&
         reply_xbar_.can_push(idx)) {
    const icnt::Packet& out = p.pending_replies.front().packet;
    reply_xbar_.push(idx, out.src_sm, out);
    p.pending_replies.pop_front();
  }

  // 6. AMS is gated until the L2 slice is warm enough for the VP to search.
  if (!p.ams_ready && p.lazy != nullptr &&
      p.l2.fills() >= cfg_.scheme.l2_warmup_fills) {
    p.ams_ready = true;
    p.lazy->set_ams_ready(true);
  }
}

void GpuTop::step() {
  ++core_cycle_;
  const bool mem_ticked = divider_.tick() > 0;
  mem_now_ = divider_.slow_cycles();

  // Sampled step decomposition: time 1 step in 64 (SM side vs. crossbars vs.
  // partition/memory front-ends) when the self-profiler is armed. Sampling
  // keeps the clock reads off 63/64 of the hottest loop in the simulator.
  const bool sample = self_enabled_ && (core_cycle_ & 63) == 0;
  std::chrono::steady_clock::time_point t0, t1, t2, t3;
  if (sample) t0 = std::chrono::steady_clock::now();
  // Only awake SMs tick. One whose next tick would be parked sleeps instead
  // (see wake_sms()); the bits of the current word are read once, so an SM
  // that falls asleep here is not revisited.
  for (unsigned w = 0; w < awake_.size(); ++w)
    for (std::uint64_t bits = awake_[w]; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<SmId>(w * 64 + std::countr_zero(bits));
      Sm& sm = *sms_[s];
      sm.tick(core_cycle_, req_xbar_);
      ++work_.sm_ticks;
      if (sm.parked(core_cycle_ + 1, req_xbar_)) sleep_sm(s);
    }
  if (sample) t1 = std::chrono::steady_clock::now();
  req_xbar_.tick(core_cycle_);
  for (unsigned ch = 0; ch < partitions_.size(); ++ch)
    partition_tick(partitions_[ch], ch, mem_ticked);
  if (sample) t2 = std::chrono::steady_clock::now();
  reply_xbar_.tick(core_cycle_);
  // Replies go out in ascending SM order, visiting only the SMs with
  // packets in the switch's landing buffers. A reply ends a park.
  const std::vector<std::uint64_t>& buffered = reply_xbar_.buffered_destinations();
  for (unsigned w = 0; w < buffered.size(); ++w)
    for (std::uint64_t bits = buffered[w]; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<SmId>(w * 64 + std::countr_zero(bits));
      bool delivered = false;
      while (auto pkt = reply_xbar_.pop(s, core_cycle_)) {
        if (lifecycle_ != nullptr && pkt->parent != 0)
          lifecycle_->on_warp_wakeup(pkt->parent, core_cycle_);
        sms_[s]->on_reply(*pkt);
        delivered = true;
      }
      if (delivered) wake_sm(s, core_cycle_ + 1);
    }
  wake_sms(core_cycle_ + 1);
  if (sample) {
    t3 = std::chrono::steady_clock::now();
    ++self_stats_.step_samples;
    self_stats_.sm_sample_seconds += seconds_between(t0, t1);
    // The request crossbar ticks inside the t1..t2 slice with the
    // partitions; the reply-side crossbar work and the SM wake bookkeeping
    // are t2..t3. Splitting the request xbar out would cost a fifth clock
    // read for a component that is a small constant, so it is attributed to
    // the partition slice and the icnt share is a lower bound.
    self_stats_.partition_sample_seconds += seconds_between(t1, t2);
    self_stats_.icnt_sample_seconds += seconds_between(t2, t3);
  }
}

void GpuTop::register_stats(telemetry::TelemetryHub& hub) const {
  using telemetry::channel_stat;

  hub.add_counter("gpu.core_cycles", [this] { return core_cycles(); });
  hub.add_counter("gpu.mem_cycles", [this] { return mem_cycles(); });
  hub.add_counter("gpu.instructions", [this] { return instructions(); });
  hub.add_gauge("gpu.ipc", [this] { return ipc(); });

  if (num_tenants() > 1) {
    for (TenantId t = 0; t < num_tenants(); ++t) {
      const std::string pfx = "gpu.tenant" + std::to_string(t) + ".";
      hub.add_counter(pfx + "instructions",
                      [this, t] { return tenant_instructions(t); });
      hub.add_counter(pfx + "finish_cycle",
                      [this, t] { return tenant_finish_cycle(t); });
    }
  }

  for (ChannelId ch = 0; ch < num_channels(); ++ch) {
    const MemoryController* mc = partitions_[ch].mc.get();
    hub.add_counter(channel_stat("mem", ch, "reads_received"),
                    [mc] { return mc->reads_received(); });
    hub.add_counter(channel_stat("mem", ch, "writes_received"),
                    [mc] { return mc->writes_received(); });
    hub.add_counter(channel_stat("mem", ch, "reads_served"),
                    [mc] { return mc->reads_served(); });
    hub.add_counter(channel_stat("mem", ch, "writes_served"),
                    [mc] { return mc->writes_served(); });
    hub.add_counter(channel_stat("mem", ch, "reads_dropped"),
                    [mc] { return mc->reads_dropped(); });
    hub.add_counter(channel_stat("mem", ch, "read_latency_count"),
                    [mc] { return mc->read_latency().count(); });
    hub.add_gauge(channel_stat("mem", ch, "read_latency_mean"),
                  [mc] { return mc->read_latency().mean(); });
    hub.add_histogram(channel_stat("mem", ch, "read_latency"),
                      &mc->read_latency_hist());
    for (TenantId t = 0; t < mc->num_tenants(); ++t) {
      const std::string pfx = "tenant" + std::to_string(t) + ".";
      hub.add_counter(channel_stat("mem", ch, pfx + "reads_received"),
                      [mc, t] { return mc->tenant_reads_received(t); });
      hub.add_counter(channel_stat("mem", ch, pfx + "reads_served"),
                      [mc, t] { return mc->tenant_reads_served(t); });
      hub.add_counter(channel_stat("mem", ch, pfx + "reads_dropped"),
                      [mc, t] { return mc->tenant_reads_dropped(t); });
      hub.add_histogram(channel_stat("mem", ch, pfx + "read_latency"),
                        &mc->tenant_read_latency_hist(t));
    }

    const dram::DramChannel* dc = &mc->channel();
    hub.add_counter(channel_stat("dram", ch, "activations"),
                    [dc] { return dc->activations(); });
    hub.add_counter(channel_stat("dram", ch, "column_reads"),
                    [dc] { return dc->energy().read_accesses(); });
    hub.add_counter(channel_stat("dram", ch, "column_writes"),
                    [dc] { return dc->energy().write_accesses(); });
    hub.add_counter(channel_stat("dram", ch, "bus_busy_cycles"),
                    [dc] { return dc->bus_busy_cycles(); });
    hub.add_gauge(channel_stat("dram", ch, "row_energy_nj"),
                  [dc] { return dc->energy().row_energy_nj(); });
    hub.add_gauge(channel_stat("dram", ch, "access_energy_nj"),
                  [dc] { return dc->energy().access_energy_nj(); });
    hub.add_histogram(channel_stat("dram", ch, "rbl"), &dc->rbl_histogram());
    hub.add_histogram(channel_stat("dram", ch, "rbl_readonly"),
                      &dc->rbl_readonly_histogram());

    const dram::PowerAccountant* pw = &dc->power();
    hub.add_gauge(channel_stat("dram", ch, "background_energy_nj"),
                  [pw] { return pw->channel_energy().background_nj; });
    hub.add_gauge(channel_stat("dram", ch, "refresh_energy_nj"),
                  [pw] { return pw->channel_energy().refresh_nj; });
    hub.add_counter(channel_stat("dram", ch, "active_bank_cycles"),
                    [pw] { return pw->channel_active_cycles(); });
    for (unsigned b = 0; b < pw->num_banks(); ++b)
      hub.add_gauge(channel_stat("dram", ch, "bank" + std::to_string(b) + ".energy_nj"),
                    [pw, b] { return pw->bank_energy(b).total_nj(); });

    const cache::Cache* l2 = &partitions_[ch].l2;
    hub.add_counter(channel_stat("cache.l2", ch, "hits"), [l2] { return l2->hits(); });
    hub.add_counter(channel_stat("cache.l2", ch, "misses"), [l2] { return l2->misses(); });
    hub.add_counter(channel_stat("cache.l2", ch, "accesses"),
                    [l2] { return l2->accesses(); });
    hub.add_counter(channel_stat("cache.l2", ch, "fills"), [l2] { return l2->fills(); });

    const core::ValuePredictor* vp = partitions_[ch].vp.get();
    hub.add_counter(channel_stat("core", ch, "vp.predictions"),
                    [vp] { return vp->predictions(); });
    hub.add_counter(channel_stat("core", ch, "vp.zero_fills"),
                    [vp] { return vp->zero_fills(); });

    // Policy-owned stats: each scheduler registers its own entries (the lazy
    // scheduler's DMS/AMS gauges, BLISS blacklist counters, ...) under the
    // conventional per-channel prefix.
    mc->scheduler().register_stats(hub, channel_stat("core", ch, ""));

    if (const check::ProtocolChecker* ck = checkers_[ch]) {
      hub.add_counter(channel_stat("check", ch, "commands"),
                      [ck] { return ck->commands_checked(); });
      hub.add_counter(channel_stat("check", ch, "violations"),
                      [ck] { return ck->violation_count(); });
    }
  }
}

bool GpuTop::run(Cycle max_core_cycles) {
  self_enabled_ = telemetry::SelfProfiler::enabled();
  const bool heartbeat = cfg_.heartbeat_seconds > 0.0;
  run_start_wall_ = last_heartbeat_ = std::chrono::steady_clock::now();
  last_heartbeat_core_ = core_cycle_;
  if (heartbeat) {
    next_heartbeat_ =
        run_start_wall_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(cfg_.heartbeat_seconds));
  }
  {
    telemetry::SelfZone zone("gpu.run_wheel");
    run_wheel(max_core_cycles);
  }
  if (self_enabled_) {
    self_stats_.run_wall_seconds +=
        seconds_between(run_start_wall_, std::chrono::steady_clock::now());
  }
  const bool ok = finished();
  finalize();
  return ok;
}

void GpuTop::finalize() {
  // Credit the parked ticks of SMs still asleep, through the last cycle.
  for (SmId s = 0; s < sms_.size(); ++s) wake_sm(s, core_cycle_ + 1);
  for (Partition& p : partitions_) p.mc->finalize();
}

GpuTop::WorkCounts GpuTop::work_counts() const {
  WorkCounts w = work_;
  for (const Partition& p : partitions_) {
    w.policy_decides += p.mc->policy_decides();
    w.decisions_reused += p.mc->decisions_reused();
  }
  return w;
}

GpuTop::WheelSelfStats GpuTop::self_stats() const {
  WheelSelfStats s = self_stats_;
  s.serial_seconds = std::max(0.0, s.run_wall_seconds - s.mem_serial_seconds);
  return s;
}

void GpuTop::maybe_heartbeat() {
  const auto now = std::chrono::steady_clock::now();
  if (now < next_heartbeat_) return;
  next_heartbeat_ =
      now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg_.heartbeat_seconds));

  std::size_t warps_total = 0, warps_done = 0;
  for (const auto& sm : sms_) {
    warps_total += sm->resident_warps();
    warps_done += sm->done_warps();
  }
  std::size_t queued = 0;
  for (const Partition& p : partitions_) queued += p.mc->queue().size();

  const double dt = seconds_between(last_heartbeat_, now);
  const double mcps =
      dt > 0.0 ? static_cast<double>(core_cycle_ - last_heartbeat_core_) / dt / 1e6
               : 0.0;
  const double elapsed = seconds_between(run_start_wall_, now);
  const double frac =
      warps_total > 0 ? static_cast<double>(warps_done) / static_cast<double>(warps_total)
                      : 0.0;
  const double eta = frac > 0.0 ? elapsed * (1.0 - frac) / frac : -1.0;

  log_status("hb core=%llu mem=%llu %.2f Mcyc/s warps=%zu/%zu eta=%.0fs "
             "queued=%zu",
             static_cast<unsigned long long>(core_cycle_),
             static_cast<unsigned long long>(mem_now_), mcps, warps_done,
             warps_total, eta, queued);
  last_heartbeat_ = now;
  last_heartbeat_core_ = core_cycle_;
}

Cycle GpuTop::serial_next_event() const {
  const Cycle now = core_cycle_;
  // Any packet anywhere in either crossbar keeps the serial side hot: it
  // moves (or becomes poppable) on its own schedule the switch doesn't
  // expose, so poll. Idle switches tick as pure no-ops. This also covers
  // sleeping SMs, whose full crossbar inputs hold packets.
  if (!req_xbar_.idle() || !reply_xbar_.idle()) return now + 1;
  Cycle ev = kNeverCycle;
  for (const auto& sm : sms_) {
    ev = std::min(ev, sm->next_event(now));
    if (ev <= now + 1) return now + 1;
  }
  for (const Partition& p : partitions_) {
    // Backlogged inputs / deferred enqueues retry every cycle (they wait on
    // MC queue space, which the memory side frees at its own pace).
    if (!p.input_backlog.empty() || !p.pending_mc.empty()) return now + 1;
    if (!p.pending_replies.empty()) {
      // FIFO with a constant L2-hit latency: the head is the earliest.
      const Cycle ready = p.pending_replies.front().ready;
      if (ready <= now) return now + 1;
      ev = std::min(ev, ready);
    }
    // Warmup flips on the step after the threshold fill; never pending
    // across a quiet span (fills only change while the serial side is hot),
    // but cheap to be exact about.
    if (!p.ams_ready && p.lazy != nullptr &&
        p.l2.fills() >= cfg_.scheme.l2_warmup_fills)
      return now + 1;
  }
  return ev;
}

void GpuTop::run_wheel(Cycle max_core_cycles) {
  const bool heartbeat = cfg_.heartbeat_seconds > 0.0;
  while (core_cycle_ < max_core_cycles) {
    Cycle resume = std::min(serial_next_event(), max_core_cycles);
    // Never skip past a finished() poll boundary (every 1024th core cycle),
    // so the exit cycle (and core_cycles() metric) is the one a per-cycle
    // step() loop polling at that period would see.
    resume = std::min(resume, (core_cycle_ | 1023) + 1);
    // Earliest memory event the serial side could observe: a reply becoming
    // poppable or the soonest possible CAS data return. The first core cycle
    // whose step sees that memory cycle bounds the skip; everything strictly
    // before it is provably free of cross-domain traffic. Only asked when
    // the serial side is quiet: a busy one steps regardless.
    if (resume > core_cycle_ + 1) {
      Cycle mem_cross = kNeverCycle;
      for (const Partition& p : partitions_)
        mem_cross = std::min(mem_cross, p.mc->next_cross_event(mem_now_));
      if (mem_cross != kNeverCycle)
        resume = std::min(resume, core_cycle_ + divider_.fast_cycles_until(mem_cross));
    }
    if (resume <= core_cycle_ + 1) {
      step();
      if ((core_cycle_ & 1023) == 0) {
        if (finished()) return;
        if (heartbeat) maybe_heartbeat();
      }
      continue;
    }
    // Fast-forward: no serial work and no cross-domain event until `resume`.
    // Advance the memory side alone over the skipped span and land the core
    // clock at resume - 1 so the next iteration steps at `resume`.
    divider_.advance(resume - 1 - core_cycle_);
    const Cycle m_end = divider_.slow_cycles();
    if (m_end > mem_now_) {
      // Span-boundary clock reads are the whole cost of memory-side
      // attribution — the per-tick loops stay untimed.
      std::chrono::steady_clock::time_point t0;
      if (self_enabled_) t0 = std::chrono::steady_clock::now();
      run_mem_span(mem_now_, m_end);
      if (self_enabled_) {
        self_stats_.mem_serial_seconds +=
            seconds_between(t0, std::chrono::steady_clock::now());
        ++self_stats_.serial_spans;
      }
      mem_now_ = m_end;
    }
    core_cycle_ = resume - 1;
    if (heartbeat) maybe_heartbeat();
  }
}

void GpuTop::run_mem_span(Cycle m0, Cycle m1) {
  Cycle m = m0;
  while (m < m1) {
    Cycle ev = kNeverCycle;
    for (Partition& p : partitions_) ev = std::min(ev, p.mc->next_event(m));
    if (ev > m + 1) {
      const Cycle to = std::min(ev - 1, m1);
      for (Partition& p : partitions_) p.mc->advance_idle(m, to);
      m = to;
      continue;
    }
    ++m;
    for (Partition& p : partitions_) p.mc->tick(m);
  }
}

}  // namespace lazydram::gpu
