// Crossbar tests: delivery with latency, per-destination serialization,
// round-robin fairness, input capacity and credit-based output backpressure,
// plus a seeded differential fuzz against a plain queue-scan reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>

#include "common/rng.hpp"
#include "icnt/crossbar.hpp"

namespace lazydram::icnt {
namespace {

Packet pkt(RequestId id, SmId src = 0) {
  Packet p;
  p.id = id;
  p.src_sm = src;
  return p;
}

TEST(Crossbar, DeliversAfterLatency) {
  Crossbar xbar(2, 2, /*latency=*/3, 4);
  xbar.push(0, 1, pkt(7));
  xbar.tick(10);
  EXPECT_FALSE(xbar.pop(1, 12).has_value());  // Not yet.
  const auto p = xbar.pop(1, 13);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->id, 7u);
  EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, OnePacketPerDestinationPerCycle) {
  Crossbar xbar(3, 1, 0, 4);
  for (unsigned s = 0; s < 3; ++s) xbar.push(s, 0, pkt(s));
  xbar.tick(0);
  unsigned delivered = 0;
  while (xbar.pop(0, 0)) ++delivered;
  EXPECT_EQ(delivered, 1u);
  xbar.tick(1);
  xbar.tick(2);
  while (xbar.pop(0, 2)) ++delivered;
  EXPECT_EQ(delivered, 3u);
}

TEST(Crossbar, RoundRobinAcrossSources) {
  Crossbar xbar(2, 1, 0, 4);
  xbar.push(0, 0, pkt(10));
  xbar.push(0, 0, pkt(11));
  xbar.push(1, 0, pkt(20));
  xbar.tick(0);
  xbar.tick(1);
  xbar.tick(2);
  std::vector<RequestId> order;
  while (auto p = xbar.pop(0, 2)) order.push_back(p->id);
  ASSERT_EQ(order.size(), 3u);
  // Fairness: source 1 is granted before source 0's second packet.
  EXPECT_EQ(order[1], 20u);
}

TEST(Crossbar, InputCapacityBackpressure) {
  Crossbar xbar(1, 1, 0, /*input capacity=*/2);
  xbar.push(0, 0, pkt(1));
  xbar.push(0, 0, pkt(2));
  EXPECT_FALSE(xbar.can_push(0));
  xbar.tick(0);  // Drains one.
  EXPECT_TRUE(xbar.can_push(0));
}

TEST(Crossbar, OutputCreditStallsGrants) {
  Crossbar xbar(1, 1, 0, /*input capacity=*/4, /*output capacity=*/2);
  for (RequestId i = 1; i <= 4; ++i) xbar.push(0, 0, pkt(i));
  xbar.tick(0);
  xbar.tick(1);
  xbar.tick(2);  // Output buffer full (2): no further grants.
  // The two uncredited packets are still in the input queue: exactly two of
  // its four slots are free.
  EXPECT_TRUE(xbar.can_push(0));
  xbar.push(0, 0, pkt(5));
  EXPECT_TRUE(xbar.can_push(0));
  xbar.push(0, 0, pkt(6));
  EXPECT_FALSE(xbar.can_push(0));
  std::vector<RequestId> order;
  while (auto p = xbar.pop(0, 2)) order.push_back(p->id);
  EXPECT_EQ(order, (std::vector<RequestId>{1, 2}));  // Only the credited packets crossed.
  for (Cycle c = 3; c <= 6; ++c) {
    xbar.tick(c);
    while (auto p = xbar.pop(0, c)) order.push_back(p->id);
  }
  EXPECT_EQ(order, (std::vector<RequestId>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, DeliveredCounter) {
  Crossbar xbar(1, 1, 0, 4);
  xbar.push(0, 0, pkt(1));
  xbar.tick(0);
  xbar.pop(0, 0);
  EXPECT_EQ(xbar.delivered(), 1u);
}

TEST(Crossbar, GrantExposesHeadForLaterDestinationSameTick) {
  Crossbar xbar(1, 2, 0, 4);
  xbar.push(0, 0, pkt(1));
  xbar.push(0, 1, pkt(2));  // Behind packet 1; targets the later destination.
  xbar.push(0, 0, pkt(3));  // Re-targets destination 0, already granted.
  xbar.tick(0);
  ASSERT_TRUE(xbar.pop(0, 0).has_value());
  const auto second = xbar.pop(1, 0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2u);
  EXPECT_FALSE(xbar.pop(0, 0).has_value());  // One grant per destination per tick.
  xbar.tick(1);
  EXPECT_EQ(xbar.pop(0, 1)->id, 3u);
  EXPECT_TRUE(xbar.idle());
}

// The switch as first written: per-port deques and a destinations x sources
// round-robin scan of the queue heads. Kept as the oracle the masked
// arbitration must match call for call. It also counts how often the fuzz
// reaches the cases the masks must get right.
class ReferenceCrossbar {
 public:
  ReferenceCrossbar(unsigned num_sources, unsigned num_destinations, unsigned latency,
                    std::size_t input_queue_capacity, std::size_t output_queue_capacity)
      : num_src_(num_sources),
        num_dst_(num_destinations),
        latency_(latency),
        capacity_(input_queue_capacity),
        out_capacity_(output_queue_capacity),
        inputs_(num_sources),
        outputs_(num_destinations),
        rr_(num_destinations, 0) {}

  bool can_push(unsigned src) const { return inputs_[src].size() < capacity_; }

  void push(unsigned src, unsigned dst, const Packet& packet) {
    inputs_[src].push_back(InputEntry{packet, dst});
  }

  void tick(Cycle now) {
    granted.assign(num_src_, false);
    std::vector<unsigned> granted_src(num_dst_, num_src_);
    for (unsigned dst = 0; dst < num_dst_; ++dst) {
      const bool pending = std::any_of(inputs_.begin(), inputs_.end(), [&](const auto& q) {
        return !q.empty() && q.front().dst == dst;
      });
      if (outputs_[dst].size() >= out_capacity_) {
        if (pending) ++credit_stalls;
        continue;
      }
      for (unsigned i = 0; i < num_src_; ++i) {
        const unsigned src = (rr_[dst] + i) % num_src_;
        auto& q = inputs_[src];
        if (q.empty() || q.front().dst != dst) continue;
        if (src < rr_[dst]) ++wraps;
        for (unsigned d = 0; d < dst; ++d)
          if (granted_src[d] == src) ++same_tick_regrants;
        granted_src[dst] = src;
        granted[src] = true;
        outputs_[dst].push_back(InFlight{q.front().packet, now + latency_});
        q.pop_front();
        rr_[dst] = (src + 1) % num_src_;
        break;
      }
    }
  }

  std::optional<Packet> pop(unsigned dst, Cycle now) {
    auto& q = outputs_[dst];
    if (q.empty() || q.front().ready > now) return std::nullopt;
    Packet p = q.front().packet;
    q.pop_front();
    ++delivered_;
    return p;
  }

  bool idle() const {
    for (const auto& q : inputs_)
      if (!q.empty()) return false;
    for (const auto& q : outputs_)
      if (!q.empty()) return false;
    return true;
  }

  std::uint64_t delivered() const { return delivered_; }

  /// Destinations holding granted packets not yet popped.
  std::vector<unsigned> buffered_destinations() const {
    std::vector<unsigned> out;
    for (unsigned dst = 0; dst < num_dst_; ++dst)
      if (!outputs_[dst].empty()) out.push_back(dst);
    return out;
  }
  /// Sources granted by the last tick.
  std::vector<unsigned> granted_sources() const {
    std::vector<unsigned> out;
    for (unsigned src = 0; src < granted.size(); ++src)
      if (granted[src]) out.push_back(src);
    return out;
  }

  std::vector<bool> granted;             ///< Per source: granted by the last tick.
  std::uint64_t credit_stalls = 0;       ///< A head waited on a full output.
  std::uint64_t wraps = 0;               ///< Grant wrapped past the last source.
  std::uint64_t same_tick_regrants = 0;  ///< Source granted twice in one tick.

 private:
  struct InFlight {
    Packet packet;
    Cycle ready = 0;
  };
  struct InputEntry {
    Packet packet;
    unsigned dst = 0;
  };

  unsigned num_src_;
  unsigned num_dst_;
  unsigned latency_;
  std::size_t capacity_;
  std::size_t out_capacity_;
  std::vector<std::deque<InputEntry>> inputs_;
  std::vector<std::deque<InFlight>> outputs_;
  std::vector<unsigned> rr_;
  std::uint64_t delivered_ = 0;
};

struct FuzzShape {
  unsigned sources;
  unsigned destinations;
  unsigned latency;
  std::size_t in_cap;
  std::size_t out_cap;
  unsigned push_attempts;  ///< Per cycle, each from a random source.
  unsigned pop_percent;    ///< Chance a destination drains in a cycle.
};

/// The set bits of a multi-word mask, ascending.
std::vector<unsigned> set_bits(const std::vector<std::uint64_t>& mask) {
  std::vector<unsigned> out;
  for (unsigned w = 0; w < mask.size(); ++w)
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
      out.push_back(w * 64 + static_cast<unsigned>(std::countr_zero(bits)));
  return out;
}

/// Drives the switch and the reference with one seeded push/tick/pop
/// sequence, checks every observable after every call, then checks the run
/// reached every case the masks must get right. Destinations are drawn
/// skewed toward low indices so some outputs back up while others run dry.
void fuzz_shape(const FuzzShape& shape, std::uint64_t seed, Cycle cycles) {
  SCOPED_TRACE(testing::Message() << shape.sources << "x" << shape.destinations
                                  << " seed " << seed);
  Crossbar dut(shape.sources, shape.destinations, shape.latency, shape.in_cap,
               shape.out_cap);
  ReferenceCrossbar ref(shape.sources, shape.destinations, shape.latency, shape.in_cap,
                        shape.out_cap);
  Rng rng(seed);
  RequestId next_id = 0;
  const auto same_state = [&] {
    return dut.delivered() == ref.delivered() && dut.idle() == ref.idle();
  };
  for (Cycle now = 0; now < cycles; ++now) {
    for (unsigned n = 0; n < shape.push_attempts; ++n) {
      const auto src = static_cast<unsigned>(rng.next_below(shape.sources));
      ASSERT_EQ(dut.can_push(src), ref.can_push(src)) << "cycle " << now;
      if (!dut.can_push(src)) continue;
      const auto dst = static_cast<unsigned>(
          std::min(rng.next_below(shape.destinations), rng.next_below(shape.destinations)));
      const Packet p = pkt(++next_id, static_cast<SmId>(src));
      dut.push(src, dst, p);
      ref.push(src, dst, p);
      ASSERT_TRUE(same_state()) << "after push at cycle " << now;
    }
    dut.tick(now);
    ref.tick(now);
    ASSERT_TRUE(same_state()) << "after tick at cycle " << now;
    ASSERT_EQ(set_bits(dut.granted_sources()), ref.granted_sources()) << "cycle " << now;
    ASSERT_EQ(set_bits(dut.buffered_destinations()), ref.buffered_destinations())
        << "cycle " << now;
    for (unsigned dst = 0; dst < shape.destinations; ++dst) {
      if (rng.next_below(100) >= shape.pop_percent) continue;
      const unsigned budget = 1 + static_cast<unsigned>(rng.next_below(3));
      for (unsigned k = 0; k < budget; ++k) {
        const auto got = dut.pop(dst, now);
        const auto want = ref.pop(dst, now);
        ASSERT_EQ(got.has_value(), want.has_value()) << "pop " << dst << " at " << now;
        ASSERT_TRUE(same_state()) << "after pop at cycle " << now;
        if (!want) break;
        ASSERT_EQ(got->id, want->id) << "pop " << dst << " at " << now;
        ASSERT_EQ(got->src_sm, want->src_sm);
      }
    }
    ASSERT_EQ(set_bits(dut.buffered_destinations()), ref.buffered_destinations())
        << "after pops at cycle " << now;
  }
  EXPECT_GT(ref.delivered(), 1000u);
  EXPECT_GT(ref.credit_stalls, 0u);
  EXPECT_GT(ref.same_tick_regrants, 0u);
  if (shape.sources > 1) {
    EXPECT_GT(ref.wraps, 0u);
  }
}

TEST(CrossbarFuzz, MatchesReferenceScan) {
  const FuzzShape shapes[] = {
      {30, 6, 4, 8, 8, 12, 70},  // Request side: many sources, few outputs.
      {6, 30, 4, 8, 8, 6, 60},   // Reply side.
      {5, 3, 0, 3, 1, 4, 40},    // Zero latency, single-credit outputs.
      {1, 4, 2, 2, 2, 2, 50},    // One source feeding several outputs.
  };
  for (const FuzzShape& shape : shapes)
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      fuzz_shape(shape, seed, 4000);
      if (HasFatalFailure()) return;
    }
}

TEST(CrossbarFuzz, MatchesReferenceScanBeyond64Sources) {
  // Multi-word masks: 130 sources span three words, the last partly used;
  // 64 and 65 sit on either side of the first word boundary. 70 and 130
  // destinations do the same for the destination-side masks.
  const FuzzShape shapes[] = {
      {130, 5, 3, 4, 4, 40, 60},
      {64, 3, 1, 2, 2, 20, 50},
      {65, 70, 2, 2, 3, 30, 40},
      {130, 130, 2, 2, 2, 60, 40},  // Multi-word masks on both sides.
  };
  for (const FuzzShape& shape : shapes) {
    fuzz_shape(shape, 7, 3000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lazydram::icnt
