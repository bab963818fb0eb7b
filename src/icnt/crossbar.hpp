// Crossbar interconnect (Table I: one crossbar per direction between the 30
// SMs and the 6 memory partitions).
//
// Model: per-source FIFO input queues (head-of-line blocking, as in a real
// input-queued switch), one packet accepted per destination per core cycle
// with round-robin arbitration across sources, and a fixed traversal latency.
// The same class serves both directions (SM->MC requests, MC->SM replies).
//
// Implementation: every queue is a fixed ring preallocated at its capacity,
// and each destination keeps a bitmask of the sources whose head-of-line
// packet targets it, so a grant costs a few word operations rather than a
// scan of the sources. A summary mask of the destinations some head targets
// lets a tick visit only those, and two more masks tell the caller which
// destinations hold packets to pop and which sources the last tick granted,
// so neither side of the switch has to be polled port by port.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "mem/request.hpp"

namespace lazydram::icnt {

/// One 128B-granularity message. Requests travel SM -> partition; replies
/// travel partition -> SM. Unused fields are zero for a given direction.
struct Packet {
  RequestId id = 0;
  Addr line_addr = 0;
  AccessKind kind = AccessKind::kRead;
  bool approximable = false;  ///< Request: annotated-approximable load.
  bool approximate = false;   ///< Reply: value was VP-synthesized.
  SmId src_sm = 0;            ///< Originating SM (for reply routing).
  TenantId tenant = 0;        ///< Owning client (0 in single-tenant runs).

  // Lifecycle-tracing stamps (core cycles; observational only, never
  // consulted by the switch or the receivers' logic).
  Cycle inject_cycle = 0;  ///< Request: when the SM pushed the primary load.
  Cycle eject_cycle = 0;   ///< Request: when the partition popped it.
  RequestId parent = 0;    ///< Reply: MemRequest id this packet answers.
};

class Crossbar {
 public:
  /// `output_queue_capacity` bounds the per-destination landing buffer: a
  /// destination stops granting new packets while its buffer is full, so
  /// backpressure propagates through the switch to the sources instead of
  /// packets piling up invisibly (credit-based flow control).
  Crossbar(unsigned num_sources, unsigned num_destinations, unsigned latency,
           std::size_t input_queue_capacity, std::size_t output_queue_capacity = 8);

  /// True if source `src` can inject one more packet this cycle.
  bool can_push(unsigned src) const;

  /// Injects a packet from `src` toward `dst`. Precondition: can_push(src).
  void push(unsigned src, unsigned dst, const Packet& packet);

  /// Advances one core cycle: each destination, in index order, accepts at
  /// most one head-of-line packet (round-robin over sources); accepted
  /// packets become poppable `latency` cycles later. A grant exposes the
  /// source's next packet at once, so it can still be granted this cycle by
  /// a later destination. Only destinations that some head targets are
  /// visited; the rest could grant nothing.
  void tick(Cycle now);

  /// Next packet that has arrived at `dst` by `now`, if any.
  std::optional<Packet> pop(unsigned dst, Cycle now) {
    LD_ASSERT(dst < num_dst_);
    const Ring& out = outputs_[dst];
    if (out.size == 0 || output_slots_[std::size_t{dst} * out_capacity_ + out.head].ready > now)
      return std::nullopt;
    return pop_head(dst);
  }

  /// ceil(destinations/64) words: bit `dst` is set iff `dst` holds granted
  /// packets not yet popped (arrived or still in flight). pop() on any other
  /// destination returns nothing.
  const std::vector<std::uint64_t>& buffered_destinations() const { return buffered_dst_; }

  /// ceil(sources/64) words: bit `src` is set iff the last tick() granted a
  /// packet of `src`, freeing a slot in its input queue. Grants are the only
  /// way a full input gets room again.
  const std::vector<std::uint64_t>& granted_sources() const { return granted_src_; }

  /// True when no packet is anywhere in the switch.
  bool idle() const { return queued_ == 0 && buffered_ == 0; }

  std::uint64_t delivered() const { return delivered_; }

 private:
  struct InFlight {
    Packet packet;
    Cycle ready = 0;
  };
  struct InputEntry {
    Packet packet;
    unsigned dst = 0;
  };
  /// Head index and occupancy of one fixed ring.
  struct Ring {
    std::uint32_t head = 0;
    std::uint32_t size = 0;
  };

  /// Source whose head packet `dst` grants next: the first set bit of its
  /// mask at or after rr_[dst], wrapping. -1 if no head targets `dst`.
  int next_grant(unsigned dst) const;
  void set_head_bit(unsigned src);
  /// Grants `dst` the head packet of `src`.
  void grant(unsigned dst, unsigned src, Cycle now);
  /// Removes and returns the head of `dst`'s landing buffer (non-empty).
  Packet pop_head(unsigned dst);
  /// Slot `i` (taken modulo the ring size, for i < 2x capacity) of a ring.
  InputEntry& input_slot(unsigned src, std::uint32_t i);
  InFlight& output_slot(unsigned dst, std::uint32_t i);
  std::uint64_t* mask(unsigned dst) { return &masks_[std::size_t{dst} * words_]; }

  unsigned num_src_;
  unsigned num_dst_;
  unsigned latency_;
  std::uint32_t capacity_;
  std::uint32_t out_capacity_;
  unsigned words_;      ///< 64-bit words per destination mask (over sources).
  unsigned dst_words_;  ///< 64-bit words per mask over destinations.

  std::vector<InputEntry> input_slots_;  ///< num_src_ rings of capacity_.
  std::vector<Ring> inputs_;             ///< Per source.
  std::vector<InFlight> output_slots_;   ///< num_dst_ rings of out_capacity_.
  std::vector<Ring> outputs_;            ///< Per destination.
  /// Per destination, words_ words: bit `src` is set iff source `src`'s
  /// head-of-line packet targets that destination.
  std::vector<std::uint64_t> masks_;
  /// dst_words_ words: bit `dst` is set iff masks_ for `dst` is non-zero.
  std::vector<std::uint64_t> targeted_;
  std::vector<std::uint64_t> buffered_dst_;  ///< See buffered_destinations().
  std::vector<std::uint64_t> granted_src_;   ///< See granted_sources().
  std::vector<unsigned> rr_;  ///< Per destination arbiter state.
  std::uint64_t delivered_ = 0;
  std::uint64_t queued_ = 0;    ///< Packets waiting in input queues.
  std::uint64_t buffered_ = 0;  ///< Packets granted but not yet popped.
};

}  // namespace lazydram::icnt
