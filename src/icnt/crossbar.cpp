#include "icnt/crossbar.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace lazydram::icnt {

namespace {
std::uint32_t wrap(std::uint32_t i, std::uint32_t capacity) {
  return i >= capacity ? i - capacity : i;
}

std::uint64_t bit(unsigned i) { return std::uint64_t{1} << (i % 64); }
}  // namespace

Crossbar::InputEntry& Crossbar::input_slot(unsigned src, std::uint32_t i) {
  return input_slots_[std::size_t{src} * capacity_ + wrap(i, capacity_)];
}

Crossbar::InFlight& Crossbar::output_slot(unsigned dst, std::uint32_t i) {
  return output_slots_[std::size_t{dst} * out_capacity_ + wrap(i, out_capacity_)];
}

Crossbar::Crossbar(unsigned num_sources, unsigned num_destinations, unsigned latency,
                   std::size_t input_queue_capacity, std::size_t output_queue_capacity)
    : num_src_(num_sources),
      num_dst_(num_destinations),
      latency_(latency),
      capacity_(static_cast<std::uint32_t>(input_queue_capacity)),
      out_capacity_(static_cast<std::uint32_t>(output_queue_capacity)),
      words_((num_sources + 63) / 64),
      dst_words_((num_destinations + 63) / 64),
      input_slots_(static_cast<std::size_t>(num_sources) * input_queue_capacity),
      inputs_(num_sources),
      output_slots_(static_cast<std::size_t>(num_destinations) * output_queue_capacity),
      outputs_(num_destinations),
      masks_(static_cast<std::size_t>(num_destinations) * words_, 0),
      targeted_(dst_words_, 0),
      buffered_dst_(dst_words_, 0),
      granted_src_(words_, 0),
      rr_(num_destinations, 0) {
  LD_ASSERT(num_sources > 0 && num_destinations > 0 && input_queue_capacity > 0);
  LD_ASSERT(output_queue_capacity > 0);
  LD_ASSERT(input_queue_capacity <= UINT32_MAX && output_queue_capacity <= UINT32_MAX);
}

bool Crossbar::can_push(unsigned src) const {
  LD_ASSERT(src < num_src_);
  return inputs_[src].size < capacity_;
}

void Crossbar::set_head_bit(unsigned src) {
  const unsigned dst = input_slot(src, inputs_[src].head).dst;
  mask(dst)[src / 64] |= bit(src);
  targeted_[dst / 64] |= bit(dst);
}

void Crossbar::push(unsigned src, unsigned dst, const Packet& packet) {
  LD_ASSERT_MSG(can_push(src), "push into full crossbar input queue");
  LD_ASSERT(dst < num_dst_);
  Ring& in = inputs_[src];
  input_slot(src, in.head + in.size) = InputEntry{packet, dst};
  if (in.size++ == 0) set_head_bit(src);
  ++queued_;
}

int Crossbar::next_grant(unsigned dst) const {
  const std::uint64_t* m = &masks_[std::size_t{dst} * words_];
  const unsigned start = rr_[dst];
  unsigned w = start / 64;
  // First the start word from bit `start` up, then every word in turn back
  // round to the start word, whose low bits are the wrapped-around sources.
  std::uint64_t bits = m[w] & (~std::uint64_t{0} << (start % 64));
  for (unsigned n = 0; n <= words_; ++n) {
    if (bits != 0) return static_cast<int>(w * 64 + std::countr_zero(bits));
    w = w + 1 == words_ ? 0 : w + 1;
    bits = m[w];
  }
  return -1;
}

void Crossbar::tick(Cycle now) {
  std::fill(granted_src_.begin(), granted_src_.end(), std::uint64_t{0});
  if (queued_ == 0) return;
  // Each destination grants at most one source per cycle, round-robin from
  // its own pointer (iSLIP-style fairness). Destinations go in index order
  // and a grant publishes the source's new head before the next destination
  // looks, exactly as a scan of the queue heads would see it. The scan
  // re-reads the live summary word after each grant, so a new head aimed at
  // a later destination is still seen this tick.
  for (unsigned w = 0; w < dst_words_; ++w) {
    std::uint64_t pending = targeted_[w];
    while (pending != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(pending));
      const unsigned dst = w * 64 + b;
      if (outputs_[dst].size < out_capacity_) {  // Else no credit: stall.
        const int src = next_grant(dst);
        LD_ASSERT(src >= 0);  // A targeted destination has a head to grant.
        grant(dst, static_cast<unsigned>(src), now);
      }
      pending = b == 63 ? 0 : targeted_[w] & (~std::uint64_t{0} << (b + 1));
    }
  }
}

void Crossbar::grant(unsigned dst, unsigned src, Cycle now) {
  Ring& out = outputs_[dst];
  Ring& in = inputs_[src];
  output_slot(dst, out.head + out.size) =
      InFlight{input_slot(src, in.head).packet, now + latency_};
  if (out.size++ == 0) buffered_dst_[dst / 64] |= bit(dst);
  ++buffered_;
  std::uint64_t* m = mask(dst);
  m[src / 64] &= ~bit(src);
  if (std::all_of(m, m + words_, [](std::uint64_t word) { return word == 0; }))
    targeted_[dst / 64] &= ~bit(dst);
  granted_src_[src / 64] |= bit(src);
  in.head = wrap(in.head + 1, capacity_);
  if (--in.size > 0) set_head_bit(src);
  --queued_;
  rr_[dst] = src + 1 == num_src_ ? 0 : src + 1;
}

Packet Crossbar::pop_head(unsigned dst) {
  Ring& out = outputs_[dst];
  Packet p = output_slot(dst, out.head).packet;
  out.head = wrap(out.head + 1, out_capacity_);
  if (--out.size == 0) buffered_dst_[dst / 64] &= ~bit(dst);
  --buffered_;
  ++delivered_;
  return p;
}

}  // namespace lazydram::icnt
