#include "icnt/crossbar.hpp"

#include <bit>

#include "common/assert.hpp"

namespace lazydram::icnt {

namespace {
std::uint32_t wrap(std::uint32_t i, std::uint32_t capacity) {
  return i >= capacity ? i - capacity : i;
}
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
      input_slots_(static_cast<std::size_t>(num_sources) * input_queue_capacity),
      inputs_(num_sources),
      output_slots_(static_cast<std::size_t>(num_destinations) * output_queue_capacity),
      outputs_(num_destinations),
      masks_(static_cast<std::size_t>(num_destinations) * words_, 0),
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
  mask(dst)[src / 64] |= std::uint64_t{1} << (src % 64);
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
  if (queued_ == 0) return;
  // Each destination grants at most one source per cycle, round-robin from
  // its own pointer (iSLIP-style fairness). Destinations go in index order
  // and a grant publishes the source's new head before the next destination
  // looks, exactly as a scan of the queue heads would see it.
  for (unsigned dst = 0; dst < num_dst_; ++dst) {
    Ring& out = outputs_[dst];
    if (out.size >= out_capacity_) continue;  // No credit: stall.
    const int granted = next_grant(dst);
    if (granted < 0) continue;
    const unsigned src = static_cast<unsigned>(granted);
    Ring& in = inputs_[src];
    output_slot(dst, out.head + out.size) =
        InFlight{input_slot(src, in.head).packet, now + latency_};
    ++out.size;
    ++buffered_;
    mask(dst)[src / 64] &= ~(std::uint64_t{1} << (src % 64));
    in.head = wrap(in.head + 1, capacity_);
    if (--in.size > 0) set_head_bit(src);
    --queued_;
    rr_[dst] = src + 1 == num_src_ ? 0 : src + 1;
  }
}

std::optional<Packet> Crossbar::pop(unsigned dst, Cycle now) {
  LD_ASSERT(dst < num_dst_);
  Ring& out = outputs_[dst];
  if (out.size == 0) return std::nullopt;
  const InFlight& head = output_slot(dst, out.head);
  if (head.ready > now) return std::nullopt;
  Packet p = head.packet;
  out.head = wrap(out.head + 1, out_capacity_);
  --out.size;
  --buffered_;
  ++delivered_;
  return p;
}

}  // namespace lazydram::icnt
