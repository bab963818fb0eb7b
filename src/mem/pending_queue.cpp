#include "mem/pending_queue.hpp"

namespace lazydram {

namespace {

/// True for members that keep an all-approximable group droppable.
bool approximable_read(const MemRequest& req) {
  return req.is_read() && req.approximable;
}

}  // namespace

PendingQueue::PendingQueue(std::size_t capacity, unsigned num_banks)
    : capacity_(capacity), pool_(capacity), banks_(num_banks), group_pool_(capacity) {
  LD_ASSERT_MSG(num_banks <= 64, "the non-empty bank mask is one 64-bit word");
  free_.reserve(capacity);
  group_free_.reserve(capacity);
  // Hand out pool slots front-to-back on first use (LIFO free list seeded in
  // reverse), purely so freshly-touched memory stays contiguous.
  for (std::size_t i = capacity; i > 0; --i) {
    free_.push_back(&pool_[i - 1]);
    group_free_.push_back(&group_pool_[i - 1]);
  }
  groups_.init(capacity);
  by_id_.init(capacity);
}

void PendingQueue::push(MemRequest req) {
  LD_ASSERT_MSG(!full(), "push into full pending queue");
  LD_ASSERT_MSG(req.loc.bank < banks_.size(), "request bank out of range");
  LD_ASSERT_MSG(req.loc.row < (RowId{1} << 32), "request row exceeds group key space");
  LD_ASSERT_MSG(by_id_.find(req.id) == nullptr, "duplicate request id");

  Node* n = free_.back();
  free_.pop_back();
  *n = Node{};
  n->req = std::move(req);

  // Global arrival list.
  n->prev = tail_;
  if (tail_ != nullptr)
    tail_->next = n;
  else
    head_ = n;
  tail_ = n;

  // Per-bank arrival list.
  BankIndex& b = banks_[n->req.loc.bank];
  n->bank_prev = b.tail;
  if (b.tail != nullptr)
    b.tail->bank_next = n;
  else
    b.head = n;
  b.tail = n;
  ++b.size;
  nonempty_ |= std::uint64_t{1} << n->req.loc.bank;

  // Row group: find-or-create, append, bump aggregates.
  const std::uint64_t key = group_key(n->req.loc.bank, n->req.loc.row);
  RowGroup* g;
  if (RowGroup** found = groups_.find(key); found != nullptr) {
    g = *found;
  } else {
    g = group_free_.back();
    group_free_.pop_back();
    *g = RowGroup{};
    groups_.insert(key, g);
  }
  n->group = g;
  n->row_prev = g->tail;
  if (g->tail != nullptr)
    g->tail->row_next = n;
  else
    g->head = n;
  g->tail = n;
  ++g->size;
  if (!n->req.is_read()) ++g->writes;
  if (!approximable_read(n->req)) ++g->non_approx;

  by_id_.insert(n->req.id, n);
  ++size_;
}

MemRequest PendingQueue::erase(RequestId id) {
  Node** found = by_id_.find(id);
  LD_ASSERT_MSG(found != nullptr, "erase of unknown request id");
  Node* n = *found;

  // Global arrival list.
  if (n->prev != nullptr)
    n->prev->next = n->next;
  else
    head_ = n->next;
  if (n->next != nullptr)
    n->next->prev = n->prev;
  else
    tail_ = n->prev;

  // Per-bank arrival list.
  BankIndex& b = banks_[n->req.loc.bank];
  if (n->bank_prev != nullptr)
    n->bank_prev->bank_next = n->bank_next;
  else
    b.head = n->bank_next;
  if (n->bank_next != nullptr)
    n->bank_next->bank_prev = n->bank_prev;
  else
    b.tail = n->bank_prev;
  if (--b.size == 0) nonempty_ &= ~(std::uint64_t{1} << n->req.loc.bank);

  // Row group: unlink, decay aggregates, retire the group when it empties.
  RowGroup& g = *n->group;
  if (n->row_prev != nullptr)
    n->row_prev->row_next = n->row_next;
  else
    g.head = n->row_next;
  if (n->row_next != nullptr)
    n->row_next->row_prev = n->row_prev;
  else
    g.tail = n->row_prev;
  --g.size;
  if (!n->req.is_read()) --g.writes;
  if (!approximable_read(n->req)) --g.non_approx;
  if (g.size == 0) {
    groups_.erase(group_key(n->req.loc.bank, n->req.loc.row));
    group_free_.push_back(&g);
  }

  MemRequest out = std::move(n->req);
  by_id_.erase(id);
  free_.push_back(n);
  --size_;
  return out;
}

const MemRequest* PendingQueue::find(RequestId id) const {
  const Node* const* found = by_id_.find(id);
  return found == nullptr ? nullptr : &(*found)->req;
}

}  // namespace lazydram
