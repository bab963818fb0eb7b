// PendingQueue unit tests: arrival ordering, per-bank indexing, row-group
// queries, erase semantics and capacity behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "dram/address.hpp"
#include "mem/pending_queue.hpp"

namespace lazydram {
namespace {

class QueueTest : public ::testing::Test {
 protected:
  QueueTest() : mapper_(cfg()), queue_(8, 16) {}

  static GpuConfig cfg() {
    GpuConfig c;
    c.validate();
    return c;
  }

  MemRequest make(RequestId id, BankId bank, RowId row, std::uint32_t col,
                  AccessKind kind = AccessKind::kRead, bool approx = false) {
    MemRequest r;
    r.id = id;
    r.line_addr = mapper_.compose(0, bank, row, col * kLineBytes);
    r.kind = kind;
    r.approximable = approx;
    r.loc = mapper_.map(r.line_addr);
    return r;
  }

  AddressMapper mapper_;
  PendingQueue queue_;
};

TEST_F(QueueTest, OldestForBankFollowsArrivalOrder) {
  queue_.push(make(1, 3, 5, 0));
  queue_.push(make(2, 3, 9, 0));
  queue_.push(make(3, 4, 2, 0));
  EXPECT_EQ(queue_.oldest_for_bank(3)->id, 1u);
  EXPECT_EQ(queue_.oldest_for_bank(4)->id, 3u);
  EXPECT_EQ(queue_.oldest_for_bank(5), nullptr);
  EXPECT_EQ(queue_.oldest()->id, 1u);
}

TEST_F(QueueTest, OldestForRowSkipsOtherRows) {
  queue_.push(make(1, 2, 7, 0));
  queue_.push(make(2, 2, 8, 0));
  queue_.push(make(3, 2, 8, 1));
  EXPECT_EQ(queue_.oldest_for_row(2, 8)->id, 2u);
  EXPECT_EQ(queue_.oldest_for_row(2, 1), nullptr);
}

TEST_F(QueueTest, RowGroupQueries) {
  queue_.push(make(1, 1, 4, 0, AccessKind::kRead, true));
  queue_.push(make(2, 1, 4, 1, AccessKind::kRead, true));
  queue_.push(make(3, 1, 4, 2, AccessKind::kWrite));
  queue_.push(make(4, 1, 5, 0, AccessKind::kRead, false));

  EXPECT_EQ(queue_.row_group_size(1, 4), 3u);
  EXPECT_FALSE(queue_.row_group_all_reads(1, 4));
  EXPECT_FALSE(queue_.row_group_all_approximable(1, 4));
  EXPECT_TRUE(queue_.row_group_all_reads(1, 5));
  EXPECT_FALSE(queue_.row_group_all_approximable(1, 5));  // Not annotated.
}

TEST_F(QueueTest, EraseRemovesFromAllIndexes) {
  queue_.push(make(1, 6, 1, 0));
  queue_.push(make(2, 6, 1, 1));
  const MemRequest erased = queue_.erase(1);
  EXPECT_EQ(erased.id, 1u);
  EXPECT_EQ(queue_.size(), 1u);
  EXPECT_EQ(queue_.oldest_for_bank(6)->id, 2u);
  EXPECT_EQ(queue_.row_group_size(6, 1), 1u);
  EXPECT_EQ(queue_.find(1), nullptr);
  EXPECT_NE(queue_.find(2), nullptr);
}

TEST_F(QueueTest, CapacityAndFull) {
  for (RequestId i = 1; i <= 8; ++i) queue_.push(make(i, 0, i, 0));
  EXPECT_TRUE(queue_.full());
  queue_.erase(4);
  EXPECT_FALSE(queue_.full());
  EXPECT_EQ(queue_.size(), 7u);
}

TEST_F(QueueTest, IterationIsArrivalOrdered) {
  queue_.push(make(5, 0, 1, 0));
  queue_.push(make(6, 9, 2, 0));
  queue_.push(make(7, 3, 3, 0));
  RequestId expected = 5;
  for (const MemRequest& r : queue_) EXPECT_EQ(r.id, expected++);
}

// Property test: the indexed queue must agree with a naive arrival-ordered
// vector model on every query, across a long random stream of pushes and
// erases. Seeded (common/rng), so a failure reproduces bit-for-bit.
TEST(QueueFuzz, MatchesNaiveModelOverRandomOps) {
  GpuConfig cfg;
  cfg.validate();
  AddressMapper mapper(cfg);
  const unsigned kBanks = cfg.banks_per_channel;
  const RowId kRows = 8;
  PendingQueue queue(64, kBanks);
  std::vector<MemRequest> model;  // Arrival order, like the queue.
  Rng rng(0xC0FFEEu);
  RequestId next_id = 1;

  const auto model_oldest_for_bank = [&](BankId bank) -> const MemRequest* {
    for (const MemRequest& r : model)
      if (r.loc.bank == bank) return &r;
    return nullptr;
  };
  const auto model_oldest_for_row = [&](BankId bank, RowId row) -> const MemRequest* {
    for (const MemRequest& r : model)
      if (r.loc.bank == bank && r.loc.row == row) return &r;
    return nullptr;
  };
  const auto model_bank_size = [&](BankId bank) {
    unsigned n = 0;
    for (const MemRequest& r : model) n += r.loc.bank == bank ? 1u : 0u;
    return n;
  };
  // Audits every incrementally maintained aggregate of one (bank, row) pair
  // against the naive model. The hot loop samples a random pair per op; a
  // periodic exhaustive sweep covers all pairs so a corrupted aggregate
  // cannot hide on a never-sampled group.
  const auto audit_group = [&](BankId bank, RowId row) {
    unsigned size = 0;
    bool all_reads = true;
    bool all_approx = true;
    for (const MemRequest& r : model) {
      if (r.loc.bank != bank || r.loc.row != row) continue;
      ++size;
      all_reads = all_reads && r.is_read();
      all_approx = all_approx && r.is_read() && r.approximable;
    }
    ASSERT_EQ(queue.row_group_size(bank, row), size);
    // Both predicates are vacuously true for an empty group.
    EXPECT_EQ(queue.row_group_all_reads(bank, row), all_reads);
    EXPECT_EQ(queue.row_group_all_approximable(bank, row), all_approx);

    const MemRequest* qr = queue.oldest_for_row(bank, row);
    const MemRequest* mr = model_oldest_for_row(bank, row);
    ASSERT_EQ(qr == nullptr, mr == nullptr);
    if (qr != nullptr) {
      EXPECT_EQ(qr->id, mr->id);
    }
  };

  for (unsigned op = 0; op < 12000; ++op) {
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 5 && !queue.full()) {
      MemRequest r;
      r.id = next_id++;
      const BankId bank = static_cast<BankId>(rng.next_below(kBanks));
      const RowId row = rng.next_below(kRows);
      const std::uint32_t col = static_cast<std::uint32_t>(rng.next_below(16));
      r.line_addr = mapper.compose(0, bank, row, col * kLineBytes);
      r.kind = rng.next_bool(0.25) ? AccessKind::kWrite : AccessKind::kRead;
      r.approximable = r.kind == AccessKind::kRead && rng.next_bool(0.5);
      r.loc = mapper.map(r.line_addr);
      queue.push(r);
      model.push_back(r);
    } else if (roll < 8 && !model.empty()) {
      const std::size_t idx = rng.next_below(model.size());
      const RequestId id = model[idx].id;
      const MemRequest erased = queue.erase(id);
      EXPECT_EQ(erased.id, id);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(idx));
    }

    // Invariants, checked every iteration against the model.
    ASSERT_EQ(queue.size(), model.size());
    const MemRequest* oldest = queue.oldest();
    if (model.empty()) {
      EXPECT_EQ(oldest, nullptr);
    } else {
      ASSERT_NE(oldest, nullptr);
      EXPECT_EQ(oldest->id, model.front().id);
    }

    const BankId bank = static_cast<BankId>(rng.next_below(kBanks));
    const RowId row = rng.next_below(kRows);

    const MemRequest* qb = queue.oldest_for_bank(bank);
    const MemRequest* mb = model_oldest_for_bank(bank);
    ASSERT_EQ(qb == nullptr, mb == nullptr);
    if (qb != nullptr) {
      EXPECT_EQ(qb->id, mb->id);
    }
    EXPECT_EQ(queue.bank_size(bank), model_bank_size(bank));

    // The non-empty bank mask, against the model after every op.
    std::uint64_t model_nonempty = 0;
    for (const MemRequest& r : model) model_nonempty |= std::uint64_t{1} << r.loc.bank;
    ASSERT_EQ(queue.nonempty_banks(), model_nonempty) << "op " << op;

    audit_group(bank, row);

    // Exhaustive aggregate sweep: every bank count and every row group.
    if (op % 500 == 0) {
      for (BankId b = 0; b < kBanks; ++b) {
        EXPECT_EQ(queue.bank_size(b), model_bank_size(b));
        for (RowId rw = 0; rw < kRows; ++rw) audit_group(b, rw);
      }
    }

    // find(): a live id resolves, a retired one does not.
    if (!model.empty()) {
      const MemRequest& probe = model[rng.next_below(model.size())];
      const MemRequest* found = queue.find(probe.id);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->line_addr, probe.line_addr);
    }
    EXPECT_EQ(queue.find(next_id), nullptr);  // Never-issued id.
  }
}

}  // namespace
}  // namespace lazydram
