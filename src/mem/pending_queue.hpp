// The FR-FCFS re-order pending queue (128 entries per MC in the baseline).
//
// Requests are kept in arrival order; all scheduler policies express their
// priority rules as scans over this order. The queue also answers the
// row-group questions the AMS unit asks ("how many pending requests share
// this row?", "are they all approximable global reads?").
//
// Schedulers consult the queue for every bank on every memory cycle, so the
// queue is built around incrementally maintained indices instead of scans:
//
//   * a fixed pool of nodes (capacity is fixed at construction) threaded by
//     three intrusive doubly-linked lists — global arrival order, per-bank
//     arrival order, and per-(bank, row) arrival order;
//   * a per-(bank, row) RowGroup carrying the aggregates every scheduler
//     query needs: the oldest member (list head), the group size, and
//     counters from which all-reads / all-approximable follow.
//
// Every policy query (oldest_for_bank, oldest_for_row, row_group_size,
// row_group_all_reads, row_group_all_approximable, bank_size) is O(1), and
// erase() unlinks the node from all three lists in O(1) — the node itself
// carries its positions, so nothing is searched.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "mem/request.hpp"

namespace lazydram {

class PendingQueue {
 private:
  struct RowGroup;

  /// Minimal open-addressed hash map (linear probing, backward-shift
  /// deletion) from a 64-bit key to a pointer. The queue's capacity is fixed
  /// at construction, so the table is sized once for a <= 50% load factor and
  /// never rehashes; lookups are one multiply plus a short contiguous probe —
  /// far cheaper than std::unordered_map at pending-queue scale (<= 128 live
  /// keys, millions of queries per simulated second).
  template <typename V>
  class ProbeMap {
   public:
    /// No valid key uses the all-ones pattern: request ids are small
    /// monotonic integers and group keys carry a bank index far below 2^32.
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    void init(std::size_t max_entries) {
      std::size_t cap = 16;
      while (cap < max_entries * 2) cap <<= 1;
      mask_ = cap - 1;
      keys_.assign(cap, kEmptyKey);
      vals_.assign(cap, V{});
    }

    V* find(std::uint64_t key) {
      for (std::size_t i = slot(key);; i = (i + 1) & mask_) {
        if (keys_[i] == key) return &vals_[i];
        if (keys_[i] == kEmptyKey) return nullptr;
      }
    }
    const V* find(std::uint64_t key) const {
      return const_cast<ProbeMap*>(this)->find(key);
    }

    /// Inserts `key` (must be absent) mapping to `val`.
    void insert(std::uint64_t key, V val) {
      LD_ASSERT_MSG(key != kEmptyKey, "ProbeMap key collides with the empty sentinel");
      std::size_t i = slot(key);
      while (keys_[i] != kEmptyKey) {
        LD_ASSERT_MSG(keys_[i] != key, "duplicate ProbeMap key");
        i = (i + 1) & mask_;
      }
      keys_[i] = key;
      vals_[i] = val;
    }

    /// Removes `key` (must be present), back-shifting the probe chain so
    /// future lookups never cross a tombstone.
    void erase(std::uint64_t key) {
      std::size_t i = slot(key);
      while (keys_[i] != key) {
        LD_ASSERT_MSG(keys_[i] != kEmptyKey, "erase of absent ProbeMap key");
        i = (i + 1) & mask_;
      }
      std::size_t j = i;
      for (;;) {
        j = (j + 1) & mask_;
        if (keys_[j] == kEmptyKey) break;
        const std::size_t ideal = slot(keys_[j]);
        // The entry at j may fill the hole at i iff its probe chain started
        // at or before i (cyclically): moving it cannot break its own chain.
        if (((j - ideal) & mask_) >= ((j - i) & mask_)) {
          keys_[i] = keys_[j];
          vals_[i] = vals_[j];
          i = j;
        }
      }
      keys_[i] = kEmptyKey;
    }

   private:
    std::size_t slot(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
    }

    std::vector<std::uint64_t> keys_;
    std::vector<V> vals_;
    std::size_t mask_ = 0;
  };

  /// One pooled queue entry. The intrusive links are the entry's positions
  /// in the three lists; erase() follows them instead of searching.
  struct Node {
    MemRequest req;
    Node* prev = nullptr;       ///< Global arrival order.
    Node* next = nullptr;
    Node* bank_prev = nullptr;  ///< Arrival order within the bank.
    Node* bank_next = nullptr;
    Node* row_prev = nullptr;   ///< Arrival order within the (bank, row) group.
    Node* row_next = nullptr;
    RowGroup* group = nullptr;  ///< Owning row group (never null while queued).
  };

  /// Aggregates of one (bank, row) group, maintained incrementally on
  /// push/erase. The group exists only while it has members.
  struct RowGroup {
    Node* head = nullptr;  ///< Oldest member (arrival order).
    Node* tail = nullptr;
    unsigned size = 0;
    unsigned writes = 0;      ///< Members that are not reads.
    unsigned non_approx = 0;  ///< Members that are not approximable reads.
  };

  struct BankIndex {
    Node* head = nullptr;  ///< Oldest request of the bank.
    Node* tail = nullptr;
    unsigned size = 0;
  };

 public:
  PendingQueue(std::size_t capacity, unsigned num_banks);

  bool full() const { return size_ >= capacity_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Appends a request. Precondition: !full().
  void push(MemRequest req);

  /// Oldest-first iteration (arrival order) over all banks.
  class const_iterator {
   public:
    using value_type = MemRequest;
    using reference = const MemRequest&;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    explicit const_iterator(const Node* n) : n_(n) {}
    reference operator*() const { return n_->req; }
    const MemRequest* operator->() const { return &n_->req; }
    const_iterator& operator++() {
      n_ = n_->next;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return n_ == o.n_; }
    bool operator!=(const const_iterator& o) const { return n_ != o.n_; }

   private:
    const Node* n_ = nullptr;
  };
  const_iterator begin() const { return const_iterator{head_}; }
  const_iterator end() const { return const_iterator{nullptr}; }

  /// Oldest pending request destined to (bank, row), i.e. a row-buffer hit
  /// candidate when `row` is the bank's open row.
  const MemRequest* oldest_for_row(BankId bank, RowId row) const {
    const RowGroup* g = find_group(bank, row);
    return g == nullptr ? nullptr : &g->head->req;
  }

  /// Oldest pending request destined to `bank` (any row).
  const MemRequest* oldest_for_bank(BankId bank) const {
    const Node* n = banks_[bank].head;
    return n == nullptr ? nullptr : &n->req;
  }

  /// Oldest request overall.
  const MemRequest* oldest() const { return head_ == nullptr ? nullptr : &head_->req; }

  /// Number of pending requests destined to `bank`. Schedulability pre-check:
  /// a bank with no pending requests has nothing to decide.
  unsigned bank_size(BankId bank) const { return banks_[bank].size; }

  /// Bit `b` is set iff bank_size(b) > 0. Lets the controller's per-bank
  /// passes visit only banks with work (at most 64 banks).
  std::uint64_t nonempty_banks() const { return nonempty_; }

  /// Lightweight arrival-ordered view over one bank's pending requests
  /// (iterates the intrusive per-bank list; yields const MemRequest*).
  class BankRange {
   public:
    class iterator {
     public:
      using value_type = const MemRequest*;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      explicit iterator(const Node* n) : n_(n) {}
      const MemRequest* operator*() const { return &n_->req; }
      iterator& operator++() {
        n_ = n_->bank_next;
        return *this;
      }
      bool operator==(const iterator& o) const { return n_ == o.n_; }
      bool operator!=(const iterator& o) const { return n_ != o.n_; }

     private:
      const Node* n_ = nullptr;
    };
    iterator begin() const { return iterator{head_}; }
    iterator end() const { return iterator{nullptr}; }

   private:
    friend class PendingQueue;
    explicit BankRange(const Node* head) : head_(head) {}
    const Node* head_;
  };

  /// Arrival-ordered requests of one bank.
  BankRange bank_requests(BankId bank) const { return BankRange{banks_[bank].head}; }

  /// Number of pending requests destined to (bank, row) — the RBL this row's
  /// activation is expected to achieve from the queue's viewpoint.
  unsigned row_group_size(BankId bank, RowId row) const {
    const RowGroup* g = find_group(bank, row);
    return g == nullptr ? 0 : g->size;
  }

  /// True iff every pending request to (bank, row) is a global read
  /// (vacuously true for an empty group).
  bool row_group_all_reads(BankId bank, RowId row) const {
    const RowGroup* g = find_group(bank, row);
    return g == nullptr || g->writes == 0;
  }

  /// True iff every pending request to (bank, row) is an approximable read
  /// (vacuously true for an empty group).
  bool row_group_all_approximable(BankId bank, RowId row) const {
    const RowGroup* g = find_group(bank, row);
    return g == nullptr || g->non_approx == 0;
  }

  /// Removes the request with `id`; returns it. Aborts if absent.
  MemRequest erase(RequestId id);

  const MemRequest* find(RequestId id) const;

 private:
  /// Rows fit well below 2^32 in any modeled device (row index within a
  /// bank), so (bank, row) packs into one 64-bit group key.
  static std::uint64_t group_key(BankId bank, RowId row) {
    return (static_cast<std::uint64_t>(bank) << 32) | row;
  }
  const RowGroup* find_group(BankId bank, RowId row) const {
    const RowGroup* const* g = groups_.find(group_key(bank, row));
    return g == nullptr ? nullptr : *g;
  }

  std::size_t capacity_;
  std::size_t size_ = 0;

  std::vector<Node> pool_;    ///< Fixed storage; node addresses are stable.
  std::vector<Node*> free_;   ///< Unused pool slots.

  Node* head_ = nullptr;  ///< Oldest request overall.
  Node* tail_ = nullptr;

  std::vector<BankIndex> banks_;
  std::uint64_t nonempty_ = 0;  ///< See nonempty_banks().
  /// RowGroups live in a fixed pool (at most one per queued request), so the
  /// group pointers held by nodes stay stable across index mutations.
  std::vector<RowGroup> group_pool_;
  std::vector<RowGroup*> group_free_;
  ProbeMap<RowGroup*> groups_;  ///< (bank, row) -> live group.
  ProbeMap<Node*> by_id_;       ///< Request id -> node.
};

}  // namespace lazydram
