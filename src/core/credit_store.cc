#include "core/credit_store.h"

#include <algorithm>
#include <cstring>

namespace influmax {

void RowArena::AddChunk(std::size_t entries) {
  // Uninitialized: pages become resident only as rows are written.
  chunks_.emplace_back(std::make_unique_for_overwrite<CreditEntry[]>(entries),
                       entries);
  row_begin_ = cursor_ = chunks_.back().first.get();
  chunk_end_ = cursor_ + entries;
}

void RowArena::Spill() {
  // The open row outgrew its chunk: move it (contiguously) to the front
  // of a fresh chunk at least twice the old one and big enough that the
  // row fills at most half of it. Finished rows stay where they are —
  // only the open row ever relocates, so concurrent readers of finished
  // rows are never invalidated.
  const std::size_t row_size = static_cast<std::size_t>(cursor_ - row_begin_);
  const std::size_t grown = std::max(
      {kMinChunkEntries, chunks_.back().second * 2, row_size * 2});
  CreditEntry* old_row = row_begin_;
  AddChunk(grown);
  if (row_size > 0) {
    std::memcpy(row_begin_, old_row, row_size * sizeof(CreditEntry));
    cursor_ = row_begin_ + row_size;
  }
}

void RowArena::Reset() {
  if (chunks_.empty()) return;
  // Keep only the largest chunk: the steady-state high-water mark.
  std::size_t best = 0;
  for (std::size_t i = 1; i < chunks_.size(); ++i) {
    if (chunks_[i].second > chunks_[best].second) best = i;
  }
  if (best != 0) std::swap(chunks_[0], chunks_[best]);
  chunks_.resize(1);
  row_begin_ = cursor_ = chunks_[0].first.get();
  chunk_end_ = cursor_ + chunks_[0].second;
}

void ActionCreditTable::AddCredit(NodeId v, NodeId u, double delta) {
  auto [credit, inserted] = credit_.TryEmplace(Key(v, u));
  if (inserted) {
    *credit = delta;
    forward_.Append(v, u);
    backward_.Append(u, v);
  } else {
    *credit += delta;
  }
}

void ActionCreditTable::LoadColumns(
    std::span<const NodeId> users, NodeId begin,
    std::span<const std::span<const CreditEntry>> columns,
    ScanArena* scratch) {
  // Per creditor position: ids its forward list gains here (pass 1),
  // then its forward-list pool slot once resolved (pass 2).
  constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<std::uint32_t>& fwd_count = scratch->load_count;
  std::vector<std::uint32_t>& fwd_slot = scratch->load_slot;
  fwd_count.assign(users.size(), 0);
  fwd_slot.assign(users.size(), kNoSlot);
  std::size_t total = 0;
  std::size_t nonempty = 0;
  for (const auto& column : columns) {
    total += column.size();
    nonempty += !column.empty();
    for (const CreditEntry& entry : column) ++fwd_count[entry.node];
  }
  if (total == 0) return;
  // New forward lists: creditors before `begin` may own one already.
  std::size_t owners = 0;
  for (std::size_t p = 0; p < users.size(); ++p) {
    owners += fwd_count[p] != 0 &&
              (p >= begin || forward_.Find(users[p]) == nullptr);
  }
  credit_.Reserve(credit_.size() + total);
  forward_.index.Reserve(forward_.index.size() + owners);
  forward_.pool.reserve(forward_.pool.size() + owners);
  backward_.index.Reserve(backward_.index.size() + nonempty);
  backward_.pool.reserve(backward_.pool.size() + nonempty);

  // Pass 2 issues AddCredit's sequence — credit insert, forward append,
  // backward append, entry by entry — minus the probes: each list's slot
  // is resolved once and sized to its final length there.
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const auto column = columns[i];
    if (column.empty()) continue;
    const NodeId u = users[begin + i];
    const std::uint32_t bwd_slot = backward_.SlotOf(u);  // a new list
    backward_.pool[bwd_slot].reserve(
        static_cast<std::uint32_t>(column.size()));
    for (const CreditEntry& entry : column) {
      const NodeId w = users[entry.node];
      *credit_.TryEmplace(Key(w, u)).first = entry.credit;
      std::uint32_t& slot = fwd_slot[entry.node];
      if (slot == kNoSlot) {
        slot = forward_.SlotOf(w);
        AdjList& list = forward_.pool[slot];
        list.reserve(list.size() + fwd_count[entry.node]);
      }
      forward_.AppendAt(w, slot, u);
      backward_.AppendAt(u, bwd_slot, w);
    }
  }
}

void ActionCreditTable::SubtractCredit(NodeId v, NodeId u, double delta) {
  double* credit = credit_.Find(Key(v, u));
  if (credit == nullptr) return;  // truncated away earlier; stays 0
  *credit -= delta;
  if (*credit <= kZeroEpsilon) {
    credit_.EraseSlot(credit);  // reuses the Find above: one probe walk
    NoteErased();
  }
}

void ActionCreditTable::Erase(NodeId v, NodeId u) {
  if (credit_.Erase(Key(v, u))) NoteErased();
}

void ActionCreditTable::SweepStaleAdjacency() {
  for (AdjIndex* adj : {&forward_, &backward_}) {
    const bool forward = adj == &forward_;
    std::size_t kept = 0;
    for (const auto& [owner, slot] : adj->big) {
      AdjList& list = adj->pool[slot];
      list.RemoveIf([&](NodeId other) {
        const std::uint64_t key =
            forward ? Key(owner, other) : Key(other, owner);
        return !credit_.Contains(key);
      });
      if (list.size() >= kCompactMinListSize) {
        adj->big[kept++] = {owner, slot};
      }
    }
    adj->big.resize(kept);
  }
  erased_since_sweep_ = 0;
}

void ActionCreditTable::SnapshotCredited(NodeId v,
                                         std::vector<CreditEntry>* out) const {
  for (NodeId u : CreditedUsers(v)) {
    if (const double* credit = credit_.Find(Key(v, u))) {
      out->push_back({u, *credit});
    }
  }
}

void ActionCreditTable::SnapshotCreditors(
    NodeId u, std::vector<CreditEntry>* out) const {
  for (NodeId w : Creditors(u)) {
    if (const double* credit = credit_.Find(Key(w, u))) {
      out->push_back({w, *credit});
    }
  }
}

std::uint64_t ActionCreditTable::ApproxMemoryBytes() const {
  return credit_.ApproxMemoryBytes() + forward_.ApproxMemoryBytes() +
         backward_.ApproxMemoryBytes();
}

std::uint64_t UserCreditStore::total_entries() const {
  std::uint64_t total = 0;
  for (const auto& t : tables_) total += t.num_entries();
  return total;
}

std::uint64_t UserCreditStore::ApproxMemoryBytes() const {
  std::uint64_t bytes = 0;
  for (const auto& shard : sc_) bytes += shard.ApproxMemoryBytes();
  for (const auto& t : tables_) bytes += t.ApproxMemoryBytes();
  return bytes;
}

}  // namespace influmax
