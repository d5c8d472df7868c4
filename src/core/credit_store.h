#ifndef INFLUMAX_CORE_CREDIT_STORE_H_
#define INFLUMAX_CORE_CREDIT_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/small_vector.h"
#include "common/types.h"

namespace influmax {

/// A (node, credit) pair produced by snapshotting an adjacency list; the
/// scan and the greedy updates iterate these instead of holding spans into
/// the store while mutating it.
struct CreditEntry {
  NodeId node;
  double credit;
};

struct ScanArena;

/// Sparse per-action credit matrix: UC[v][u][a] of Algorithms 2-5, for one
/// action a. Keys are user ids. Besides the (v, u) -> credit map, forward
/// (v -> credited users) and backward (u -> creditors) adjacency lists are
/// kept so that Algorithm 5's update touches only affected pairs.
///
/// Storage is flat: credits live in an open-addressing robin-hood map
/// (FlatHashMap) and adjacency lists are inline-storage vectors, so the
/// hot scan / greedy loops stream contiguous memory instead of chasing
/// unordered_map nodes.
///
/// Adjacency lists may contain *stale* entries after erasures; readers
/// must treat Credit() == 0 as "no entry". Lists that ever reach
/// kCompactMinListSize ids are registered as "big"; once erasures since
/// the last sweep outnumber the live entries (majority-stale in
/// aggregate), all big lists are compacted in one pass. The erase hot
/// path pays one counter bump, short lists are never scanned (iterating
/// a handful of stale ids is cheaper than compacting them), and long
/// greedy runs never degrade into iterating mostly-dead hub lists.
///
/// Span / pointer validity: spans returned by CreditedUsers()/Creditors()
/// are invalidated by any non-const method (inserts rehash, erasures may
/// compact). Use SnapshotCredited()/SnapshotCreditors() when mutating
/// while iterating. AddCredit must not re-create a previously erased
/// (v, u) pair — the scan only ever adds, and re-adding after an erasure
/// would duplicate the id in the adjacency lists.
class ActionCreditTable {
 public:
  /// Gamma credit from v to u, or 0 when absent.
  double Credit(NodeId v, NodeId u) const {
    const double* credit = credit_.Find(Key(v, u));
    return credit == nullptr ? 0.0 : *credit;
  }

  /// Adds `delta` (> 0) to the (v, u) credit, creating the entry and
  /// adjacency on first touch. Scan-time only.
  void AddCredit(NodeId v, NodeId u, double delta);

  /// Bulk-loads scanned creditor columns — Algorithm 2's row kernel
  /// (cd_model.cc) hands every action's rows over here in one call.
  /// `users[p]` is the user at trace position p; `columns[i]` is the
  /// creditor column of users[begin + i]: (creditor position, credit)
  /// entries, each creditor at most once, in first-touch order. The
  /// table must hold no (., users[begin + i]) entry yet (a scan only
  /// appends later positions). The result equals calling
  /// AddCredit(users[e.node], users[begin + i], e.credit) for every entry,
  /// column by column — the same credits, adjacency order, big-list
  /// registrations and entry count — but the credit map is reserved once
  /// and every list is allocated at its exact final length. `scratch`
  /// lends the per-position counters (ScanArena::load_count/load_slot).
  void LoadColumns(std::span<const NodeId> users, NodeId begin,
                   std::span<const std::span<const CreditEntry>> columns,
                   ScanArena* scratch);

  /// Subtracts `delta` from an existing (v, u) credit; erases the entry
  /// when it falls below kZeroEpsilon (credits are sums of path products,
  /// so exact-arithmetic values never go negative; float dust is clamped).
  void SubtractCredit(NodeId v, NodeId u, double delta);

  /// Removes the (v, u) entry if present.
  void Erase(NodeId v, NodeId u);

  /// Users that v currently credits (may contain stale ids).
  std::span<const NodeId> CreditedUsers(NodeId v) const {
    return AdjacencySpan(forward_, v);
  }

  /// Users crediting u (may contain stale ids).
  std::span<const NodeId> Creditors(NodeId u) const {
    return AdjacencySpan(backward_, u);
  }

  /// Appends the *live* (u, Credit(v, u)) entries of v's forward list to
  /// `*out` (not cleared first). Safe to mutate the table afterwards.
  void SnapshotCredited(NodeId v, std::vector<CreditEntry>* out) const;

  /// Appends the live (w, Credit(w, u)) entries of u's backward list.
  void SnapshotCreditors(NodeId u, std::vector<CreditEntry>* out) const;

  /// Live (non-erased) credit entries.
  std::size_t num_entries() const { return credit_.size(); }

  /// Approximate heap bytes (flat tables + spilled adjacency payloads).
  std::uint64_t ApproxMemoryBytes() const;

  static constexpr double kZeroEpsilon = 1e-12;

  /// Lists shorter than this are never compacted (the scan would cost
  /// more than iterating the few stale ids ever will).
  static constexpr std::uint32_t kCompactMinListSize = 16;

  /// No compaction sweep below this many erasures since the last one.
  static constexpr std::uint64_t kCompactMinErasures = 16;

 private:
  using AdjList = SmallVector<NodeId, 4>;

  // node id -> adjacency list, as a flat index over a dense pool: the
  // hash slots stay tiny (8 bytes + 1 metadata byte) while the lists
  // themselves pack contiguously, one pool entry per *present* node
  // instead of one padded hash slot per table slot.
  struct AdjIndex {
    FlatHashMap<NodeId, std::uint32_t> index;
    std::vector<AdjList> pool;
    // (owner, pool slot) of lists that reached kCompactMinListSize —
    // the only ones a sweep visits. Registration happens in Append,
    // which touches the list anyway; a sweep drops entries that
    // compacted below the floor (they can only shrink after the scan).
    std::vector<std::pair<NodeId, std::uint32_t>> big;

    const AdjList* Find(NodeId id) const {
      const std::uint32_t* slot = index.Find(id);
      return slot == nullptr ? nullptr : &pool[*slot];
    }
    // Pool slot of owner's list, created (empty) on first touch.
    std::uint32_t SlotOf(NodeId owner) {
      auto [slot, inserted] = index.TryEmplace(owner);
      if (inserted) {
        *slot = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
      }
      return *slot;
    }
    void AppendAt(NodeId owner, std::uint32_t slot, NodeId other) {
      AdjList& list = pool[slot];
      list.push_back(other);
      if (list.size() == kCompactMinListSize) big.emplace_back(owner, slot);
    }
    void Append(NodeId owner, NodeId other) {
      AppendAt(owner, SlotOf(owner), other);
    }
    std::uint64_t ApproxMemoryBytes() const {
      std::uint64_t bytes =
          index.ApproxMemoryBytes() + pool.capacity() * sizeof(AdjList) +
          big.capacity() * sizeof(big[0]);
      for (const AdjList& list : pool) bytes += list.HeapBytes();
      return bytes;
    }
  };

  static std::uint64_t Key(NodeId v, NodeId u) {
    return (static_cast<std::uint64_t>(v) << 32) | u;
  }

  static std::span<const NodeId> AdjacencySpan(const AdjIndex& adj,
                                               NodeId id) {
    const AdjList* list = adj.Find(id);
    return list == nullptr
               ? std::span<const NodeId>()
               : std::span<const NodeId>(list->data(), list->size());
  }

  // Erasure bookkeeping: one counter bump per erased entry; once the
  // erased outnumber the live entries (majority-stale in aggregate) the
  // registered big lists are swept in one pass.
  void NoteErased() {
    ++erased_since_sweep_;
    if (erased_since_sweep_ >= kCompactMinErasures &&
        erased_since_sweep_ > credit_.size()) {
      SweepStaleAdjacency();
    }
  }

  // Compacts every registered big list (drops ids whose credit entry is
  // gone); deterministic, cost proportional to the big lists only.
  void SweepStaleAdjacency();

  FlatHashMap<std::uint64_t, double> credit_;
  AdjIndex forward_;
  AdjIndex backward_;
  std::uint64_t erased_since_sweep_ = 0;
};

/// Append-only arena of CreditEntry rows with *stable addresses*: memory
/// comes in geometrically growing chunks that never move or shrink while
/// rows are open, so a finished row stays readable by the rows built
/// after it while this arena keeps growing.
///
/// Exactly one row is open at a time. The open row is contiguous: when it
/// outgrows the current chunk it is copied to the front of a larger fresh
/// chunk (the stale partial copy is abandoned; geometric chunk growth
/// bounds the total waste by one chunk). Finished rows never move.
class RowArena {
 public:
  /// Starts a new row at the current cursor.
  void OpenRow() {
    if (chunks_.empty()) AddChunk(kMinChunkEntries);
    row_begin_ = cursor_;
  }

  /// Appends one entry to the open row.
  void Push(CreditEntry entry) {
    if (cursor_ == chunk_end_) Spill();
    *cursor_++ = entry;
  }

  /// The open row's entry at `index` (for in-place accumulation).
  CreditEntry& At(std::uint32_t index) { return row_begin_[index]; }

  /// Entries appended to the open row so far.
  std::uint32_t RowSize() const {
    return static_cast<std::uint32_t>(cursor_ - row_begin_);
  }

  /// Closes the open row and returns its stable span.
  std::span<const CreditEntry> FinishRow() {
    std::span<const CreditEntry> row(row_begin_, cursor_);
    row_begin_ = cursor_;
    return row;
  }

  /// Drops every row but keeps the single largest chunk, so steady-state
  /// reuse (across actions, or across Build() calls via ScanArenaPool)
  /// stops allocating once the high-water chunk is big enough.
  void Reset();

 private:
  static constexpr std::size_t kMinChunkEntries = 1024;

  void AddChunk(std::size_t entries);
  void Spill();  // moves the open row to the front of a larger chunk

  std::vector<std::pair<std::unique_ptr<CreditEntry[]>, std::size_t>>
      chunks_;  // (storage, capacity)
  CreditEntry* row_begin_ = nullptr;
  CreditEntry* cursor_ = nullptr;
  CreditEntry* chunk_end_ = nullptr;
};

/// Reusable per-thread scratch for the Algorithm 2 scan and the
/// Algorithm 5 commit: each scan worker builds creditor rows here before
/// they are bulk-loaded into a table, and the parallel CommitSeed
/// snapshots rows and parks its SC deltas here — so no path holds a span
/// into a table it is mutating. Every buffer keeps its capacity, so a
/// worker stops allocating scratch once it has seen its longest trace.
struct ScanArena {
  // Algorithm 2 row kernel (cd_model.cc). Rows are keyed by trace
  // position, not user id: finished rows (stable addresses), the row of
  // each position of the action being scanned, and the dense accumulator
  // of the row under construction — creditor position -> (row epoch << 32
  // | index in the open row). A stale epoch reads as "absent", so
  // switching rows is one counter bump, never a clear.
  RowArena rows;
  std::vector<std::span<const CreditEntry>> row_of;
  std::vector<std::uint64_t> row_slot;
  std::uint32_t row_epoch = 0;
  // One position's surviving direct credits (parent position, gamma).
  std::vector<std::pair<NodeId, double>> direct;

  // ActionCreditTable::LoadColumns, per creditor position: the ids its
  // forward list gains, then its forward-list pool slot.
  std::vector<std::uint32_t> load_count;
  std::vector<std::uint32_t> load_slot;

  // The rescan seam: user -> trace position over the scanned prefix, and
  // creditor rows read from the table (also CommitSeed's row snapshot).
  FlatHashMap<NodeId, NodeId> seam_position;
  std::vector<CreditEntry> creditors;

  // Parallel CommitSeed: forward-row snapshot plus the SC deltas of the
  // actions this worker processed, replayed in action order afterwards
  // (CreditEntry.credit carries the delta).
  std::vector<CreditEntry> credited;
  std::vector<CreditEntry> sc_deltas;
};

/// A contiguous slice of one worker's arena: which worker produced it,
/// where it starts, and how long it is. The parallel CommitSeed records
/// one per action — SC deltas in the live model, touched-SC-slot logs in
/// the snapshot engine — so the serial merge can replay the slices in
/// action order.
struct ArenaSlice {
  std::uint32_t worker = 0;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
};

/// Pool of scan arenas that survives across Build() calls so
/// back-to-back scans (multi-dataset batching: bench_table4's
/// one-Build-per-lambda loop, dataset presets sharing a graph) reuse the
/// arena allocations instead of re-growing them from zero each time. Not
/// thread-safe: one Build() borrows the pool at a time.
class ScanArenaPool {
 public:
  /// Moves `n` arenas out of the pool (default-constructing any the pool
  /// does not hold yet). Buffer capacities survive the moves; arenas the
  /// pool holds beyond `n` stay pooled for a wider later Build().
  std::vector<ScanArena> Acquire(std::size_t n) {
    std::vector<ScanArena> out;
    out.reserve(n);
    while (out.size() < n && !arenas_.empty()) {
      out.push_back(std::move(arenas_.back()));
      arenas_.pop_back();
    }
    out.resize(n);
    return out;
  }

  /// Returns arenas to the pool for the next Build().
  void Release(std::vector<ScanArena> arenas) {
    for (ScanArena& arena : arenas) arenas_.push_back(std::move(arena));
  }

  std::size_t size() const { return arenas_.size(); }

 private:
  std::vector<ScanArena> arenas_;
};

/// The full UC structure: one ActionCreditTable per action, plus the SC
/// table (Gamma_{S,x}(a), the credit a candidate x gives to the current
/// seed set S for action a).
///
/// SC is sharded by key hash across kScShards independent flat maps:
/// rehash cost is bounded per shard, and the sharding is the seam for a
/// future concurrent greedy (each shard can take its own lock) without
/// any post-merge step — shard choice depends only on the key, never on
/// the thread, so results are identical for any thread count.
class UserCreditStore {
 public:
  UserCreditStore() = default;
  explicit UserCreditStore(ActionId num_actions) : tables_(num_actions) {}

  ActionId num_actions() const {
    return static_cast<ActionId>(tables_.size());
  }

  ActionCreditTable& table(ActionId a) { return tables_[a]; }
  const ActionCreditTable& table(ActionId a) const { return tables_[a]; }

  /// SC[x][a] = Gamma_{S,x}(a); 0 when never set.
  double SetCredit(NodeId x, ActionId a) const {
    const std::uint64_t key = Key(x, a);
    const double* credit = sc_[ShardOf(key)].Find(key);
    return credit == nullptr ? 0.0 : *credit;
  }

  /// SC[x][a] += delta.
  void AddSetCredit(NodeId x, ActionId a, double delta) {
    const std::uint64_t key = Key(x, a);
    *sc_[ShardOf(key)].TryEmplace(key).first += delta;
  }

  /// Total live UC entries across all actions (the paper's memory knob —
  /// Table 4 reports how the truncation threshold bounds this).
  std::uint64_t total_entries() const;

  /// Approximate heap bytes of UC + SC.
  std::uint64_t ApproxMemoryBytes() const;

  /// Allocates one ScanArena per scan worker — drawn from `pool` when one
  /// is given (multi-dataset batching: the buffers keep their capacity
  /// across Build() calls), freshly constructed otherwise. Called by
  /// CreditDistributionModel::Build before the parallel pass.
  void PrepareScanArenas(std::size_t num_threads,
                         ScanArenaPool* pool = nullptr) {
    arenas_ = pool != nullptr ? pool->Acquire(num_threads)
                              : std::vector<ScanArena>(num_threads);
  }

  /// The calling worker's arena (thread_index from ParallelForDynamic).
  ScanArena& scan_arena(std::size_t thread_index) {
    return arenas_[thread_index];
  }

  /// Hands the arenas back to `pool` (or frees them) once the scan is
  /// done.
  void ReleaseScanArenas(ScanArenaPool* pool = nullptr) {
    if (pool != nullptr) pool->Release(std::move(arenas_));
    arenas_.clear();
    arenas_.shrink_to_fit();
  }

  static constexpr std::size_t kScShards = 16;

 private:
  static std::uint64_t Key(NodeId x, ActionId a) {
    return (static_cast<std::uint64_t>(x) << 32) | a;
  }

  static std::size_t ShardOf(std::uint64_t key) {
    // Top bits, NOT the low bits: the shard's FlatHashMap masks the low
    // bits of the same hash for the home slot, so sharding by them would
    // leave only every 16th slot reachable inside a shard.
    static_assert(kScShards == 16, "ShardOf takes the top 4 hash bits");
    return HashMix64(key) >> 60;
  }

  std::vector<ActionCreditTable> tables_;
  std::array<FlatHashMap<std::uint64_t, double>, kScShards> sc_;
  std::vector<ScanArena> arenas_;
};

}  // namespace influmax

#endif  // INFLUMAX_CORE_CREDIT_STORE_H_
