#ifndef INFLUMAX_SERVE_SNAPSHOT_WRITER_H_
#define INFLUMAX_SERVE_SNAPSHOT_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cd_model.h"
#include "core/credit_store.h"
#include "graph/graph.h"

namespace influmax {

/// In-memory image of a credit snapshot, section for section (see
/// src/serve/snapshot_format.h). Produced by BuildSnapshotData() from a
/// scanned UserCreditStore, or by IncrementalRescan() (rebased copies for
/// unchanged actions, freshly scanned tables for extended ones) — both
/// through FreezeActions() — then serialized with WriteSnapshotFile().
///
/// Invariants the query engine relies on:
///  * slots are user-major (user_offsets CSR over users, actions ascending
///    within a user — exactly ActionLog::UserActions order);
///  * entries are action-major (action_entry_begin CSR) so a per-query
///    copy-on-write overlay can shadow one action's credits as a single
///    contiguous slice; an action's backward entries occupy the same
///    range as its forward ones (every live (v, u) pair appears once in
///    each direction), and within the action both are laid out slot by
///    slot in trace order;
///  * forward lists preserve the live ActionCreditTable adjacency order
///    (the scan's first-touch order) with stale ids dropped, which keeps
///    floating-point summation order — and therefore every marginal gain —
///    bit-identical to the live model;
///  * backward lists are canonicalized to ascending creditor id (the live
///    backward order is insertion-dependent but never affects results),
///    which makes snapshots reproducible byte-for-byte across full builds,
///    incremental rescans and freeze thread counts.
struct SnapshotData {
  NodeId num_users = 0;
  ActionId num_actions = 0;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t log_fingerprint = 0;
  double truncation_threshold = 0.0;

  std::vector<std::uint32_t> au;                  // [U]
  std::vector<std::uint64_t> user_offsets;        // [U+1]
  std::vector<ActionId> slot_action;              // [S]
  std::vector<double> slot_sc;                    // [S]
  std::vector<std::uint64_t> action_entry_begin;  // [A+1]
  std::vector<std::uint64_t> fwd_begin;           // [S]
  std::vector<std::uint32_t> fwd_count;           // [S]
  std::vector<std::uint64_t> bwd_begin;           // [S]
  std::vector<std::uint32_t> bwd_count;           // [S]
  std::vector<NodeId> fwd_node;                   // [E]
  std::vector<double> fwd_credit;                 // [E]
  std::vector<NodeId> bwd_node;                   // [E]
  std::vector<std::uint64_t> bwd_entry;           // [E]
  std::vector<std::uint32_t> action_size;         // [A]
  std::vector<std::uint64_t> action_trace_hash;   // [A]
  std::vector<NodeId> seeds;                      // committed before freeze

  /// Slot index of (u, a), found by binary search over u's action ids;
  /// the pair must exist (u performed a).
  std::uint64_t SlotOf(NodeId u, ActionId a) const;
};

/// Order-sensitive fingerprint of the social graph's CSR structure.
std::uint64_t FingerprintGraph(const Graph& graph);

/// Fingerprint of the action log: num_users/num_actions plus the chained
/// per-action trace hashes. Two logs fingerprint equal iff they contain
/// the same traces in the same dense-action order.
std::uint64_t FingerprintActionLog(const ActionLog& log);

/// The same chain computed from already-hashed traces (num_actions is
/// `trace_hashes.size()`). FingerprintActionLog(log) ==
/// FingerprintTraceHashes(log.num_users(), per-action HashActionTrace) —
/// which lets the shard writer stamp a shard blob with the fingerprint
/// of its restricted log using only the snapshot's kActionTraceHash
/// section, so a sliced shard is byte-identical to one built from
/// ActionLog::RestrictToActions directly (tested).
std::uint64_t FingerprintTraceHashes(NodeId num_users,
                                     std::span<const std::uint64_t>
                                         trace_hashes);

/// Order-sensitive hash of one action trace (user + activation time of
/// every tuple). IncrementalRescan uses it to prove that a new log is an
/// append-only extension of the snapshotted one, action by action.
std::uint64_t HashActionTrace(std::span<const ActionTuple> trace);

/// Per-worker scratch of the freeze kernel (user -> trace position,
/// per-position slots and backward cursors), reused across the actions
/// one FreezeActions() worker fills, so steady state allocates nothing.
class ActionFreezer {
 public:
  /// Flattens one scanned action table into `data`'s pre-sized pools: the
  /// forward lists of the participants in trace order, each in live
  /// adjacency order with stale ids dropped (one Credit lookup per
  /// entry), then the backward lists as a counting transpose of those
  /// forward entries — counted per target participant, prefix-summed in
  /// trace order and scattered with creditors visited in ascending user
  /// id, which yields the canonical ascending-creditor order with no hash
  /// map and no sort per list. Writes only action `a`'s entry range
  /// [action_entry_begin[a], action_entry_begin[a + 1]) and its own slots,
  /// so distinct actions may be frozen concurrently. `trace` must be the
  /// action's scanned trace, and the range must hold table.num_entries().
  void Freeze(const ActionCreditTable& table, ActionId a,
              std::span<const ActionTuple> trace, SnapshotData* data);

  /// Slot of every trace position of the action frozen last.
  std::span<const std::uint64_t> slots() const { return slot_; }

 private:
  std::vector<std::uint32_t> pos_of_;   // user -> trace position
  std::vector<std::uint64_t> slot_;     // trace position -> slot
  std::vector<std::uint64_t> cursor_;   // trace position -> next bwd index
  std::vector<std::uint32_t> by_user_;  // trace positions, ascending user
};

/// The freeze shared by every producer, in two passes over the actions of
/// `log`. Count: `entries_of(a)` gives action a's entry total, whose
/// prefix sum is action_entry_begin, and the four entry pools are sized
/// to the grand total once. Fill: actions fan out over `threads` workers
/// (0 = all hardware threads, as CdConfig::scan_threads) with dynamic
/// scheduling; `fill(freezer, a, trace)` must write exactly action a's
/// entry range and slots, typically via the worker's `freezer`. Also
/// writes the slot universe, action_size, action_trace_hash, and the
/// log fingerprint (chained from those per-action hashes, so each trace
/// is hashed once). Every write lands at a position fixed by the count
/// pass, so the result does not depend on the thread count. Graph
/// fingerprint, truncation threshold, SC and seeds are left to the
/// caller.
void FreezeActions(
    const ActionLog& log, std::size_t threads,
    const std::function<std::uint64_t(ActionId)>& entries_of,
    const std::function<void(ActionFreezer& freezer, ActionId a,
                             std::span<const ActionTuple> trace)>& fill,
    SnapshotData* data);

/// Flattens the whole store over `threads` freeze workers (0 = all
/// hardware threads). `log` must be the log the store was scanned from
/// (it defines the slot universe), `graph` the scanned graph. The bytes
/// do not depend on `threads`.
SnapshotData BuildSnapshotData(const UserCreditStore& store,
                               const Graph& graph, const ActionLog& log,
                               double truncation_threshold,
                               std::span<const NodeId> committed_seeds,
                               std::size_t threads = 0);

/// Serializes `data` to `path` in the snapshot_format.h layout.
Status WriteSnapshotFile(const SnapshotData& data, const std::string& path);

/// Convenience: BuildSnapshotData + WriteSnapshotFile for a built model,
/// freezing over the model's scan_threads.
Status WriteCreditSnapshot(const CreditDistributionModel& model,
                           const std::string& path);

}  // namespace influmax

#endif  // INFLUMAX_SERVE_SNAPSHOT_WRITER_H_
