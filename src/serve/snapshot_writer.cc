#include "serve/snapshot_writer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <numeric>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "serve/snapshot_format.h"

namespace influmax {
namespace {

std::uint64_t HashChain(std::uint64_t h, std::uint64_t v) {
  return HashMix64(h ^ HashMix64(v));
}

template <typename T>
void WriteSection(BinaryWriter* writer, const std::vector<T>& values) {
  writer->WriteVector(values);
  writer->PadToAlignment(8);
}

}  // namespace

std::uint64_t SnapshotData::SlotOf(NodeId u, ActionId a) const {
  const auto begin = slot_action.begin() +
                     static_cast<std::ptrdiff_t>(user_offsets[u]);
  const auto end = slot_action.begin() +
                   static_cast<std::ptrdiff_t>(user_offsets[u + 1]);
  const auto it = std::lower_bound(begin, end, a);
  assert(it != end && *it == a && "SlotOf: (u, a) pair not in the log");
  return static_cast<std::uint64_t>(it - slot_action.begin());
}

std::uint64_t FingerprintGraph(const Graph& graph) {
  std::uint64_t h = HashChain(0x67726170685F6670ULL, graph.num_nodes());
  h = HashChain(h, graph.num_edges());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    h = HashChain(h, graph.OutDegree(u));
  }
  for (NodeId target : graph.out_targets()) h = HashChain(h, target);
  return h;
}

std::uint64_t HashActionTrace(std::span<const ActionTuple> trace) {
  std::uint64_t h = HashChain(0x74726163655F6670ULL, trace.size());
  for (const ActionTuple& t : trace) {
    h = HashChain(h, t.user);
    h = HashChain(h, std::bit_cast<std::uint64_t>(t.time));
  }
  return h;
}

std::uint64_t FingerprintTraceHashes(
    NodeId num_users, std::span<const std::uint64_t> trace_hashes) {
  std::uint64_t h = HashChain(0x6C6F675F66707630ULL, num_users);
  h = HashChain(h, trace_hashes.size());
  for (std::uint64_t trace_hash : trace_hashes) {
    h = HashChain(h, trace_hash);
  }
  return h;
}

std::uint64_t FingerprintActionLog(const ActionLog& log) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(log.num_actions());
  for (ActionId a = 0; a < log.num_actions(); ++a) {
    hashes.push_back(HashActionTrace(log.ActionTrace(a)));
  }
  return FingerprintTraceHashes(log.num_users(), hashes);
}

namespace {

constexpr std::uint32_t kNotInTrace = ~0u;

// Quotients per streamed write of the kFwdQuotient section (256 KiB).
constexpr std::size_t kQuotientChunk = 32768;

// Slot universe of `log`: au, user_offsets, slot_action; SC zeroed and
// the other per-slot/per-action arrays sized, ready for FreezeActions.
void InitSnapshotSlots(const ActionLog& log, SnapshotData* data) {
  const NodeId num_users = log.num_users();
  const ActionId num_actions = log.num_actions();
  const std::uint64_t num_slots = log.num_tuples();
  data->num_users = num_users;
  data->num_actions = num_actions;
  data->au.resize(num_users);
  data->user_offsets.resize(num_users + 1);
  data->user_offsets[0] = 0;
  for (NodeId u = 0; u < num_users; ++u) {
    data->au[u] = log.ActionsPerformedBy(u);
    data->user_offsets[u + 1] = data->user_offsets[u] + data->au[u];
  }
  data->slot_action.resize(num_slots);
  data->slot_sc.assign(num_slots, 0.0);
  for (NodeId u = 0; u < num_users; ++u) {
    std::uint64_t s = data->user_offsets[u];
    for (const UserAction& ua : log.UserActions(u)) {
      data->slot_action[s] = ua.action;
      ++s;
    }
  }
  data->fwd_begin.assign(num_slots, 0);
  data->fwd_count.assign(num_slots, 0);
  data->bwd_begin.assign(num_slots, 0);
  data->bwd_count.assign(num_slots, 0);
  data->action_entry_begin.assign(num_actions + 1, 0);
  data->action_size.assign(num_actions, 0);
  data->action_trace_hash.assign(num_actions, 0);
}

}  // namespace

void ActionFreezer::Freeze(const ActionCreditTable& table, ActionId a,
                           std::span<const ActionTuple> trace,
                           SnapshotData* data) {
  const std::size_t n = trace.size();
  if (pos_of_.size() != data->num_users) {
    pos_of_.assign(data->num_users, kNotInTrace);
  }
  slot_.resize(n);
  cursor_.assign(n, 0);  // backward counts first, cursors after the sum
  for (std::size_t i = 0; i < n; ++i) {
    pos_of_[trace[i].user] = static_cast<std::uint32_t>(i);
    slot_[i] = data->SlotOf(trace[i].user, a);
  }

  // Forward lists: participants in trace order, each list in live
  // adjacency (first-touch) order with stale ids dropped — the exact
  // sequence the live MarginalGain sums over. Each entry also counts
  // toward its target's backward list.
  const std::uint64_t begin = data->action_entry_begin[a];
  std::uint64_t e = begin;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = trace[i].user;
    const std::uint64_t s = slot_[i];
    data->fwd_begin[s] = e;
    for (NodeId u : table.CreditedUsers(v)) {
      const double credit = table.Credit(v, u);
      if (credit > 0.0) {
        assert(pos_of_[u] != kNotInTrace && "credit to a non-participant");
        data->fwd_node[e] = u;
        data->fwd_credit[e] = credit;
        ++cursor_[pos_of_[u]];
        ++e;
      }
    }
    data->fwd_count[s] = static_cast<std::uint32_t>(e - data->fwd_begin[s]);
  }
  INFLUMAX_CHECK(e == data->action_entry_begin[a + 1])
      << "action " << a << " froze " << e - begin << " entries, table holds "
      << table.num_entries();

  // Backward lists, by counting transpose: prefix-sum the per-target
  // counts in trace order, then scatter the forward entries with the
  // creditors visited in ascending user id, so each list comes out in
  // the canonical ascending-creditor order (live backward order is
  // insertion-history-dependent and never affects results; a canonical
  // order makes snapshot bytes reproducible).
  std::uint64_t b = begin;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t count = cursor_[i];
    data->bwd_begin[slot_[i]] = b;
    data->bwd_count[slot_[i]] = static_cast<std::uint32_t>(count);
    cursor_[i] = b;
    b += count;
  }
  by_user_.resize(n);
  std::iota(by_user_.begin(), by_user_.end(), 0u);
  std::sort(by_user_.begin(), by_user_.end(),
            [trace](std::uint32_t x, std::uint32_t y) {
              return trace[x].user < trace[y].user;
            });
  for (const std::uint32_t i : by_user_) {
    const std::uint64_t s = slot_[i];
    const std::uint64_t fb = data->fwd_begin[s];
    for (std::uint64_t f = fb; f < fb + data->fwd_count[s]; ++f) {
      const std::uint64_t k = cursor_[pos_of_[data->fwd_node[f]]]++;
      data->bwd_node[k] = trace[i].user;
      data->bwd_entry[k] = f;
    }
  }
  for (const ActionTuple& t : trace) pos_of_[t.user] = kNotInTrace;
}

void FreezeActions(
    const ActionLog& log, std::size_t threads,
    const std::function<std::uint64_t(ActionId)>& entries_of,
    const std::function<void(ActionFreezer&, ActionId,
                             std::span<const ActionTuple>)>& fill,
    SnapshotData* data) {
  InitSnapshotSlots(log, data);
  const ActionId num_actions = log.num_actions();
  std::uint64_t total = 0;
  for (ActionId a = 0; a < num_actions; ++a) {
    data->action_entry_begin[a] = total;
    total += entries_of(a);
  }
  data->action_entry_begin[num_actions] = total;
  data->fwd_node.resize(total);
  data->fwd_credit.resize(total);
  data->bwd_node.resize(total);
  data->bwd_entry.resize(total);

  std::vector<ActionFreezer> freezers(EffectiveThreadCount(threads));
  ParallelForDynamic(num_actions, freezers.size(),
                     [&](std::size_t worker, std::size_t index) {
                       const auto a = static_cast<ActionId>(index);
                       const auto trace = log.ActionTrace(a);
                       data->action_size[a] =
                           static_cast<std::uint32_t>(trace.size());
                       data->action_trace_hash[a] = HashActionTrace(trace);
                       fill(freezers[worker], a, trace);
                     });
  data->log_fingerprint =
      FingerprintTraceHashes(log.num_users(), data->action_trace_hash);
}

SnapshotData BuildSnapshotData(const UserCreditStore& store,
                               const Graph& graph, const ActionLog& log,
                               double truncation_threshold,
                               std::span<const NodeId> committed_seeds,
                               std::size_t threads) {
  SnapshotData data;
  FreezeActions(
      log, threads,
      [&store](ActionId a) { return store.table(a).num_entries(); },
      [&store, &data](ActionFreezer& freezer, ActionId a,
                      std::span<const ActionTuple> trace) {
        freezer.Freeze(store.table(a), a, trace, &data);
        const auto slots = freezer.slots();
        for (std::size_t i = 0; i < trace.size(); ++i) {
          data.slot_sc[slots[i]] = store.SetCredit(trace[i].user, a);
        }
      },
      &data);
  data.truncation_threshold = truncation_threshold;
  data.graph_fingerprint = FingerprintGraph(graph);
  data.seeds.assign(committed_seeds.begin(), committed_seeds.end());
  return data;
}

namespace {

Status WriteSnapshotFileImpl(const SnapshotData& data,
                             const std::string& path) {
  BinaryWriter writer(path, kSnapshotMagic, kSnapshotVersion);
  INFLUMAX_RETURN_IF_ERROR(writer.status());
  writer.set_failpoint("snapshot.write");
  writer.WriteU32(0);  // pad the prelude to an 8-byte boundary
  writer.WriteU64(data.graph_fingerprint);
  writer.WriteU64(data.log_fingerprint);
  writer.WriteU32(data.num_users);
  writer.WriteU32(data.num_actions);
  writer.WriteU64(data.slot_action.size());
  writer.WriteU64(data.fwd_node.size());
  writer.WriteDouble(data.truncation_threshold);
  if (writer.status().ok() &&
      writer.bytes_written() != kSnapshotPreludeBytes) {
    return Status::Internal(
        "snapshot prelude layout drifted: wrote " +
        std::to_string(writer.bytes_written()) + " bytes, format pins " +
        std::to_string(kSnapshotPreludeBytes));
  }
  WriteSection(&writer, data.au);
  WriteSection(&writer, data.user_offsets);
  WriteSection(&writer, data.slot_action);
  WriteSection(&writer, data.slot_sc);
  WriteSection(&writer, data.action_entry_begin);
  WriteSection(&writer, data.fwd_begin);
  WriteSection(&writer, data.fwd_count);
  WriteSection(&writer, data.bwd_begin);
  WriteSection(&writer, data.bwd_count);
  WriteSection(&writer, data.fwd_node);
  WriteSection(&writer, data.fwd_credit);
  // kFwdQuotient is derived here rather than carried in SnapshotData, so
  // every producer — full build, incremental rescan, shard slicer — gets
  // a pool consistent with its own au section by construction. IEEE
  // division is correctly rounded, hence deterministic: the view re-checks
  // these exact bits at open, and the engine's exact fold over them
  // replays the live model's additions bit for bit (docs/gain_kernel.md).
  // Note a shard blob's pool divides by its *local* au; engines serving
  // shards under a global-au override get a derived pool from
  // OpenShardedSnapshot instead.
  // The pool is streamed through a fixed-size buffer, never materialized
  // at E x 8 bytes; the bytes (and any torn-write offset) are those of a
  // single WriteVector.
  const std::size_t num_entries = data.fwd_node.size();
  std::vector<double> quot(std::min(num_entries, kQuotientChunk));
  writer.WriteU64(num_entries);
  for (std::size_t begin = 0; begin < num_entries; begin += quot.size()) {
    const std::size_t n = std::min(quot.size(), num_entries - begin);
    for (std::size_t i = 0; i < n; ++i) {
      quot[i] = data.fwd_credit[begin + i] / data.au[data.fwd_node[begin + i]];
    }
    writer.WriteArray(std::span<const double>(quot.data(), n));
  }
  writer.PadToAlignment(8);
  WriteSection(&writer, data.bwd_node);
  WriteSection(&writer, data.bwd_entry);
  WriteSection(&writer, data.action_size);
  WriteSection(&writer, data.action_trace_hash);
  WriteSection(&writer, data.seeds);
  INFLUMAX_RETURN_IF_ERROR(writer.Finish());
  // Durability point of the swap protocol (docs/durability.md): a
  // manifest fingerprint of this blob is only trustworthy once its
  // bytes are on stable storage, so every producer syncs here, before
  // any manifest names the file.
  INFLUMAX_FAILPOINT("snapshot.fsync");
  return SyncFileToDisk(path);
}

}  // namespace

Status WriteSnapshotFile(const SnapshotData& data, const std::string& path) {
  const Status status = WriteSnapshotFileImpl(data, path);
  if (!status.ok()) {
    // No partial outputs on the error path — a half-written blob left
    // in a generation dir looks exactly like a crash artifact to the
    // recovery scan. (An injected kTornCrash bypasses this by design:
    // a real crash gets no cleanup either.)
    std::remove(path.c_str());
  }
  return status;
}

Status WriteCreditSnapshot(const CreditDistributionModel& model,
                           const std::string& path) {
  const SnapshotData data = BuildSnapshotData(
      model.store(), model.graph(), model.log(),
      model.config().truncation_threshold, model.committed_seeds(),
      model.config().scan_threads);
  return WriteSnapshotFile(data, path);
}

Status CreditDistributionModel::WriteSnapshot(const std::string& path) const {
  return WriteCreditSnapshot(*this, path);
}

}  // namespace influmax
