#include "core/cd_model.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "actionlog/propagation_dag.h"
#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "core/celf.h"

namespace influmax {

Status CdConfig::Validate() const {
  if (truncation_threshold < 0.0) {
    return Status::InvalidArgument(
        "CD scan: truncation threshold must be >= 0");
  }
  if (scan_threads > kMaxThreads || select_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "CD scan: thread count exceeds kMaxThreads (" +
        std::to_string(kMaxThreads) +
        ") — a negative value cast to size_t?");
  }
  return Status::OK();
}

Result<CreditDistributionModel> CreditDistributionModel::Build(
    const Graph& graph, const ActionLog& log,
    const DirectCreditModel& credit_model, const CdConfig& config) {
  if (log.num_users() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "CD scan: action log user space does not match graph");
  }
  if (Status status = config.Validate(); !status.ok()) return status;

  CreditDistributionModel model(graph, log);
  model.config_ = config;
  model.store_ = UserCreditStore(log.num_actions());
  model.is_seed_.assign(graph.num_nodes(), false);
  const double lambda = config.truncation_threshold;

  // Algorithm 2: one pass over the log, processing each action's tuples
  // chronologically. Actions touch only their own credit table, so the
  // pass is parallel across actions with results independent of the
  // thread count. Each worker builds an action's creditor rows in its own
  // arena, then bulk-loads the action's table once.
  model.store_.PrepareScanArenas(EffectiveThreadCount(config.scan_threads),
                                 config.arena_pool);
  ParallelForDynamic(
      log.num_actions(), config.scan_threads,
      [&](std::size_t thread, std::size_t action) {
        const auto a = static_cast<ActionId>(action);
        const PropagationDag dag =
            BuildPropagationDag(graph, log.ActionTrace(a));
        ScanDagRange(dag, credit_model, lambda, /*begin_pos=*/0,
                     &model.store_.table(a), &model.store_.scan_arena(thread));
      });
  model.store_.ReleaseScanArenas(config.arena_pool);
  return model;
}

namespace {

using DirectCredit = std::pair<NodeId, double>;  // (parent position, gamma)

// Appends the direct credits gamma_{v,u}(a) of the activation at `pos`
// that survive truncation, in parent order.
void AppendDirectCredits(const PropagationDag& dag,
                         const DirectCreditModel& credit_model, double lambda,
                         NodeId pos, std::vector<DirectCredit>* out) {
  const auto parents = dag.Parents(pos);
  if (parents.empty()) return;
  const auto edges = dag.ParentEdges(pos);
  const NodeId u = dag.UserAt(pos);
  const std::uint32_t din = static_cast<std::uint32_t>(parents.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    const double gamma = credit_model.Gamma(
        u, din, dag.TimeAt(pos) - dag.TimeAt(parents[i]), edges[i]);
    if (gamma < lambda || gamma <= 0.0) continue;
    out->emplace_back(parents[i], gamma);
  }
}

// Readies `arena` to build rows over a DAG of `size` positions: drops the
// previous scan's rows (keeping the high-water chunk) and sizes the dense
// accumulator. Slots it adds carry epoch 0, which no row ever uses.
void ResetRows(NodeId size, ScanArena* arena) {
  arena->rows.Reset();
  if (arena->row_slot.size() < size) arena->row_slot.resize(size, 0);
}

// The incremental-rescan seam: positions before `begin` were scanned
// earlier, so their columns already sit in the table. Read() fetches one
// and re-keys it from user id to trace position (through `position_of`,
// the worker's reused map); nothing writes the table until the load.
class SeamRows {
 public:
  SeamRows(const PropagationDag& dag, NodeId begin,
           const ActionCreditTable& table,
           FlatHashMap<NodeId, NodeId>* position_of)
      : dag_(dag), begin_(begin), table_(table), position_of_(*position_of) {
    if (begin == 0) return;
    position_of_.Clear();
    position_of_.Reserve(begin);
    for (NodeId pos = 0; pos < begin; ++pos) {
      position_of_[dag.UserAt(pos)] = pos;
    }
  }

  NodeId begin() const { return begin_; }

  std::span<const CreditEntry> Read(NodeId pos,
                                    std::vector<CreditEntry>* out) const {
    out->clear();
    table_.SnapshotCreditors(dag_.UserAt(pos), out);
    for (CreditEntry& creditor : *out) {
      const NodeId* creditor_pos = position_of_.Find(creditor.node);
      INFLUMAX_CHECK(creditor_pos != nullptr)
          << "rescan seam: creditor " << creditor.node << " of user "
          << dag_.UserAt(pos) << " is not in the scanned trace prefix";
      creditor.node = *creditor_pos;
    }
    return *out;
  }

 private:
  const PropagationDag& dag_;
  const NodeId begin_;
  const ActionCreditTable& table_;
  FlatHashMap<NodeId, NodeId>& position_of_;
};

// The row kernel: Eq. 5 for the activation u at one position. For each
// surviving parent v, in parent order, every creditor w of v passes
// credit(w, v) * gamma_{v,u} on to u (subject to truncation), then v
// itself gives gamma_{v,u}. Parent rows sit at strictly earlier
// positions, so they are final. Creditors are appended on first touch
// and accumulated in place, so the row is exactly the (., u) column the
// serial AddCredit sequence would leave: the same first-touch order and
// the same in-order FP sums. Rows are keyed by trace position; the
// returned span stays valid in arena->rows until its next Reset.
std::span<const CreditEntry> BuildRow(
    std::span<const DirectCredit> direct,
    std::span<const std::span<const CreditEntry>> row_of,
    const SeamRows& seam, double lambda, ScanArena* arena) {
  RowArena& row = arena->rows;
  row.OpenRow();
  if (++arena->row_epoch == 0) {
    // The epoch wrapped: forget every tag once, then start over.
    std::fill(arena->row_slot.begin(), arena->row_slot.end(), 0);
    arena->row_epoch = 1;
  }
  const std::uint64_t tag = static_cast<std::uint64_t>(arena->row_epoch)
                            << 32;
  std::uint64_t* const slot_of = arena->row_slot.data();
  const auto add = [&](NodeId w, double delta) {
    std::uint64_t& slot = slot_of[w];
    if ((slot >> 32) != arena->row_epoch) {
      slot = tag | row.RowSize();
      row.Push({w, delta});
    } else {
      row.At(static_cast<std::uint32_t>(slot)).credit += delta;
    }
  };
  for (const auto& [parent, gamma] : direct) {
    const std::span<const CreditEntry> parent_row =
        parent < seam.begin() ? seam.Read(parent, &arena->creditors)
                              : row_of[parent];
    for (const CreditEntry& entry : parent_row) {
      const double transitive = entry.credit * gamma;
      if (transitive >= lambda && transitive > 0.0) {
        add(entry.node, transitive);
      }
    }
    add(parent, gamma);
  }
  return row.FinishRow();
}

}  // namespace

void ScanDagRange(const PropagationDag& dag,
                  const DirectCreditModel& credit_model, double lambda,
                  NodeId begin_pos, ActionCreditTable* table,
                  ScanArena* arena) {
  // Credit only flows forward in time, so resuming at begin_pos over a
  // table holding the credits of positions [0, begin_pos) is
  // bit-identical to a full scan — the seam the incremental rescan uses.
  const NodeId end_pos = dag.size();
  if (begin_pos >= end_pos) return;
  ResetRows(end_pos, arena);
  auto& row_of = arena->row_of;
  row_of.assign(end_pos, {});
  const SeamRows seam(dag, begin_pos, *table, &arena->seam_position);
  for (NodeId pos = begin_pos; pos < end_pos; ++pos) {
    arena->direct.clear();
    AppendDirectCredits(dag, credit_model, lambda, pos, &arena->direct);
    if (arena->direct.empty()) continue;
    row_of[pos] = BuildRow(arena->direct, row_of, seam, lambda, arena);
  }
  table->LoadColumns(dag.Users(), begin_pos,
                     std::span(row_of).subspan(begin_pos), arena);
}

double CreditDistributionModel::MarginalGain(NodeId x) const {
  // Algorithm 4, evaluating Theorem 3:
  //   sigma(S+x) - sigma(S) =
  //     sum_a (1 - Gamma_{S,x}(a)) * sum_u Gamma^{V-S}_{x,u}(a) / A_u,
  // where the u = x term contributes 1/A_x for every action x performed.
  if (is_seed_[x]) return 0.0;  // Theorem 3 assumes x is not in S
  const std::uint32_t ax = log_->ActionsPerformedBy(x);
  if (ax == 0) return 0.0;
  const double inv_ax = 1.0 / ax;

  double mg = 0.0;
  for (const UserAction& ua : log_->UserActions(x)) {
    const ActionCreditTable& table = store_.table(ua.action);
    double mga = inv_ax;
    for (NodeId u : table.CreditedUsers(x)) {
      const double credit = table.Credit(x, u);
      if (credit > 0.0) {
        mga += credit / log_->ActionsPerformedBy(u);
      }
    }
    mg += mga * (1.0 - store_.SetCredit(x, ua.action));
  }
  return mg;
}

void CreditDistributionModel::CommitSeedOneAction(
    NodeId x, ActionId a, std::vector<CreditEntry>* credited,
    std::vector<CreditEntry>* creditors,
    std::vector<CreditEntry>* sc_deltas) {
  // Algorithm 5 for one action x performed: fold x's credit into SC
  // (Lemma 3), subtract the through-x paths from every (v, u) pair
  // (Lemma 2), then drop x's row and column — x has left the induced
  // subgraph V - S. The live rows are snapshotted up front: the updates
  // only touch (v, u) pairs with v != x and u != x, so the snapshots stay
  // exact, and SubtractCredit/Erase are then free to compact
  // majority-stale adjacency lists mid-loop.
  ActionCreditTable& table = store_.table(a);
  const double sc_x = store_.SetCredit(x, a);
  credited->clear();
  creditors->clear();
  table.SnapshotCredited(x, credited);
  table.SnapshotCreditors(x, creditors);
  for (const CreditEntry& cu : *credited) {
    for (const CreditEntry& cv : *creditors) {
      table.SubtractCredit(cv.node, cu.node, cv.credit * cu.credit);
    }
    const double delta = cu.credit * (1.0 - sc_x);
    if (sc_deltas != nullptr) {
      sc_deltas->push_back({cu.node, delta});
    } else {
      store_.AddSetCredit(cu.node, a, delta);
    }
  }
  for (const CreditEntry& cu : *credited) table.Erase(x, cu.node);
  for (const CreditEntry& cv : *creditors) table.Erase(cv.node, x);
}

void CreditDistributionModel::CommitSeed(NodeId x) {
  // Algorithm 5 across every action x performed. The per-action updates
  // are mutually independent — each touches only its own credit table,
  // reads only the (x, a) SC entries this commit never writes (x credits
  // no one after the scan erased self-pairs, so no (x, .) key is
  // inserted here), and its SC writes go to keys carrying its own action
  // id. So the actions fan out over scan_threads workers; only the SC
  // inserts are deferred into per-worker delta arenas and replayed in
  // action order afterwards, which reproduces the serial path's exact SC
  // accumulation *and insertion* sequence — results are bit-identical
  // (and snapshots byte-identical) for any thread count.
  const auto actions = log_->UserActions(x);
  const std::size_t workers = std::min(
      EffectiveThreadCount(config_.scan_threads), actions.size());
  if (workers <= 1) {
    std::vector<CreditEntry> credited;
    std::vector<CreditEntry> creditors;
    for (const UserAction& ua : actions) {
      CommitSeedOneAction(x, ua.action, &credited, &creditors,
                          /*sc_deltas=*/nullptr);
    }
  } else {
    if (commit_arenas_.size() < workers) commit_arenas_.resize(workers);
    std::vector<ArenaSlice> deltas(actions.size());
    ParallelForDynamic(
        actions.size(), workers, [&](std::size_t t, std::size_t i) {
          ScanArena& arena = commit_arenas_[t];
          const std::uint64_t offset = arena.sc_deltas.size();
          CommitSeedOneAction(x, actions[i].action, &arena.credited,
                              &arena.creditors, &arena.sc_deltas);
          deltas[i] = {static_cast<std::uint32_t>(t), offset,
                       static_cast<std::uint32_t>(arena.sc_deltas.size() -
                                                  offset)};
        });
    for (std::size_t i = 0; i < actions.size(); ++i) {
      const ArenaSlice& slice = deltas[i];
      const CreditEntry* entries =
          commit_arenas_[slice.worker].sc_deltas.data() + slice.offset;
      for (std::uint32_t e = 0; e < slice.count; ++e) {
        store_.AddSetCredit(entries[e].node, actions[i].action,
                            entries[e].credit);
      }
    }
    for (ScanArena& arena : commit_arenas_) arena.sc_deltas.clear();
  }
  current_seeds_.push_back(x);
  is_seed_[x] = true;
}

Result<CreditDistributionModel::SeedSelection>
CreditDistributionModel::SelectSeeds(NodeId k) {
  if (selection_done_) {
    return Status::FailedPrecondition(
        "SelectSeeds already ran on this model (the greedy loop consumes "
        "the credit store); Build() a fresh model to select again");
  }
  selection_done_ = true;

  // Algorithm 3: greedy with CELF lazy-forward evaluation, both hot
  // paths parallel on select_threads workers with results bit-identical
  // to the serial greedy (docs/parallelism.md). The initial pass —
  // every active user's gain against S = {} — is embarrassingly
  // parallel because MarginalGain only reads the store: gains land in a
  // dense per-user array and the heap is built from it in user order,
  // the serial push sequence. Both passes and the consumption loop are
  // the shared RunCelfTopK — exactly the code the snapshot engine and
  // the shard router replay, so none of them can drift.
  SeedSelection selection;
  const NodeId num_users = log_->num_users();
  std::vector<double> gains;
  std::vector<CelfQueueEntry> heap;
  heap.reserve(num_users);
  std::vector<double> memo_gain(num_users, 0.0);
  std::vector<std::uint64_t> memo_stamp(num_users, 0);
  std::vector<CelfQueueEntry> batch;
  RunCelfTopK(
      k, std::numeric_limits<double>::infinity(),
      EffectiveThreadCount(config_.select_threads), num_users,
      [this](std::size_t total,
             const std::function<void(std::size_t, std::size_t)>& body) {
        ParallelForDynamic(total, config_.select_threads, body);
      },
      [this](NodeId x) { return log_->ActionsPerformedBy(x) != 0; },
      [this](NodeId x) { return MarginalGain(x); },
      [this](NodeId x) { CommitSeed(x); }, &heap, &memo_gain, &memo_stamp,
      &batch, &gains, &selection);
  return selection;
}

}  // namespace influmax
