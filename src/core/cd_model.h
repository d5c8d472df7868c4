#ifndef INFLUMAX_CORE_CD_MODEL_H_
#define INFLUMAX_CORE_CD_MODEL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "core/credit_store.h"
#include "core/direct_credit.h"
#include "graph/graph.h"

namespace influmax {

class PropagationDag;

/// Scan / greedy configuration for the credit-distribution model.
struct CdConfig {
  /// Truncation threshold lambda (Section 5.3): credits below this are
  /// discarded during the scan, bounding UC memory. The paper uses 0.001
  /// as its default and studies the trade-off in Table 4. Set to 0 for an
  /// exact scan (tests do this).
  double truncation_threshold = 0.001;

  /// Worker threads for the scan and for CommitSeed's batched Algorithm 5
  /// updates (0 = all hardware threads). Actions' credit tables are
  /// mutually independent, so both paths parallelize across actions with
  /// bit-identical results for any thread count.
  std::size_t scan_threads = 0;

  /// Worker threads for the CELF greedy (0 = all hardware threads): the
  /// initial marginal-gain pass and batched stale re-evaluations run in
  /// parallel (docs/parallelism.md). Seeds, gains, and evaluation counts
  /// are bit-identical for any value.
  std::size_t select_threads = 0;

  /// Optional cross-Build arena pool (multi-dataset batching): when set,
  /// Build() draws its per-worker scan arenas from the pool and returns
  /// them after the scan, so back-to-back Build() calls over datasets
  /// sharing a graph reuse the arena allocations. Borrowed for the
  /// duration of one Build() at a time; never owned.
  ScanArenaPool* arena_pool = nullptr;

  /// Thread-count knobs above this are rejected by Validate(): a
  /// negative int cast through std::size_t lands far beyond it, and no
  /// real machine is within orders of magnitude of it.
  static constexpr std::size_t kMaxThreads = std::size_t{1} << 16;

  /// Rejects nonsensical configurations (negative truncation threshold,
  /// thread counts that are negative ints in disguise) as
  /// InvalidArgument. Build() calls this first.
  Status Validate() const;
};

/// Influence maximization under the Credit Distribution model
/// (Problem 2 + Algorithms 2-5 of the paper).
///
/// Lifecycle: Build() scans the action log once (Algorithm 2), filling
/// the sparse UC structure; SelectSeeds() then runs greedy + CELF
/// (Algorithm 3) using the incremental marginal-gain identity of
/// Theorem 3 (Algorithm 4) and the Lemma 2/3 updates (Algorithm 5).
/// SelectSeeds mutates UC/SC destructively, so it can be called once per
/// Build; greedy selection is incremental, so one call with the largest
/// k of interest yields seeds for every smaller k as prefixes.
class CreditDistributionModel {
 public:
  /// Scans `log` over `graph` under `credit_model`. All three referents
  /// must outlive the returned object.
  static Result<CreditDistributionModel> Build(
      const Graph& graph, const ActionLog& log,
      const DirectCreditModel& credit_model, const CdConfig& config);

  /// Result of the greedy + CELF selection.
  struct SeedSelection {
    std::vector<NodeId> seeds;            // in pick order
    std::vector<double> marginal_gains;   // gain of each pick
    std::vector<double> cumulative_spread;  // sigma_cd of each prefix
    /// Marginal-gain evaluations (computeMG calls) — the CELF efficiency
    /// metric; plain greedy would use k * |candidates|.
    std::uint64_t gain_evaluations = 0;
  };

  /// Picks up to `k` seeds (fewer if gains hit zero or candidates run
  /// out). One-shot: a second call returns FailedPrecondition.
  Result<SeedSelection> SelectSeeds(NodeId k);

  /// Marginal gain sigma_cd(S + x) - sigma_cd(S) of candidate `x` against
  /// the *current* internal seed set (Algorithm 4 / Theorem 3); 0 when x
  /// is already a seed. Exposed for tests; SelectSeeds uses it internally.
  double MarginalGain(NodeId x) const;

  /// Commits `x` as a seed: applies Algorithm 5's UC/SC updates. The
  /// per-action updates touch mutually independent credit tables, so they
  /// fan out over `scan_threads` workers, with the sharded SC updated via
  /// per-worker deltas replayed in action order afterwards — results (and
  /// even SC hash insertion order) are bit-identical to the serial commit
  /// for any thread count (docs/parallelism.md). Exposed for tests;
  /// SelectSeeds uses it internally.
  void CommitSeed(NodeId x);

  /// Live UC entries after the scan / current entries during selection.
  std::uint64_t credit_entries() const { return store_.total_entries(); }

  /// Approximate UC + SC heap usage.
  std::uint64_t ApproxMemoryBytes() const {
    return store_.ApproxMemoryBytes();
  }

  /// Read access to the scanned store (tests, snapshot writer).
  const UserCreditStore& store() const { return store_; }

  /// The inputs this model was built over (serving layer provenance).
  const Graph& graph() const { return *graph_; }
  const ActionLog& log() const { return *log_; }
  const CdConfig& config() const { return config_; }

  /// Seeds committed so far (by SelectSeeds or manual CommitSeed calls),
  /// in commit order.
  const std::vector<NodeId>& committed_seeds() const {
    return current_seeds_;
  }

  /// Serializes the scanned UC/SC store into a mmap-able snapshot file
  /// (src/serve/snapshot_format.h; narrative spec in docs/serving.md).
  /// Defined in the serve library — link `influmax_serve` to use it.
  Status WriteSnapshot(const std::string& path) const;

 private:
  CreditDistributionModel(const Graph& graph, const ActionLog& log)
      : graph_(&graph), log_(&log) {}

  /// Algorithm 5 for one action `x` performed: snapshots x's rows,
  /// applies the Lemma 2 subtractions and row/column erases to the
  /// action's table, and either applies the Lemma 3 SC updates directly
  /// (`sc_deltas == nullptr`, the serial path) or appends them to
  /// `*sc_deltas` for the caller to replay in action order (the parallel
  /// path). `credited`/`creditors` are caller-owned scratch.
  void CommitSeedOneAction(NodeId x, ActionId a,
                           std::vector<CreditEntry>* credited,
                           std::vector<CreditEntry>* creditors,
                           std::vector<CreditEntry>* sc_deltas);

  const Graph* graph_;
  const ActionLog* log_;
  CdConfig config_;
  UserCreditStore store_;
  bool selection_done_ = false;
  std::vector<NodeId> current_seeds_;
  std::vector<bool> is_seed_;
  // Per-worker scratch for the parallel CommitSeed, sized lazily on the
  // first parallel commit and reused across commits (the greedy loop
  // commits k times; steady state must not allocate).
  std::vector<ScanArena> commit_arenas_;
};

/// Algorithm 2 over one action DAG: builds the creditor row of every
/// activation at positions [begin_pos, dag.size()) with the row kernel
/// (cd_model.cc) in `arena` — a dense, position-keyed accumulator summing
/// each credit in the serial scan's contribution order, parent rows read
/// straight from the arena — then bulk-loads them into `table` with
/// ActionCreditTable::LoadColumns under truncation threshold `lambda`.
/// The table ends up exactly as the per-contribution AddCredit scan left
/// it. Build() runs it from position 0; the serving layer's
/// IncrementalRescan resumes at the first appended position over a table
/// holding the earlier positions' credits (their rows are read from it).
void ScanDagRange(const PropagationDag& dag,
                  const DirectCreditModel& credit_model, double lambda,
                  NodeId begin_pos, ActionCreditTable* table,
                  ScanArena* arena);

}  // namespace influmax

#endif  // INFLUMAX_CORE_CD_MODEL_H_
