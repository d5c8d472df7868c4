#include "serve/query_engine.h"

#include <algorithm>

#include "actionlog/propagation_dag.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "core/credit_store.h"
#include "obs/metrics.h"
#include "serve/snapshot_writer.h"

namespace influmax {

namespace {

// Query-engine telemetry (docs/observability.md). The per-gain metrics
// are fed only by the sampled TimedMarginalGain path, so their counters
// move in units of kObsSampleEvery; the coarse operations record
// exactly. The overlay histograms are recorded at ResetSession — the
// moment the session's copy-on-write footprint is final.
struct EngineMetrics {
  Counter* gain_queries;
  Timer* gain_latency;
  Counter* kernel_exact;
  Counter* kernel_fast;
  Counter* topk_queries;
  Timer* topk_latency;
  Counter* commits;
  Timer* commit_latency;
  Counter* resets;
  Timer* reset_latency;
  Timer* spread_latency;
  Timer* overlay_actions;
  Timer* overlay_bytes;
};

const EngineMetrics& GetEngineMetrics() {
  static const EngineMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return EngineMetrics{
        reg.FindOrCreateCounter("serve.gain.queries"),
        reg.FindOrCreateTimer("serve.gain.latency"),
        reg.FindOrCreateCounter("serve.kernel.exact_calls"),
        reg.FindOrCreateCounter("serve.kernel.fast_calls"),
        reg.FindOrCreateCounter("serve.topk.queries"),
        reg.FindOrCreateTimer("serve.topk.latency"),
        reg.FindOrCreateCounter("serve.commit.count"),
        reg.FindOrCreateTimer("serve.commit.latency"),
        reg.FindOrCreateCounter("serve.reset.count"),
        reg.FindOrCreateTimer("serve.reset.latency"),
        reg.FindOrCreateTimer("serve.spread.latency"),
        reg.FindOrCreateTimer("serve.overlay.actions"),
        reg.FindOrCreateTimer("serve.overlay.bytes"),
    };
  }();
  return metrics;
}

// thread_local, not per-engine: MarginalGain is const and TopKSeeds
// fans it out over concurrent workers, so a member tick would race.
thread_local std::uint64_t t_gain_tick = 0;

inline bool GainTickFires() {
  return (++t_gain_tick & (kObsSampleEvery - 1)) == 0;
}

}  // namespace

std::vector<double> DeriveQuotientPool(const CreditSnapshotView& view,
                                       std::span<const std::uint32_t> au) {
  const auto credit = view.fwd_credit();
  const auto node = view.fwd_node();
  std::vector<double> quot(view.num_entries());
  for (std::uint64_t e = 0; e < quot.size(); ++e) {
    quot[e] = credit[e] / au[node[e]];
  }
  return quot;
}

SnapshotQueryEngine::SnapshotQueryEngine(const CreditSnapshotView& view)
    : SnapshotQueryEngine(view, view.au(), {}) {}

SnapshotQueryEngine::SnapshotQueryEngine(
    const CreditSnapshotView& view, std::span<const std::uint32_t> au_override,
    std::span<const double> quotient_override)
    : view_(&view), au_(au_override), quot_(quotient_override) {
  // Register the metric names up front so scrapes see them from the
  // first query, not only once the sampled probe first fires.
  (void)GetEngineMetrics();
  INFLUMAX_CHECK(au_.size() >= view.num_users());
  INFLUMAX_CHECK(quot_.empty() || quot_.size() == view.num_entries());
  if (quot_.empty()) {
    own_quot_ = DeriveQuotientPool(view, au_);
    quot_ = own_quot_;
  }
  ovl_offset_.assign(view.num_actions(), kNotOverlaid);
  sc_cur_.assign(view.slot_sc().begin(), view.slot_sc().end());
  sc_dirty_.assign(view.num_slots(), 0);
  is_seed_.assign(view.num_users(), 0);
  for (NodeId s : view.seeds()) is_seed_[s] = 1;
  commit_scratch_.resize(1);
  EnsureScratch(&commit_scratch_[0]);
  memo_gain_.assign(view.num_users(), 0.0);
  memo_stamp_.assign(view.num_users(), 0);
}

void SnapshotQueryEngine::EnsureScratch(CommitScratch* scratch) {
  if (scratch->stamp_epoch.size() < view_->num_users()) {
    scratch->stamp_epoch.assign(view_->num_users(), 0);
    scratch->stamp_credit.assign(view_->num_users(), 0.0);
    scratch->epoch = 0;
  }
}

const double* SnapshotQueryEngine::CreditsOf(ActionId a) const {
  const std::uint64_t off = ovl_offset_[a];
  if (off != kNotOverlaid) return ovl_buf_.data() + off;
  return view_->fwd_credit().data() + view_->action_entry_begin()[a];
}

template <typename TermFn>
void SnapshotQueryEngine::ForEachGainTerm(NodeId x, TermFn&& term) const {
  // Algorithm 4 / Theorem 3, replayed over the flat arrays. The entry
  // iteration order equals the live adjacency order (the snapshot
  // preserves it), and in exact mode each slot folds the precomputed
  // quotient run serially — the same additions as credit / au[node] in
  // the same order (each q[e] bit-equals its division, view-validated) —
  // so every returned gain is bit-identical to
  // CreditDistributionModel::MarginalGain. Fast mode reassociates the
  // per-slot sums within kFastMathRelErrorBound (docs/gain_kernel.md).
  // Overlaid actions carry session-mutated credits the pool does not
  // reflect, so they divide on the fly in both modes — exact always.
  const auto au = au_;
  const std::uint32_t ax = au[x];
  if (ax == 0) return;
  const double inv_ax = 1.0 / ax;

  const auto uo = view_->user_offsets();
  const std::uint64_t slot_begin = uo[x];
  const std::uint64_t slot_end = uo[x + 1];
  const auto slot_action = view_->slot_action();
  const auto fwd_begin = view_->fwd_begin();
  const auto fwd_count = view_->fwd_count();
  const auto fwd_node = view_->fwd_node();
  const auto aeb = view_->action_entry_begin();
  const double* quot = quot_.data();
  const bool fast = kernel_mode_ == GainKernelMode::kFastMath;

  for (std::uint64_t s = slot_begin; s < slot_end; ++s) {
    const double sc_term = 1.0 - sc_cur_[s];
    const std::uint32_t fc = fwd_count[s];
    if (fc == 0) {  // x credits nobody for this action: mg_a(x) = 1/A_x
      term(inv_ax * sc_term);
      continue;
    }
    const std::uint64_t fb = fwd_begin[s];
    const ActionId a = slot_action[s];
    const std::uint64_t off = ovl_offset_[a];
    double mga;
    if (off != kNotOverlaid) {
      const double* credits = ovl_buf_.data() + off;
      const std::uint64_t base = aeb[a];
      mga = inv_ax;
      for (std::uint64_t e = fb; e < fb + fc; ++e) {
        const double credit = credits[e - base];
        if (credit > 0.0) {
          mga += credit / au[fwd_node[e]];
        }
      }
    } else if (fast) {
      mga = inv_ax + SumQuotientsFast(quot + fb, fc);
    } else {
      mga = FoldQuotientsExact(inv_ax, quot + fb, fc);
    }
    term(mga * sc_term);
  }
}

double SnapshotQueryEngine::MarginalGain(NodeId x) const {
  if constexpr (kObsEnabled) {
    if (obs_enabled_ && GainTickFires()) return TimedMarginalGain(x);
  }
  if (x >= view_->num_users() || is_seed_[x]) return 0.0;
  return AccumulateGainTerms(x, 0.0);
}

double SnapshotQueryEngine::TimedMarginalGain(NodeId x) const {
  const std::uint64_t t0 = MonotonicNowNs();
  double gain = 0.0;
  if (x < view_->num_users() && !is_seed_[x]) {
    gain = AccumulateGainTerms(x, 0.0);
  }
  const EngineMetrics& m = GetEngineMetrics();
  m.gain_latency->Record(MonotonicNowNs() - t0);
  m.gain_queries->Add(kObsSampleEvery);
  Counter* kernel = kernel_mode_ == GainKernelMode::kFastMath ? m.kernel_fast
                                                              : m.kernel_exact;
  kernel->Add(kObsSampleEvery);
  return gain;
}

double SnapshotQueryEngine::AccumulateGainTerms(NodeId x, double acc) const {
  ForEachGainTerm(x, [&acc](double term) { acc += term; });
  return acc;
}

void SnapshotQueryEngine::AppendGainTerms(NodeId x,
                                          std::vector<double>* out) const {
  ForEachGainTerm(x, [out](double term) { out->push_back(term); });
}

void SnapshotQueryEngine::CommitOneSlot(
    std::uint64_t s, NodeId x, CommitScratch* scratch,
    std::vector<std::uint64_t>* touched_out) {
  // Algorithm 5 for one slot (one action x performed) against the
  // pre-created copy-on-write overlay. A credit of exactly 0.0 encodes
  // "erased": live entries are always > kZeroEpsilon, and SubtractCredit's
  // epsilon-erase is replayed below, so 0.0 is unambiguous.
  const auto slot_action = view_->slot_action();
  const auto fwd_begin = view_->fwd_begin();
  const auto fwd_count = view_->fwd_count();
  const auto fwd_node = view_->fwd_node();
  const auto bwd_begin = view_->bwd_begin();
  const auto bwd_count = view_->bwd_count();
  const auto bwd_node = view_->bwd_node();
  const auto bwd_entry = view_->bwd_entry();
  const auto aeb = view_->action_entry_begin();

  const std::uint32_t fc = fwd_count[s];
  const std::uint32_t bc = bwd_count[s];
  // Nothing flows through this slot: x credits nobody and nobody
  // credits x for this action, so every loop below is empty — skip
  // before touching the overlay. (Algorithm 5 is a no-op here: no pairs
  // to subtract, no SC folds, an empty row to erase.)
  if (fc == 0 && bc == 0) return;

  const ActionId a = slot_action[s];
  double* ovl = ovl_buf_.data() + ovl_offset_[a];
  const std::uint64_t base = aeb[a];
  const double sc_x = sc_cur_[s];

  // Snapshot the live rows up front, as the live CommitSeed does.
  scratch->credited.clear();
  scratch->creditors.clear();
  const std::uint64_t fb = fwd_begin[s];
  for (std::uint64_t e = fb; e < fb + fc; ++e) {
    const double credit = ovl[e - base];
    if (credit > 0.0) scratch->credited.push_back({fwd_node[e], credit});
  }
  const std::uint64_t bb = bwd_begin[s];
  for (std::uint64_t j = bb; j < bb + bc; ++j) {
    const double credit = ovl[bwd_entry[j] - base];
    if (credit > 0.0) scratch->creditors.push_back({bwd_node[j], credit});
  }

  // Lemma 2: subtract the through-x path product from every
  // (creditor, credited) pair. The live code addresses each pair by
  // hash lookup; here each creditor's forward list is walked once
  // against an epoch-stamped credited set — the same pairs, each
  // subtracted exactly once with the identical delta, no hashing.
  const std::uint64_t epoch = ++scratch->epoch;
  for (const CommitScratch::LiveEntry& cu : scratch->credited) {
    scratch->stamp_epoch[cu.node] = epoch;
    scratch->stamp_credit[cu.node] = cu.credit;
  }
  for (const CommitScratch::LiveEntry& cv : scratch->creditors) {
    // Every creditor of an action participates in it, so its slot must
    // exist; tolerate a crafted file rather than index out of bounds.
    const std::uint64_t sv = view_->SlotOf(cv.node, a);
    if (sv == CreditSnapshotView::kNoSlot) continue;
    const std::uint64_t vb = fwd_begin[sv];
    const std::uint32_t vc = fwd_count[sv];
    for (std::uint64_t e = vb; e < vb + vc; ++e) {
      const NodeId u = fwd_node[e];
      if (u == x) {
        ovl[e - base] = 0.0;  // column erase: drop (creditor -> x)
        continue;
      }
      if (scratch->stamp_epoch[u] != epoch) continue;
      const double credit = ovl[e - base];
      if (credit == 0.0) continue;  // truncated away or already erased
      const double next = credit - cv.credit * scratch->stamp_credit[u];
      ovl[e - base] =
          next <= ActionCreditTable::kZeroEpsilon ? 0.0 : next;
    }
  }
  // Lemma 3: fold x's credit into SC for every user x credits. The slots
  // all belong to action a, so parallel slot updates never collide here.
  for (const CommitScratch::LiveEntry& cu : scratch->credited) {
    const std::uint64_t su = view_->SlotOf(cu.node, a);
    if (su == CreditSnapshotView::kNoSlot) continue;
    if (!sc_dirty_[su]) {
      sc_dirty_[su] = 1;
      touched_out->push_back(su);
    }
    sc_cur_[su] += cu.credit * (1.0 - sc_x);
  }
  // Row erase: x has left the induced subgraph V - S.
  for (std::uint64_t e = fb; e < fb + fc; ++e) {
    ovl[e - base] = 0.0;
  }
}

void SnapshotQueryEngine::CommitSeed(NodeId x) {
  // Algorithm 5 against the copy-on-write overlay. Slots of x reference
  // distinct actions; their updates write disjoint overlay slices and
  // disjoint SC-shadow slots, so after a serial overlay pre-pass (the
  // only ovl_buf_ growth) the slots fan out over gain_threads() workers.
  // Per-worker touched-slot logs are merged back in slot order, so the
  // session state — every overlay credit, every SC value, the rewind log
  // — is bit-identical to the serial commit for any thread count.
  if (x >= view_->num_users() || is_seed_[x]) return;
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) {
    if (obs_enabled_) obs_t0 = MonotonicNowNs();
  }
  const auto uo = view_->user_offsets();
  const std::uint64_t slot_begin = uo[x];
  const std::uint64_t slot_end = uo[x + 1];
  const std::size_t num_slots = slot_end - slot_begin;
  if (num_slots > 0) {
    // Overlay pre-pass: create every missing overlay for x's actions in
    // slot order (one ovl_buf_ resize), then fill the copies in
    // parallel — they are disjoint slices of the grown buffer.
    const auto slot_action = view_->slot_action();
    const auto aeb = view_->action_entry_begin();
    fresh_actions_.clear();
    std::uint64_t extra = 0;
    for (std::uint64_t s = slot_begin; s < slot_end; ++s) {
      const ActionId a = slot_action[s];
      if (ovl_offset_[a] == kNotOverlaid) {
        fresh_actions_.push_back(a);
        extra += aeb[a + 1] - aeb[a];
      }
    }
    const std::size_t workers = std::min(
        EffectiveThreadCount(gain_threads_), num_slots);
    if (extra > 0) {
      std::uint64_t off = ovl_buf_.size();
      ovl_buf_.resize(off + extra);
      for (const ActionId a : fresh_actions_) {
        ovl_offset_[a] = off;
        ovl_actions_.push_back(a);
        off += aeb[a + 1] - aeb[a];
      }
      ParallelForDynamic(
          fresh_actions_.size(), workers, [&](std::size_t, std::size_t i) {
            const ActionId a = fresh_actions_[i];
            const double* base = view_->fwd_credit().data() + aeb[a];
            std::copy(base, base + (aeb[a + 1] - aeb[a]),
                      ovl_buf_.data() + ovl_offset_[a]);
          });
    }
    if (workers <= 1) {
      for (std::uint64_t s = slot_begin; s < slot_end; ++s) {
        CommitOneSlot(s, x, &commit_scratch_[0], &sc_touched_);
      }
    } else {
      if (commit_scratch_.size() < workers) commit_scratch_.resize(workers);
      touched_slices_.resize(num_slots);
      ParallelForDynamic(
          num_slots, workers, [&](std::size_t t, std::size_t i) {
            CommitScratch& scratch = commit_scratch_[t];
            EnsureScratch(&scratch);
            const std::uint64_t offset = scratch.sc_touched.size();
            CommitOneSlot(slot_begin + i, x, &scratch, &scratch.sc_touched);
            touched_slices_[i] = {
                static_cast<std::uint32_t>(t), offset,
                static_cast<std::uint32_t>(scratch.sc_touched.size() -
                                           offset)};
          });
      for (const ArenaSlice& slice : touched_slices_) {
        const std::uint64_t* entries =
            commit_scratch_[slice.worker].sc_touched.data() + slice.offset;
        sc_touched_.insert(sc_touched_.end(), entries,
                           entries + slice.count);
      }
      for (CommitScratch& scratch : commit_scratch_) {
        scratch.sc_touched.clear();
      }
    }
  }
  is_seed_[x] = 1;
  committed_.push_back(x);
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      const EngineMetrics& m = GetEngineMetrics();
      m.commits->Increment();
      m.commit_latency->Record(MonotonicNowNs() - obs_t0);
    }
  }
}

double SnapshotQueryEngine::SpreadOf(std::span<const NodeId> seeds) {
  // Theorem 3 telescopes: sigma_cd(S) is the sum of the marginal gains
  // of committing S one seed at a time (in the given order).
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) {
    if (obs_enabled_) obs_t0 = MonotonicNowNs();
  }
  ResetSession();
  double total = 0.0;
  for (NodeId seed : seeds) {
    total += MarginalGain(seed);
    CommitSeed(seed);
  }
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      GetEngineMetrics().spread_latency->Record(MonotonicNowNs() - obs_t0);
    }
  }
  return total;
}

SnapshotSeedSelection SnapshotQueryEngine::TopKSeeds(NodeId k,
                                                     double spread_budget) {
  // Algorithm 3 (greedy + CELF lazy-forward), the exact queue discipline
  // of CreditDistributionModel::SelectSeeds — literally: both passes and
  // the consumption loop are the shared RunCelfTopK, so the two (and
  // the shard router) cannot drift. Both
  // evaluation passes run on gain_threads_ workers: MarginalGain is
  // const (pure reads of view + overlay + SC shadow) and no mutating
  // method runs while a pass is in flight, so the passes are race-free
  // and the results — seeds, gains, evaluation counts — are identical
  // for any thread count (docs/parallelism.md). All scratch is
  // engine-owned and only ever grows, preserving the allocation-free
  // steady state.
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) {
    if (obs_enabled_) obs_t0 = MonotonicNowNs();
  }
  ResetSession();
  SnapshotSeedSelection selection;
  const auto au = au_;
  RunCelfTopK(
      k, spread_budget, EffectiveThreadCount(gain_threads_),
      view_->num_users(),
      [this](std::size_t total,
             const std::function<void(std::size_t, std::size_t)>& body) {
        ParallelForDynamic(total, gain_threads_, body);
      },
      [au](NodeId x) { return au[x] != 0; },
      [this](NodeId x) { return MarginalGain(x); },
      [this](NodeId x) { CommitSeed(x); }, &heap_, &memo_gain_,
      &memo_stamp_, &batch_, &gains_, &selection);
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      const EngineMetrics& m = GetEngineMetrics();
      m.topk_queries->Increment();
      m.topk_latency->Record(MonotonicNowNs() - obs_t0);
    }
  }
  return selection;
}

void SnapshotQueryEngine::ResetSession() {
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      obs_t0 = MonotonicNowNs();
      // The session's copy-on-write footprint is final here: record it
      // before the rewind clears it.
      const EngineMetrics& m = GetEngineMetrics();
      m.overlay_actions->Record(ovl_actions_.size());
      m.overlay_bytes->Record(ovl_buf_.size() * sizeof(double));
    }
  }
  for (ActionId a : ovl_actions_) ovl_offset_[a] = kNotOverlaid;
  ovl_actions_.clear();
  ovl_buf_.clear();  // keeps capacity: steady-state queries do not allocate
  const auto base_sc = view_->slot_sc();
  for (std::uint64_t s : sc_touched_) {
    sc_cur_[s] = base_sc[s];
    sc_dirty_[s] = 0;
  }
  sc_touched_.clear();
  for (NodeId x : committed_) is_seed_[x] = 0;
  committed_.clear();
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      const EngineMetrics& m = GetEngineMetrics();
      m.resets->Increment();
      m.reset_latency->Record(MonotonicNowNs() - obs_t0);
    }
  }
}

std::uint64_t SnapshotQueryEngine::ApproxMemoryBytes() const {
  auto bytes_of = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) * sizeof(v[0]);
  };
  std::uint64_t scratch_bytes = 0;
  for (const CommitScratch& scratch : commit_scratch_) {
    scratch_bytes += bytes_of(scratch.credited) + bytes_of(scratch.creditors) +
                     bytes_of(scratch.stamp_epoch) +
                     bytes_of(scratch.stamp_credit) +
                     bytes_of(scratch.sc_touched);
  }
  return bytes_of(own_quot_) + bytes_of(ovl_offset_) + bytes_of(ovl_buf_) +
         bytes_of(ovl_actions_) + bytes_of(sc_cur_) + bytes_of(sc_touched_) +
         bytes_of(sc_dirty_) + bytes_of(is_seed_) + bytes_of(committed_) +
         scratch_bytes + bytes_of(fresh_actions_) +
         bytes_of(touched_slices_) + bytes_of(memo_gain_) +
         bytes_of(memo_stamp_) + bytes_of(heap_) + bytes_of(batch_) +
         bytes_of(gains_);
}

Status IncrementalRescan(const CreditSnapshotView& view, const Graph& graph,
                         const ActionLog& log,
                         const DirectCreditModel& credit_model,
                         const CdConfig& config, const std::string& out_path,
                         RescanStats* stats) {
  if (FingerprintGraph(graph) != view.graph_fingerprint()) {
    return Status::InvalidArgument(
        "rescan: graph does not fingerprint-match the snapshot");
  }
  if (log.num_users() != view.num_users()) {
    return Status::InvalidArgument(
        "rescan: log user space does not match the snapshot (" +
        std::to_string(log.num_users()) + " vs " +
        std::to_string(view.num_users()) + ")");
  }
  if (log.num_actions() < view.num_actions()) {
    return Status::Corruption(
        "rescan: log has fewer actions than the snapshot");
  }
  if (!view.seeds().empty()) {
    return Status::FailedPrecondition(
        "rescan: snapshot has committed seeds; Algorithm 5's removals "
        "cannot be replayed forward — rebuild from a post-Build store");
  }
  if (config.truncation_threshold != view.truncation_threshold()) {
    return Status::InvalidArgument(
        "rescan: truncation threshold " +
        std::to_string(config.truncation_threshold) +
        " differs from the snapshot's " +
        std::to_string(view.truncation_threshold()));
  }

  // Classify every action: unchanged (copy verbatim), extended (replay
  // the appended suffix), or new (scan from scratch). Any rewritten
  // history fails the per-action prefix hash and is rejected.
  const ActionId old_actions = view.num_actions();
  const ActionId new_actions = log.num_actions();
  std::vector<ActionId> changed;
  std::vector<std::uint64_t> changed_index(new_actions, ~0ULL);
  RescanStats local_stats;
  for (ActionId a = 0; a < old_actions; ++a) {
    const auto trace = log.ActionTrace(a);
    const std::uint32_t old_size = view.action_size()[a];
    if (trace.size() < old_size) {
      return Status::Corruption("rescan: action " + std::to_string(a) +
                                " shrank from " + std::to_string(old_size) +
                                " to " + std::to_string(trace.size()) +
                                " tuples");
    }
    if (HashActionTrace(trace.first(old_size)) !=
        view.action_trace_hash()[a]) {
      return Status::Corruption(
          "rescan: action " + std::to_string(a) +
          " is not an append-only extension of the snapshotted trace");
    }
    if (trace.size() > old_size) {
      changed_index[a] = changed.size();
      changed.push_back(a);
      ++local_stats.rescanned_actions;
      local_stats.replayed_tuples += trace.size() - old_size;
    } else {
      ++local_stats.unchanged_actions;
    }
  }
  for (ActionId a = old_actions; a < new_actions; ++a) {
    changed_index[a] = changed.size();
    changed.push_back(a);
    ++local_stats.new_actions;
    local_stats.replayed_tuples += log.ActionTrace(a).size();
  }

  // Rebuild only the changed tables: reconstruct the frozen credits in
  // their original first-touch order, then resume Algorithm 2 at the
  // first appended position. Actions are independent, so this
  // parallelizes like Build(), one scan arena per worker.
  std::vector<ActionCreditTable> tables(changed.size());
  std::vector<ScanArena> arenas(EffectiveThreadCount(config.scan_threads));
  ParallelForDynamic(
      changed.size(), config.scan_threads,
      [&](std::size_t thread, std::size_t i) {
        const ActionId a = changed[i];
        const auto trace = log.ActionTrace(a);
        const std::uint32_t old_size =
            a < old_actions ? view.action_size()[a] : 0;
        ActionCreditTable& table = tables[i];
        for (std::uint32_t t = 0; t < old_size; ++t) {
          const NodeId v = trace[t].user;
          const std::uint64_t s = view.SlotOf(v, a);
          const std::uint64_t fb = view.fwd_begin()[s];
          for (std::uint64_t e = fb; e < fb + view.fwd_count()[s]; ++e) {
            table.AddCredit(v, view.fwd_node()[e], view.fwd_credit()[e]);
          }
        }
        const PropagationDag dag = BuildPropagationDag(graph, trace);
        ScanDagRange(dag, credit_model, config.truncation_threshold,
                     /*begin_pos=*/old_size, &table, &arenas[thread]);
      });
  arenas.clear();  // the rows live in the tables now

  // Assemble the new snapshot through the shared freeze: rebuilt tables
  // where something changed, verbatim (entry-rebased) copies of the
  // mmap'd arrays everywhere else. An unchanged action's entries keep
  // their layout, so its ranges move as a block by new_base - old_base.
  SnapshotData data;
  FreezeActions(
      log, config.scan_threads,
      [&](ActionId a) -> std::uint64_t {
        if (changed_index[a] != ~0ULL) {
          return tables[changed_index[a]].num_entries();
        }
        return view.action_entry_begin()[a + 1] - view.action_entry_begin()[a];
      },
      [&](ActionFreezer& freezer, ActionId a,
          std::span<const ActionTuple> trace) {
        if (changed_index[a] != ~0ULL) {
          freezer.Freeze(tables[changed_index[a]], a, trace, &data);
          return;
        }
        const std::uint64_t old_base = view.action_entry_begin()[a];
        const std::uint64_t old_end = view.action_entry_begin()[a + 1];
        const std::uint64_t new_base = data.action_entry_begin[a];
        const auto copy = [&](auto from, auto& to) {
          std::copy(from.begin() + old_base, from.begin() + old_end,
                    to.begin() + new_base);
        };
        copy(view.fwd_node(), data.fwd_node);
        copy(view.fwd_credit(), data.fwd_credit);
        copy(view.bwd_node(), data.bwd_node);
        for (std::uint64_t e = old_base; e < old_end; ++e) {
          data.bwd_entry[e - old_base + new_base] =
              view.bwd_entry()[e] - old_base + new_base;
        }
        for (const ActionTuple& t : trace) {
          const std::uint64_t old_s = view.SlotOf(t.user, a);
          const std::uint64_t new_s = data.SlotOf(t.user, a);
          data.fwd_begin[new_s] = view.fwd_begin()[old_s] - old_base + new_base;
          data.fwd_count[new_s] = view.fwd_count()[old_s];
          data.bwd_begin[new_s] = view.bwd_begin()[old_s] - old_base + new_base;
          data.bwd_count[new_s] = view.bwd_count()[old_s];
        }
      },
      &data);
  data.truncation_threshold = config.truncation_threshold;
  data.graph_fingerprint = view.graph_fingerprint();

  INFLUMAX_RETURN_IF_ERROR(WriteSnapshotFile(data, out_path));
  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace influmax
