#ifndef INFLUMAX_SHARD_GENERATION_MANAGER_H_
#define INFLUMAX_SHARD_GENERATION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "actionlog/action_log.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "graph/graph.h"
#include "serve/query_engine.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"

namespace influmax {

/// Aggregate statistics of one generation ingest.
struct IngestStats {
  std::uint64_t generation = 0;       // the generation that was published
  ActionId unchanged_actions = 0;     // copied verbatim across all shards
  ActionId rescanned_actions = 0;     // old actions with appended tuples
  ActionId new_actions = 0;           // actions absent from the old gen
  std::uint64_t replayed_tuples = 0;  // activations actually re-scanned
};

/// Serves queries from the current generation of a sharded snapshot
/// directory while new generations are ingested and swapped in without
/// dropping a query (docs/sharding.md).
///
/// The swap is epoch-based publication applied to whole generations: a
/// Session pins the current epoch in its own cache-line slot and loads
/// the published generation pointer; the writer (IngestLog /
/// RefreshFromDisk) swaps the pointer with one atomic exchange, retires
/// the old generation, bumps the global epoch, and reclaims — unmaps — a
/// retired generation only when every registered session has re-pinned
/// past its retire epoch. A session therefore always sees one internally
/// consistent generation for as long as it stays pinned
/// ("pre-swap-consistent"), and an old generation's mmaps are never
/// unmapped under a live reader. Correctness rests on seq_cst ordering:
/// a reader pins before it loads the pointer, and the writer swaps the
/// pointer before it retires the old generation.
///
/// Concurrency contract: any number of Sessions (each used by one thread
/// at a time); all writer-side calls (IngestLog, RefreshFromDisk,
/// ReclaimRetired, StartWatch/StopWatch, retired_generations) from one
/// thread at a time. The manager must outlive its sessions.
class GenerationManager {
 public:
  /// One published generation: the manifest, every shard's mmap'd view.
  struct Generation {
    ShardedSnapshot shards;
    /// Strictly increasing per publish, never recycled — the token
    /// Session::Refresh compares. Manifest generation numbers are NOT
    /// usable for this: RefreshFromDisk legally republishes an older
    /// number (CURRENT flipped back), and a freed generation's address
    /// can be reused, so neither pointers nor manifest numbers can
    /// prove "still the one I pinned".
    std::uint64_t publish_seq = 0;
    std::uint64_t retire_epoch = 0;  // writer-only, set at retirement
  };

  /// Opens the generation directory: reads CURRENT, opens and validates
  /// the manifest it names plus every shard blob. With `recover`, runs
  /// RecoverGenerationDir first (docs/durability.md): temp/orphan
  /// cleanup, quarantine of invalid generations, and fallback to the
  /// newest fully-valid one when CURRENT's target is damaged — the
  /// restart-after-crash path.
  static Result<std::unique_ptr<GenerationManager>> Open(
      const std::string& dir, std::size_t max_sessions = 64,
      bool recover = false);

  ~GenerationManager();

  GenerationManager(const GenerationManager&) = delete;
  GenerationManager& operator=(const GenerationManager&) = delete;

  const std::string& dir() const { return dir_; }

  /// Generation number of the latest published manifest. Call from the
  /// writer thread, or from a thread holding a live Session: a pinned
  /// session keeps any generation loaded here from being reclaimed
  /// between the load and the read (reclamation waits for every pinned
  /// epoch); with neither, a concurrent publish could reclaim it
  /// mid-read.
  std::uint64_t current_generation() const {
    return published_.load()->shards.manifest.generation;
  }

  // ------------------------------------------------------- writer side

  /// Ingests `log` — an append-only extension of the current
  /// generation's log (per-action prefix hashes verified) — by running
  /// IncrementalRescan per shard on `shard_threads` workers (0 = auto),
  /// each against its range restricted from `log`
  /// (ActionLog::RestrictToActions). Actions appended beyond the old
  /// action count extend the last shard's range. Writes generation g+1's
  /// blobs and manifest, atomically repoints CURRENT, and publishes the
  /// new generation to sessions. A log whose fingerprint equals the
  /// current generation's is a no-op (stats report generation g).
  Status IngestLog(const ActionLog& log, const Graph& graph,
                   const DirectCreditModel& credit_model, CdConfig config,
                   std::size_t shard_threads = 0,
                   IngestStats* stats = nullptr);

  /// Re-reads CURRENT and, when it names a manifest of a different
  /// generation than the published one, opens and publishes it. This is
  /// the multi-process path: an external splitter writes a generation
  /// and flips CURRENT; the serving process only ever calls this.
  /// Returns true when a new generation was published. Transient I/O
  /// errors are retried under retry_policy(); a generation that still
  /// fails as Corruption after retries is quarantined
  /// (docs/durability.md) and the error returned — the published
  /// generation keeps serving either way. `deadline` bounds the retry
  /// schedule (common/timer.h): backoffs that would overshoot it are
  /// skipped, so a caller with its own budget (an RPC handler, a
  /// watcher tick) gets the last status back in time to degrade.
  Result<bool> RefreshFromDisk(const Deadline& deadline = Deadline::Infinite());

  /// Backoff schedule shared by RefreshFromDisk and the watcher loop.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Unmaps retired generations no session still pins. Publishing also
  /// reclaims; this exposes the sweep for drain loops and tests.
  void ReclaimRetired();

  /// Retired generations still waiting on a pinned session. Readable
  /// from any thread (an atomic mirror of the writer's retire list —
  /// the REPL's `stats` reads it while a watcher ingests).
  std::size_t retired_generations() const { return retired_count_.load(); }

  /// Starts the background ingestion loop: every `poll_interval` it
  /// calls `reload` and ingests the result (IngestLog semantics; a log
  /// that did not grow is a no-op). `reload` returns nullopt to skip
  /// the tick cheaply — the tool's file watcher stats the log and only
  /// reparses when size/mtime moved, so an idle watch costs two stat
  /// calls per tick, not a full parse + fingerprint. A failed tick
  /// degrades, never tears down: transient reload/ingest errors retry
  /// in-tick under retry_policy(), persistent ones are recorded
  /// (last_watch_status, watch.consecutive_errors, and — distinctly
  /// from a "no change" tick — watch.reload_errors for parse/reload
  /// failures), logged once per distinct reason, and retried next
  /// tick while the published generation keeps serving. One
  /// watcher at a time; StopWatch (or the destructor) joins it. The
  /// references must stay valid until StopWatch.
  void StartWatch(
      std::function<Result<std::optional<ActionLog>>()> reload,
      const Graph& graph, const DirectCreditModel& credit_model,
      CdConfig config, std::chrono::milliseconds poll_interval,
      std::size_t shard_threads = 0);
  void StopWatch();

  /// Status of the watcher's most recent reload/ingest attempt.
  Status last_watch_status() const;

  /// Generations the watcher has published since StartWatch.
  std::uint64_t watch_ingest_count() const {
    return watch_ingests_.load();
  }

  // ------------------------------------------------------- reader side

  /// A pinned serving session: one ShardRouter over one generation. The
  /// pinned generation never changes (or unmaps) under the session;
  /// Refresh() re-pins to the latest one, discarding session seeds when
  /// the generation moved. One thread at a time per session.
  class Session {
   public:
    explicit Session(GenerationManager& manager, WorkerPool* pool = nullptr);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    std::uint64_t generation() const {
      return generation_->shards.manifest.generation;
    }
    const ShardedSnapshot& shards() const { return generation_->shards; }
    ShardRouter& router() { return *router_; }

    /// Re-pins the latest generation; true (and a fresh router) when it
    /// differs from the pinned one.
    bool Refresh();

   private:
    GenerationManager* manager_;
    WorkerPool* pool_;
    std::atomic<std::uint64_t>* slot_;
    const Generation* generation_;
    std::unique_ptr<ShardRouter> router_;
  };

 private:
  struct alignas(64) SessionSlot {
    std::atomic<std::uint64_t> epoch;
  };

  static constexpr std::uint64_t kFreeSlot = ~0ULL;

  GenerationManager(std::string dir, std::unique_ptr<Generation> initial,
                    std::size_t max_sessions);

  /// Swaps `next` in, retires the old generation, bumps the epoch,
  /// reclaims. Writer-side.
  void Publish(std::unique_ptr<Generation> next);

  /// IngestLog's body. Reports through the out-params what the failure
  /// wrapper needs: the generation being built, its files that reached
  /// disk, and whether CURRENT was flipped (the commit point — past it
  /// a failure no longer makes the generation quarantinable).
  Status IngestLogImpl(const ActionLog& log, const Graph& graph,
                       const DirectCreditModel& credit_model, CdConfig config,
                       std::size_t shard_threads, IngestStats* stats,
                       std::uint64_t* new_generation,
                       std::vector<std::string>* written,
                       bool* current_flipped);

  void WatchLoop(std::function<Result<std::optional<ActionLog>>()> reload,
                 const Graph& graph, const DirectCreditModel& credit_model,
                 CdConfig config, std::chrono::milliseconds poll_interval,
                 std::size_t shard_threads);

  std::string dir_;
  RetryPolicy retry_policy_;
  std::atomic<Generation*> published_;
  std::atomic<std::uint64_t> global_epoch_{1};
  std::uint64_t publish_seq_ = 1;     // writer-private, init generation = 1
  std::vector<Generation*> retired_;  // writer-private
  std::atomic<std::size_t> retired_count_{0};  // mirrors retired_.size()
  std::vector<SessionSlot> slots_;

  // Watcher state.
  std::thread watch_thread_;
  mutable std::mutex watch_mu_;       // guards stop flag + status
  std::condition_variable watch_cv_;  // prompt shutdown
  bool watch_stop_ = false;
  Status watch_status_;
  std::atomic<std::uint64_t> watch_ingests_{0};
};

}  // namespace influmax

#endif  // INFLUMAX_SHARD_GENERATION_MANAGER_H_
