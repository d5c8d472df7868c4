#include "shard/generation_manager.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <span>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "serve/snapshot_writer.h"
#include "shard/recovery.h"

namespace influmax {
namespace {

// Generation-lifecycle telemetry (docs/observability.md). Everything
// here is on cold paths (swaps, ingests, session setup/teardown), so it
// records exactly, always-on. shard.ingest.lag is the watcher-tick ->
// publish-visible time — the staleness bound a freshly appended tuple
// pays before queries can see it.
struct GenMetrics {
  Counter* swaps;
  Timer* swap_latency;
  Gauge* retired;
  Gauge* pinned_sessions;
  Counter* ingests;
  Timer* ingest_latency;
  Counter* replayed_tuples;
  Timer* ingest_lag;
  Counter* watch_ticks;
  Counter* watch_errors;
  // Robustness surface (docs/durability.md): failures degrade into
  // these instead of tearing serving down.
  Counter* ingest_failures;     // IngestLog attempts that failed
  Counter* reload_errors;       // watcher reload/parse failures (NOT
                                // "no change" ticks — satellite fix)
  Gauge* consecutive_errors;    // failed watcher ticks in a row
  Counter* retry_attempts;      // every RunWithRetry attempt
};

const GenMetrics& GetGenMetrics() {
  static const GenMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return GenMetrics{
        reg.FindOrCreateCounter("shard.generation.swaps"),
        reg.FindOrCreateTimer("shard.generation.swap_latency"),
        reg.FindOrCreateGauge("shard.generation.retired"),
        reg.FindOrCreateGauge("shard.generation.pinned_sessions"),
        reg.FindOrCreateCounter("shard.ingest.count"),
        reg.FindOrCreateTimer("shard.ingest.latency"),
        reg.FindOrCreateCounter("shard.ingest.replayed_tuples"),
        reg.FindOrCreateTimer("shard.ingest.lag"),
        reg.FindOrCreateCounter("shard.watch.ticks"),
        reg.FindOrCreateCounter("shard.watch.errors"),
        reg.FindOrCreateCounter("gen.ingest_failures"),
        reg.FindOrCreateCounter("watch.reload_errors"),
        reg.FindOrCreateGauge("watch.consecutive_errors"),
        reg.FindOrCreateCounter("retry.attempts"),
    };
  }();
  return metrics;
}

/// Highest generation number any MANIFEST-* file in `dir` names. The
/// next ingested generation must exceed every number ever written, not
/// just the published one: after a RefreshFromDisk flip-back to an
/// older generation, published+1 would collide with on-disk files and
/// rewrite blobs in place — under the mmaps of a still-pinned session.
std::uint64_t MaxGenerationOnDisk(const std::string& dir) {
  std::uint64_t max_generation = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t generation = 0;
    if (std::sscanf(name.c_str(), "MANIFEST-%" SCNu64, &generation) == 1) {
      max_generation = std::max(max_generation, generation);
    }
  }
  return max_generation;
}

}  // namespace

GenerationManager::GenerationManager(std::string dir,
                                     std::unique_ptr<Generation> initial,
                                     std::size_t max_sessions)
    : dir_(std::move(dir)), slots_(max_sessions) {
  initial->publish_seq = publish_seq_;
  published_.store(initial.release());
  for (SessionSlot& slot : slots_) {
    slot.epoch.store(kFreeSlot, std::memory_order_relaxed);
  }
}

GenerationManager::~GenerationManager() {
  StopWatch();
  delete published_.load(std::memory_order_relaxed);
  for (const Generation* generation : retired_) delete generation;
}

Result<std::unique_ptr<GenerationManager>> GenerationManager::Open(
    const std::string& dir, std::size_t max_sessions, bool recover) {
  if (recover) {
    auto report = RecoverGenerationDir(dir);
    INFLUMAX_RETURN_IF_ERROR(report.status());
  }
  auto current = ReadCurrentManifestName(dir);
  INFLUMAX_RETURN_IF_ERROR(current.status());
  auto shards = OpenShardedSnapshot(dir + "/" + *current);
  INFLUMAX_RETURN_IF_ERROR(shards.status());
  auto generation = std::make_unique<Generation>();
  generation->shards = std::move(shards).value();
  return std::unique_ptr<GenerationManager>(
      new GenerationManager(dir, std::move(generation), max_sessions));
}

void GenerationManager::Publish(std::unique_ptr<Generation> next) {
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) obs_t0 = MonotonicNowNs();
  next->publish_seq = ++publish_seq_;
  Generation* old = published_.exchange(next.release());
  if (old != nullptr) {
    old->retire_epoch = global_epoch_.load();
    retired_.push_back(old);
    retired_count_.store(retired_.size());
  }
  global_epoch_.fetch_add(1);
  ReclaimRetired();
  if constexpr (kObsEnabled) {
    const GenMetrics& m = GetGenMetrics();
    m.swaps->Increment();
    m.swap_latency->Record(MonotonicNowNs() - obs_t0);
  }
}

void GenerationManager::ReclaimRetired() {
  // A retired generation is unmapped only when every registered session has pinned
  // an epoch past its retirement (or released its slot). A session that
  // never refreshes keeps its generation mapped — that is the contract,
  // not a leak.
  std::uint64_t min_pinned = kFreeSlot;
  for (const SessionSlot& slot : slots_) {
    const std::uint64_t epoch = slot.epoch.load();
    if (epoch < min_pinned) min_pinned = epoch;
  }
  std::size_t kept = 0;
  for (Generation* generation : retired_) {
    if (generation->retire_epoch < min_pinned) {
      delete generation;
    } else {
      retired_[kept++] = generation;
    }
  }
  retired_.resize(kept);
  retired_count_.store(kept);
  GetGenMetrics().retired->Set(static_cast<std::int64_t>(kept));
}

Status GenerationManager::IngestLog(const ActionLog& log, const Graph& graph,
                                    const DirectCreditModel& credit_model,
                                    CdConfig config, std::size_t shard_threads,
                                    IngestStats* stats) {
  std::uint64_t new_generation = 0;
  std::vector<std::string> written;
  bool current_flipped = false;
  Status status = IngestLogImpl(log, graph, credit_model, config,
                                shard_threads, stats, &new_generation,
                                &written, &current_flipped);
  if (!status.ok()) {
    GetGenMetrics().ingest_failures->Increment();
    // Graceful degradation: the published generation keeps serving —
    // CURRENT still names it — and the aborted attempt's files are
    // quarantined so scans and MaxGenerationOnDisk stop seeing them.
    // Past the CURRENT flip the new generation is committed and valid;
    // quarantining it would contradict the disk (RefreshFromDisk picks
    // it up instead).
    if (!current_flipped && !written.empty()) {
      auto quarantined = QuarantineGenerationFiles(
          dir_, new_generation, status.message(), written);
      if (!quarantined.ok()) {
        INFLUMAX_LOG_WARN << "ingest: could not quarantine generation "
                          << new_generation << ": "
                          << quarantined.status().message();
      }
    }
  }
  return status;
}

Status GenerationManager::IngestLogImpl(
    const ActionLog& log, const Graph& graph,
    const DirectCreditModel& credit_model, CdConfig config,
    std::size_t shard_threads, IngestStats* stats,
    std::uint64_t* new_generation, std::vector<std::string>* written,
    bool* current_flipped) {
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) obs_t0 = MonotonicNowNs();
  // The writer owns published_; a plain load is the current generation.
  const Generation* cur = published_.load();
  const ShardManifest& m = cur->shards.manifest;
  if (log.num_users() != m.num_users) {
    return Status::InvalidArgument(
        "ingest: log user space does not match the manifest (" +
        std::to_string(log.num_users()) + " vs " +
        std::to_string(m.num_users) + ")");
  }
  if (log.num_actions() < m.num_actions) {
    return Status::Corruption(
        "ingest: log has fewer actions than the current generation");
  }
  // Hash every trace once: it yields the whole-log fingerprint (the
  // no-op check), and each shard's restricted-log fingerprint (the
  // reuse check below) as sub-chains of the same array.
  std::vector<std::uint64_t> trace_hashes(log.num_actions());
  for (ActionId a = 0; a < log.num_actions(); ++a) {
    trace_hashes[a] = HashActionTrace(log.ActionTrace(a));
  }
  const std::uint64_t log_fingerprint =
      FingerprintTraceHashes(log.num_users(), trace_hashes);
  if (log_fingerprint == m.log_fingerprint) {
    if (stats != nullptr) *stats = {.generation = m.generation};
    return Status::OK();  // nothing appended
  }

  // Shard boundaries are stable across generations; actions appended
  // past the old action count extend the last shard's range (re-run
  // `serve_shards split` to rebalance).
  std::vector<ActionId> range_begin = m.range_begin;
  range_begin.back() = log.num_actions();
  const std::size_t shards = range_begin.size() - 1;
  const std::uint64_t generation =
      std::max(m.generation, MaxGenerationOnDisk(dir_)) + 1;
  *new_generation = generation;

  // Per-shard IncrementalRescan in parallel — but only for shards whose
  // restricted log actually grew. An untouched shard's blob is
  // re-referenced by name in the new manifest instead of being
  // byte-copied into a gen-g+1 file (an append that lands in one shard
  // must not rewrite the whole snapshot every watch tick). Each rescan
  // verifies its own append-only extension (prefix trace hashes)
  // against its restricted log. On any failure the already written
  // blobs are orphans of an unpublished generation — CURRENT still
  // names generation g, so nothing serves them.
  std::vector<Status> shard_status(shards);
  std::vector<RescanStats> shard_stats(shards);
  std::vector<std::string> shard_files(shards);
  std::vector<std::uint8_t> reused(shards, 0);
  for (std::size_t i = 0; i < shards; ++i) {
    const ActionId range = range_begin[i + 1] - range_begin[i];
    const std::uint64_t restricted_fingerprint = FingerprintTraceHashes(
        log.num_users(),
        std::span<const std::uint64_t>(trace_hashes)
            .subspan(range_begin[i], range));
    // Every shard blob records its restricted log's fingerprint
    // (SliceShardData and IncrementalRescan both stamp it).
    if (restricted_fingerprint == cur->shards.views[i].log_fingerprint()) {
      reused[i] = 1;
      shard_files[i] = m.shard_files[i];
      shard_stats[i].unchanged_actions = range;
    }
  }
  ParallelForDynamic(
      shards, shard_threads, [&](std::size_t /*thread*/, std::size_t i) {
        if (reused[i]) return;
        std::vector<ActionId> actions(range_begin[i + 1] - range_begin[i]);
        std::iota(actions.begin(), actions.end(), range_begin[i]);
        const ActionLog restricted = log.RestrictToActions(actions);
        shard_files[i] = ShardFileName(generation, i);
        shard_status[i] = IncrementalRescan(
            cur->shards.views[i], graph, restricted, credit_model, config,
            dir_ + "/" + shard_files[i], &shard_stats[i]);
      });
  for (std::size_t i = 0; i < shards; ++i) {
    // Blobs that reached disk, whether or not a sibling failed — the
    // wrapper quarantines them on any error below.
    if (!reused[i] && shard_status[i].ok()) written->push_back(shard_files[i]);
  }
  for (const Status& status : shard_status) {
    INFLUMAX_RETURN_IF_ERROR(status);
  }
  INFLUMAX_FAILPOINT("ingest.after_blobs");

  ShardManifest next;
  next.generation = generation;
  next.num_users = m.num_users;
  next.num_actions = log.num_actions();
  next.graph_fingerprint = m.graph_fingerprint;
  next.log_fingerprint = log_fingerprint;
  next.truncation_threshold = m.truncation_threshold;
  next.range_begin = std::move(range_begin);
  next.au.resize(m.num_users);
  for (NodeId u = 0; u < m.num_users; ++u) {
    next.au[u] = log.ActionsPerformedBy(u);
  }
  next.shard_files = std::move(shard_files);
  next.shard_fingerprints.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto fingerprint =
        FingerprintShardFile(dir_ + "/" + next.shard_files[i]);
    INFLUMAX_RETURN_IF_ERROR(fingerprint.status());
    if (reused[i]) {
      // Reuse-by-name safety: the new manifest is about to vouch for
      // this blob with the old manifest's fingerprint, so the bytes on
      // disk must still match it — a blob rewritten, truncated, or
      // bit-rotted since generation g was validated must fail HERE, not
      // in some future reader of generation g+1.
      if (*fingerprint != m.shard_fingerprints[i]) {
        return Status::Corruption(
            "ingest: reused shard blob '" + next.shard_files[i] +
            "' no longer matches the current manifest's fingerprint");
      }
    }
    next.shard_fingerprints.push_back(*fingerprint);
  }
  const std::string manifest_name = ManifestFileName(generation);
  INFLUMAX_RETURN_IF_ERROR(
      WriteShardManifest(next, dir_ + "/" + manifest_name));
  written->push_back(manifest_name);
  INFLUMAX_FAILPOINT("ingest.after_manifest");

  // Re-open through the validating path (what any fresh process would
  // see), then make the generation durable (CURRENT) and live (publish).
  auto opened = OpenShardedSnapshot(dir_ + "/" + manifest_name);
  INFLUMAX_RETURN_IF_ERROR(opened.status());
  INFLUMAX_RETURN_IF_ERROR(WriteCurrentManifestName(dir_, manifest_name));
  *current_flipped = true;  // the commit point — no quarantine past here
  INFLUMAX_FAILPOINT("ingest.after_current");
  auto next_generation = std::make_unique<Generation>();
  next_generation->shards = std::move(opened).value();
  Publish(std::move(next_generation));

  IngestStats total{.generation = generation};
  for (const RescanStats& s : shard_stats) {
    total.unchanged_actions += s.unchanged_actions;
    total.rescanned_actions += s.rescanned_actions;
    total.new_actions += s.new_actions;
    total.replayed_tuples += s.replayed_tuples;
  }
  if constexpr (kObsEnabled) {
    const GenMetrics& m = GetGenMetrics();
    m.ingests->Increment();
    m.ingest_latency->Record(MonotonicNowNs() - obs_t0);
    m.replayed_tuples->Add(total.replayed_tuples);
  }
  if (stats != nullptr) *stats = total;
  return Status::OK();
}

Result<bool> GenerationManager::RefreshFromDisk(const Deadline& deadline) {
  std::string manifest_name;
  bool unchanged = false;
  std::optional<ShardedSnapshot> shards;
  const auto attempt = [&]() -> Status {
    unchanged = false;
    shards.reset();
    auto current = ReadCurrentManifestName(dir_);
    INFLUMAX_RETURN_IF_ERROR(current.status());
    manifest_name = *current;
    auto manifest = ReadShardManifest(dir_ + "/" + manifest_name);
    INFLUMAX_RETURN_IF_ERROR(manifest.status());
    if (manifest->generation == current_generation()) {
      unchanged = true;
      return Status::OK();
    }
    auto opened = OpenShardedSnapshot(dir_ + "/" + manifest_name);
    INFLUMAX_RETURN_IF_ERROR(opened.status());
    shards = std::move(opened).value();
    return Status::OK();
  };
  const Status status = RunWithRetry(
      retry_policy_, attempt, GetGenMetrics().retry_attempts, {}, deadline);
  if (!status.ok()) {
    // A generation still Corruption after retries is damaged on disk,
    // not in flight — quarantine it so recovery and scans skip it. The
    // published generation (still serving from its mmaps) is left
    // alone even if CURRENT points at it: renaming files does not
    // perturb live mappings, but it WOULD break future reuse-by-name.
    std::uint64_t bad_generation = 0;
    if (status.code() == StatusCode::kCorruption &&
        std::sscanf(manifest_name.c_str(), "MANIFEST-%" SCNu64,
                    &bad_generation) == 1 &&
        bad_generation != current_generation()) {
      if (Status q = QuarantineGeneration(dir_, bad_generation,
                                          status.message());
          !q.ok()) {
        INFLUMAX_LOG_WARN << "refresh: could not quarantine generation "
                          << bad_generation << ": " << q.message();
      }
    }
    return status;
  }
  if (unchanged) return false;
  auto generation = std::make_unique<Generation>();
  generation->shards = std::move(*shards);
  Publish(std::move(generation));
  return true;
}

void GenerationManager::StartWatch(
    std::function<Result<std::optional<ActionLog>>()> reload,
    const Graph& graph, const DirectCreditModel& credit_model,
    CdConfig config, std::chrono::milliseconds poll_interval,
    std::size_t shard_threads) {
  INFLUMAX_CHECK(!watch_thread_.joinable());
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = false;
  }
  watch_ingests_.store(0);  // "generations published since StartWatch"
  watch_thread_ = std::thread([this, reload = std::move(reload), &graph,
                               &credit_model, config, poll_interval,
                               shard_threads] {
    WatchLoop(reload, graph, credit_model, config, poll_interval,
              shard_threads);
  });
}

void GenerationManager::WatchLoop(
    std::function<Result<std::optional<ActionLog>>()> reload,
    const Graph& graph, const DirectCreditModel& credit_model,
    CdConfig config, std::chrono::milliseconds poll_interval,
    std::size_t shard_threads) {
  // Backoff sleeps wake immediately on StopWatch so an in-tick retry
  // never delays shutdown past one attempt.
  const auto interruptible_sleep = [this](std::uint64_t millis) {
    std::unique_lock<std::mutex> lock(watch_mu_);
    watch_cv_.wait_for(lock, std::chrono::milliseconds(millis),
                       [this] { return watch_stop_; });
  };
  const auto stopping = [this] {
    std::lock_guard<std::mutex> lock(watch_mu_);
    return watch_stop_;
  };
  // Degradation is per-tick, teardown never: each failure is recorded
  // and logged once per distinct reason (a flapping disk must not fill
  // the log at poll frequency), and the next tick starts clean.
  std::string last_error_reason;
  std::int64_t consecutive_errors = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watch_mu_);
      watch_cv_.wait_for(lock, poll_interval, [this] { return watch_stop_; });
      if (watch_stop_) return;
    }
    std::uint64_t tick_t0 = 0;
    if constexpr (kObsEnabled) {
      GetGenMetrics().watch_ticks->Increment();
      tick_t0 = MonotonicNowNs();
    }
    // Reload under retry. A reload error (the log no longer parses, the
    // file went unreadable) is a real failure, counted separately from
    // the "no change" nullopt a healthy idle tick returns. Both retry
    // loops below share one tick-wide deadline: a transient that needs
    // longer than a poll interval to clear is better served by the NEXT
    // tick's fresh attempt than by backoffs bleeding into it.
    const Deadline tick_deadline = Deadline::AfterMs(
        static_cast<std::uint64_t>(poll_interval.count()));
    std::optional<ActionLog> log;
    Status status = RunWithRetry(
        retry_policy_,
        [&]() -> Status {
          if (stopping()) return Status::FailedPrecondition("watch stopping");
          auto reloaded = reload();
          INFLUMAX_RETURN_IF_ERROR(reloaded.status());
          log = std::move(reloaded).value();
          return Status::OK();
        },
        GetGenMetrics().retry_attempts, interruptible_sleep, tick_deadline);
    if (!status.ok()) {
      GetGenMetrics().reload_errors->Increment();
    } else if (log.has_value()) {
      const std::uint64_t before = current_generation();
      status = RunWithRetry(
          retry_policy_,
          [&]() -> Status {
            if (stopping()) return Status::FailedPrecondition(
                "watch stopping");
            return IngestLog(*log, graph, credit_model, config,
                             shard_threads);
          },
          GetGenMetrics().retry_attempts, interruptible_sleep, tick_deadline);
      if (status.ok() && current_generation() != before) {
        watch_ingests_.fetch_add(1);
        if constexpr (kObsEnabled) {
          // Ingest lag: watcher tick (log reload included) to the new
          // generation being visible to fresh sessions.
          GetGenMetrics().ingest_lag->Record(MonotonicNowNs() - tick_t0);
        }
      }
    }
    if (stopping()) return;  // don't record the shutdown sentinel status
    if (status.ok()) {
      consecutive_errors = 0;
      last_error_reason.clear();  // a recurrence after recovery re-logs
    } else {
      ++consecutive_errors;
      GetGenMetrics().watch_errors->Increment();
      if (status.message() != last_error_reason) {
        last_error_reason = status.message();
        INFLUMAX_LOG_WARN << "watch: tick failed, generation "
                          << current_generation() << " keeps serving: "
                          << last_error_reason;
      }
    }
    GetGenMetrics().consecutive_errors->Set(consecutive_errors);
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_status_ = status;
  }
}

void GenerationManager::StopWatch() {
  if (!watch_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  watch_thread_.join();
}

Status GenerationManager::last_watch_status() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return watch_status_;
}

// ---------------------------------------------------------------- Session

GenerationManager::Session::Session(GenerationManager& manager,
                                    WorkerPool* pool)
    : manager_(&manager), pool_(pool), slot_(nullptr) {
  for (SessionSlot& slot : manager.slots_) {
    std::uint64_t expected = kFreeSlot;
    // Claim with a sub-epoch pin so a concurrent publish can never
    // reclaim the generation loaded just below (pin before load).
    if (slot.epoch.compare_exchange_strong(expected,
                                           manager.global_epoch_.load())) {
      slot_ = &slot.epoch;
      break;
    }
  }
  INFLUMAX_CHECK(slot_ != nullptr &&
                 "GenerationManager: all reader sessions are in use");
  generation_ = manager.published_.load();
  router_ = std::make_unique<ShardRouter>(generation_->shards, pool_);
  GetGenMetrics().pinned_sessions->Add(1);
}

GenerationManager::Session::~Session() {
  router_.reset();
  slot_->store(kFreeSlot);
  GetGenMetrics().pinned_sessions->Add(-1);
}

bool GenerationManager::Session::Refresh() {
  // Read the pinned publish sequence while the old pin still protects
  // the object, then re-pin and reload. Sequences strictly increase per
  // publish and are never recycled, so an equal sequence proves the
  // loaded pointer IS the very publish we pinned — still published,
  // hence never retired, hence alive — and the router (with its session
  // seeds) is kept. Raw pointers can't prove that (a reclaimed
  // generation's address may be reused) and manifest numbers can't
  // either (RefreshFromDisk legally republishes an older number).
  // Past the re-pin store the old generation is dereferenced only in
  // the equal-sequence case, where it is the published one.
  const std::uint64_t pinned_seq = generation_->publish_seq;
  slot_->store(manager_->global_epoch_.load());
  const Generation* latest = manager_->published_.load();
  if (latest->publish_seq == pinned_seq) {
    return false;
  }
  router_.reset();
  generation_ = latest;
  router_ = std::make_unique<ShardRouter>(generation_->shards, pool_);
  return true;
}

}  // namespace influmax
