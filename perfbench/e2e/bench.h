// Shared pieces of bench_e2e, the end-to-end benchmark (perfbench/README.md):
// options, the result sheet every workload fills, the benchmark's own span
// recorder, percentile helpers, the hardware fingerprint, input loading, and
// the offline build pipeline every workload runs.
//
// bench_e2e reaches the system under test only through the public calls of
// src/; nothing here changes or instruments the library.

#ifndef PERFBENCH_E2E_BENCH_H_
#define PERFBENCH_E2E_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "actionlog/action_log.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/direct_credit.h"
#include "graph/graph.h"
#include "probability/time_params.h"
#include "shard/shard_router.h"

namespace perfbench {

using influmax::ActionLog;
using influmax::Graph;
using influmax::NodeId;
using influmax::Result;
using influmax::Status;

// --------------------------------------------------------------- options

struct Options {
  std::string mode;      // generate | build | run
  std::string workload;  // build | query_local | query_remote | ingest
  std::uint64_t seed = 1;       // op mix: queried nodes, seeds, schedule
  std::uint64_t data_seed = 0;  // dataset; 0 = the preset's own seed
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // inputs, generations, trace output
  double scale = 0.05;   // flixster_large scale
  bool corrupt_reference = false;  // self-test: poison one reference answer
  // build mode: builds to run (median kept); run mode of a serving
  // workload: builds of the served generation to repeat after the run.
  int builds = 1;
  std::string report_path;         // build mode: where the times go
  std::string commit = "unknown";  // recorded in the fingerprint
};

inline constexpr std::size_t kShards = 4;
inline constexpr double kLambda = 0.001;

// ----------------------------------------------------------------- clock

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// ------------------------------------------------------------ statistics

/// A percentile as reported: the value, the percentile actually used, and
/// the sample count it came from.
struct Quantile {
  double value = 0.0;
  double pct = 0.0;
  std::uint64_t samples = 0;
  std::size_t blocks = 1;
};

/// Nearest-rank percentile `pct` of `samples` (sorted in place), clamped to
/// the highest percentile that still has at least 10 samples beyond it —
/// the tail rule of perfbench/README.md. Empty input gives a zero sample
/// count.
Quantile TailQuantile(std::vector<double>* samples, double pct);

/// Plain median (pct 50, no tail clamp needed).
double Median(std::vector<double> samples);

/// The latency statistic every workload reports: `samples` (in the order
/// they were taken) cut into up to kBlocks equal time blocks — as many as
/// keep 10 samples beyond `pct` in each — TailQuantile(pct) of each block,
/// and the median over blocks. A transient stall moves one block, not the
/// reported value. `pct` of the result is the percentile used per block.
inline constexpr std::size_t kBlocks = 10;
Quantile BlockQuantile(const std::vector<double>& samples, double pct);

// ---------------------------------------------------------- result sheet

/// Everything one run reports: metrics with unit and sample count, echoed
/// inputs (seed, dataset shape, ops attempted per type and session),
/// correctness counts, and the fingerprint. Thread-safe for Count().
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
    std::string note;  // e.g. "p98.7 of 770" when the tail was clamped
  };

  void Set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples, const std::string& note = "");
  /// Sets a BlockQuantile of `samples` (ns, in time order) scaled by
  /// `scale`, noting how it was taken.
  void SetLatency(const std::string& name, const std::vector<double>& samples,
                  double pct, double scale, const std::string& unit) {
    SetQuantile(name, BlockQuantile(samples, pct), scale, unit, pct);
  }
  void SetQuantile(const std::string& name, const Quantile& q, double scale,
                   const std::string& unit, double wanted_pct);
  void Echo(const std::string& key, const std::string& value);
  void Echo(const std::string& key, double value);

  /// Records `attempted` operations of which `failed` failed or answered
  /// wrong.
  void Count(std::uint64_t attempted, std::uint64_t failed);
  void Fail(const std::string& why);

  bool correct() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_.empty() && failed_ == 0;
  }
  bool has(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_.count(name) != 0;
  }

  /// Human-readable lines followed by one JSON line (the last line).
  void Print(const Options& options) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> echo_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ----------------------------------------------------------------- spans

/// The benchmark's own span recorder (the traced run): each span has a
/// name, a start, an end, a parent, and the id of the interaction it
/// belongs to. Kept in memory per thread; written as Chrome trace-event
/// JSON when the run ends. Off by default — a disabled ScopedSpan only
/// reads the clock when asked for its duration.
class Spans {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  // index in the same thread's list
    std::uint64_t group = 0;   // interaction id
  };

  /// Per-name aggregate over closed spans: count, total span time, and
  /// self time (span time minus the time its direct children cover).
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  static void Enable(bool on);
  static bool enabled();

  static std::size_t Open(const char* name, std::uint64_t group);
  static void Close(std::size_t index);

  /// Aggregates every recorded span by name.
  static std::map<std::string, Totals> Aggregate();

  /// Writes the first kMaxTraceEvents spans (aggregates use all of them).
  static constexpr std::size_t kMaxTraceEvents = 100000;
  static Status WriteChromeTrace(const std::string& path);
};

/// RAII span; records only while Spans::enabled(). Always measures its own
/// duration, so untraced code paths can time the same region.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t group = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early; returns its duration in ns.
  std::uint64_t End();

 private:
  std::uint64_t start_ns_;
  std::uint64_t duration_ns_ = 0;
  std::size_t index_ = 0;
  bool recording_;
  bool open_ = true;
};

// ---------------------------------------------------------- fingerprint

/// Hardware and build fingerprint echoed with every result; the compare
/// step reports results with different fingerprints as not comparable.
void EchoFingerprint(const Options& options, Report* report);

/// Peak resident set (VmHWM) in MB.
double PeakRssMb();

// ---------------------------------------------------------------- inputs

/// File names inside the work directory.
std::string GraphPath(const Options& options);
std::string LogPath(const Options& options);            // full log
std::string IngestBasePath(const Options& options);     // ingest base log
std::string IngestStepPath(const Options& options, int step);
std::string GenerationDir(const Options& options);      // live generation
std::string MonoPath(const Options& options);           // mono reference

inline constexpr int kIngestSteps = 4;

/// generate mode: BuildPresetDataset(flixster_large(scale), data_seed)
/// written as binary files; the ingest workload also gets its base and step
/// logs.
Status GenerateInputs(const Options& options);

/// Users who performed at least one action (the query population).
std::vector<NodeId> ActiveUsers(const ActionLog& log);

/// The time-decay credit model (Eq. 9) with its learned parameters.
struct Credit {
  std::unique_ptr<influmax::InfluenceTimeParams> params;
  std::unique_ptr<influmax::DirectCreditModel> model;
};
Result<Credit> LearnCredit(const Graph& graph, const ActionLog& log);

// ---------------------------------------------------------------- build

/// Stage times of one offline build, from files on disk to an opened,
/// live 4-shard generation. Every stage is one public call.
struct BuildTimes {
  double total_s = 0.0;
  std::map<std::string, double> stage_s;  // keyed by span name
  std::uint64_t entries = 0;
  double store_mb = 0.0;
  double scan_hwm_mb = 0.0;
  double freeze_hwm_mb = 0.0;
  double peak_rss_mb = 0.0;  // VmHWM of the build process at its end
  std::vector<double> totals;  // total_s of the builds this one is the median of
  NodeId nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t tuples = 0;
  std::uint64_t actions = 0;
};

/// Names of the build stages, in order (also the span names).
const std::vector<std::string>& BuildStageNames();

/// Runs read -> LearnTimeParams -> Build (scan) -> BuildSnapshotData
/// (freeze) -> WriteSnapshotFile -> CreditSnapshotView::Open ->
/// ShardedSnapshotWriter::WriteFromView (split, CURRENT flipped) ->
/// OpenShardedSnapshot into `gen_dir` (emptied first). The monolithic
/// snapshot stays at `mono_path` for the correctness reference.
Result<BuildTimes> RunBuild(const std::string& graph_path,
                            const std::string& log_path,
                            const std::string& gen_dir,
                            const std::string& mono_path,
                            std::uint64_t group);

/// Build-mode hand-off: the serving workloads build their generation in a
/// separate process (so their peak RSS is the serving process's own) and
/// read its stage times back from this file.
std::string BuildReportPath(const Options& options);

/// build mode: runs options.builds builds in this process and saves the
/// median one (by total time) to options.report_path, or BuildReportPath.
Status RunBuildMode(const Options& options);

/// The build whose total time is the median (lower middle) of `builds`.
const BuildTimes& MedianBuild(const std::vector<BuildTimes>& builds);
Status SaveBuildTimes(const BuildTimes& build, const std::string& path);
Result<BuildTimes> LoadBuildTimes(const std::string& path);

/// Runs `builds` builds in build mode in a child process of this program
/// (so their VmHWM is their own), writing the generation and the mono
/// snapshot of `options`, and loads the report it leaves at `report`.
Result<BuildTimes> SpawnBuild(const Options& options, bool traced, int builds,
                              const std::string& report);

/// Sets build_s of a serving workload: the median over the builds made
/// before the run (`early`) and options.builds more made after it, so that
/// it samples the whole run, not the few seconds before it; a slow spell
/// of the shared box then moves some of its samples, not all. Call after
/// the last use of the generation and the mono snapshot: the builds after
/// the run overwrite both.
Status SetServingBuildSeconds(const Options& options, const BuildTimes& early,
                              Report* report);

/// Echoes the dataset shape: nodes, edges, tuples, actions, entries, and
/// generation bytes.
void EchoShape(const BuildTimes& build, double disk_mb, Report* report);

/// Bytes of the live generation: every blob CURRENT's manifest names plus
/// the manifest itself, in MB.
Result<double> GenerationDiskMb(const std::string& gen_dir);

/// Reports per-layer build metrics from one build (the median one).
void ReportBuildLayers(const BuildTimes& build, Report* report);

/// Layer names every workload reports; a layer a workload does not
/// exercise reports 0 (perfbench/README.md).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Gain attribution (traced run): the router gains of `nodes` and the
/// chained per-shard AccumulateGainTerms folds of the same nodes, timed in
/// separate passes in ABBA order (so neither side finds the node's data in
/// cache because the other just touched it); reports serve.gain_terms_us
/// and shard.router_overhead_us (router median - terms median).
void ProbeGainAttribution(influmax::ShardRouter& router,
                          const std::vector<NodeId>& nodes, Report* report);

/// Net-layer probe (traced run of query_local): 4 loopback ShardServers
/// over the generation, one RemoteShardRouter with 5 committed seeds, and a
/// closed loop of remote gains each checked against and timed beside the
/// in-process router; reports net.gain_overhead_us and the net counters.
void ProbeNetLayer(const Options& options, const std::vector<NodeId>& users,
                   Report* report);

/// Fills every per-layer metric not yet set with 0.
void FillUnexercisedLayers(Report* report);

// -------------------------------------------------------------- workloads

int RunBuildWorkload(const Options& options, Report* report);
int RunQueryLocalWorkload(const Options& options, Report* report);
int RunQueryRemoteWorkload(const Options& options, Report* report);
int RunIngestWorkload(const Options& options, Report* report);

/// Bitwise equality of two doubles (the bit-identity gates).
bool SameBits(double a, double b);

/// Flips the lowest mantissa bit (the self-test's corrupted reference).
double Corrupt(double value);

/// Uniform pick from `users`.
inline NodeId Pick(influmax::Rng& rng, const std::vector<NodeId>& users) {
  return users[rng.NextBounded(users.size())];
}

}  // namespace perfbench

#endif  // PERFBENCH_E2E_BENCH_H_
