// Workload `ingest`: writes beside reads (perfbench/README.md). The base
// generation holds a 60% prefix of every trace with the last 10% of actions
// missing. Per cycle, one writer calls GenerationManager::IngestLog 4 times
// (shard_threads = 1) on growing append-only extensions up to the full log,
// while 3 reader sessions loop: Refresh, ResetSession, 1 x CommitSeed, then
// 64 x MarginalGain. Every cycle starts from a hard-linked copy of the base
// generation; cycles repeat until the measured time is spent. The final
// generation's TopKSeeds(50) must equal a full rebuild of the final log.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "actionlog/log_io.h"
#include "core/cd_model.h"
#include "e2e/bench.h"
#include "graph/graph_io.h"
#include "shard/generation_manager.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kReaders = 3;
constexpr int kGainsPerInteraction = 64;
constexpr NodeId kTopK = 50;
constexpr int kMinCycles = 2;
constexpr int kSetupRepeats = 15;

struct ReaderStats {
  std::vector<double> gain, commit, refresh;
  std::uint64_t interactions = 0;
  std::uint64_t swaps = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t resets = 0;
};

struct Cycle {
  double measured_s = 0.0;
  std::vector<double> ingest_s;
  std::vector<influmax::IngestStats> stats;
  std::size_t max_retired = 0;
  std::vector<ReaderStats> readers;
  double disk_mb = 0.0;
};

Status LinkBase(const std::string& base, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  for (const auto& entry : fs::directory_iterator(base, ec)) {
    fs::create_hard_link(entry.path(), dir + "/" + entry.path().filename().string(),
                         ec);
    if (ec) return Status::IoError("cannot link " + entry.path().string());
  }
  return ec ? Status::IoError("cannot list " + base) : Status::OK();
}

void ReaderLoop(influmax::GenerationManager::Session& session,
                const std::vector<NodeId>& users, std::uint64_t seed,
                std::uint64_t reader, const std::atomic<bool>& stop,
                ReaderStats* out) {
  influmax::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3000 + reader);
  while (!stop.load(std::memory_order_relaxed)) {
    ScopedSpan root("interaction", ((reader + 1) << 40) | (out->interactions + 1));
    {
      ScopedSpan span("shard.refresh");
      const bool moved = session.Refresh();
      const double ns = static_cast<double>(span.End());
      ++out->refreshes;
      if (moved) {
        ++out->swaps;
        out->refresh.push_back(ns);
      }
    }
    influmax::ShardRouter& router = session.router();
    {
      ScopedSpan span("shard.reset");
      router.ResetSession();
      ++out->resets;
    }
    {
      ScopedSpan span("shard.commit");
      router.CommitSeed(Pick(rng, users));
      out->commit.push_back(static_cast<double>(span.End()));
    }
    for (int i = 0; i < kGainsPerInteraction; ++i) {
      const NodeId x = Pick(rng, users);
      ScopedSpan span("shard.gain");
      volatile double g = router.MarginalGain(x);
      (void)g;
      out->gain.push_back(static_cast<double>(span.End()));
    }
    ++out->interactions;
  }
}

struct Inputs {
  Graph graph;
  std::vector<ActionLog> steps;
  Credit credit;
  std::vector<NodeId> users;  // active in the base log
};

/// Runs one cycle in `dir` (a fresh hard-linked copy of the base). The
/// manager comes back through `*manager` so the caller can check the final
/// generation; the caller removes `dir`.
Result<Cycle> RunCycle(const Options& options, Inputs& in,
                       const std::string& dir, std::uint64_t index,
                       bool traced,
                       std::unique_ptr<influmax::GenerationManager>* out) {
  Cycle cycle;
  Status st = LinkBase(GenerationDir(options), dir);
  if (!st.ok()) return st;

  auto opened = influmax::GenerationManager::Open(dir);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<influmax::GenerationManager> manager =
      std::move(opened).value();
  std::vector<std::unique_ptr<influmax::GenerationManager::Session>> sessions;
  for (int r = 0; r < kReaders; ++r) {
    sessions.push_back(
        std::make_unique<influmax::GenerationManager::Session>(*manager));
    volatile double first = sessions.back()->router().MarginalGain(in.users[0]);
    (void)first;
  }

  Spans::Enable(traced);
  std::atomic<bool> stop{false};
  cycle.readers.resize(kReaders);
  const std::uint64_t start = NowNs();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLoop(*sessions[r], in.users, options.seed * 1000 + index, r,
                 stop, &cycle.readers[r]);
    });
  }
  influmax::CdConfig config;
  config.truncation_threshold = kLambda;
  for (const ActionLog& log : in.steps) {
    influmax::IngestStats stats;
    ScopedSpan span("shard.ingest");
    st = manager->IngestLog(log, in.graph, *in.credit.model, config,
                            /*shard_threads=*/1, &stats);
    cycle.ingest_s.push_back(static_cast<double>(span.End()) * 1e-9);
    if (!st.ok()) break;
    cycle.stats.push_back(stats);
    cycle.max_retired = std::max(cycle.max_retired, manager->retired_generations());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  cycle.measured_s = SecondsSince(start);
  Spans::Enable(false);
  if (!st.ok()) return st;

  auto disk = GenerationDiskMb(dir);
  if (!disk.ok()) return disk.status();
  cycle.disk_mb = *disk;
  sessions.clear();
  *out = std::move(manager);
  return cycle;
}

void Append(std::vector<double>* out, const std::vector<double>& in) {
  out->insert(out->end(), in.begin(), in.end());
}

}  // namespace

int RunIngestWorkload(const Options& options, Report* report) {
  auto build = LoadBuildTimes(BuildReportPath(options));
  if (!build.ok()) {
    report->Fail("build report: " + build.status().ToString());
    return 1;
  }
  if (options.trace) ReportBuildLayers(*build, report);

  // Inputs, outside every timed region: the graph, the step logs, and the
  // credit model the base generation was built with.
  Inputs in;
  auto graph = influmax::ReadGraphBinary(GraphPath(options));
  auto base = influmax::ReadActionLogBinary(IngestBasePath(options));
  if (!graph.ok() || !base.ok()) {
    report->Fail("cannot read the ingest inputs");
    return 1;
  }
  in.graph = std::move(graph).value();
  for (int step = 1; step <= kIngestSteps; ++step) {
    auto log = influmax::ReadActionLogBinary(IngestStepPath(options, step));
    if (!log.ok()) {
      report->Fail("step log: " + log.status().ToString());
      return 1;
    }
    in.steps.push_back(std::move(log).value());
  }
  auto credit = LearnCredit(in.graph, *base);
  if (!credit.ok()) {
    report->Fail("credit: " + credit.status().ToString());
    return 1;
  }
  in.credit = std::move(credit).value();
  in.users = ActiveUsers(*base);

  // Set-up: open the base generation, construct the reader sessions, answer
  // a gain on each. Repeated; the cycles below open their own copies.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::uint64_t t0 = NowNs();
    auto opened = influmax::GenerationManager::Open(GenerationDir(options));
    if (!opened.ok()) {
      report->Fail("open: " + opened.status().ToString());
      return 1;
    }
    std::vector<std::unique_ptr<influmax::GenerationManager::Session>> sessions;
    for (int s = 0; s < kReaders; ++s) {
      sessions.push_back(
          std::make_unique<influmax::GenerationManager::Session>(**opened));
      volatile double first = sessions.back()->router().MarginalGain(in.users[0]);
      (void)first;
    }
    setup_s.push_back(SecondsSince(t0));
  }

  // Cycles until the measured time is spent; the traced run measures its
  // second half traced.
  std::vector<Cycle> untraced;
  std::vector<Cycle> traced;
  std::unique_ptr<influmax::GenerationManager> final_manager;
  std::string final_dir;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::uint64_t index = 0;
  for (int pass = 0; pass < (options.trace ? 2 : 1); ++pass) {
    std::vector<Cycle>& cycles = pass == 0 ? untraced : traced;
    double measured = 0.0;
    while (cycles.size() < static_cast<std::size_t>(kMinCycles) ||
           measured < budget) {
      final_manager.reset();
      std::error_code ec;
      if (!final_dir.empty()) fs::remove_all(final_dir, ec);
      final_dir = options.work_dir + "/ingest-cycle" + std::to_string(index);
      auto cycle =
          RunCycle(options, in, final_dir, index++, pass == 1, &final_manager);
      if (!cycle.ok()) {
        report->Fail("ingest cycle: " + cycle.status().ToString());
        return 1;
      }
      measured += cycle->measured_s;
      cycles.push_back(std::move(cycle).value());
    }
  }
  const double peak_mb = PeakRssMb();

  std::vector<double> ingest_s, gain, commit;
  std::uint64_t interactions = 0, attempted = 0;
  double measured_s = 0.0;
  for (const Cycle& c : untraced) {
    Append(&ingest_s, c.ingest_s);
    measured_s += c.measured_s;
    for (const ReaderStats& r : c.readers) {
      Append(&gain, r.gain);
      Append(&commit, r.commit);
      interactions += r.interactions;
    }
  }
  for (const std::vector<Cycle>* cycles : {&untraced, &traced}) {
    for (const Cycle& c : *cycles) {
      attempted += c.ingest_s.size();
      for (const ReaderStats& r : c.readers) {
        attempted += r.gain.size() + r.commit.size() + r.refreshes + r.resets;
      }
    }
  }
  for (int r = 0; r < kReaders; ++r) {
    std::uint64_t n = 0, g = 0;
    for (const Cycle& c : untraced) {
      n += c.readers[r].interactions;
      g += c.readers[r].gain.size();
    }
    report->Echo("ops.reader" + std::to_string(r),
                 std::to_string(n) + " interactions: " + std::to_string(g) +
                     " gain, " + std::to_string(n) + " commit/reset/refresh");
  }
  report->Echo("ops.writer", std::to_string(ingest_s.size()) + " IngestLog in " +
                                 std::to_string(untraced.size()) + " cycles");
  report->Set("ingest_s", Median(ingest_s), "s", ingest_s.size());
  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
  report->Set("disk_mb", untraced.back().disk_mb, "MB", 1);
  EchoShape(*build, untraced.back().disk_mb, report);
  report->Set("interactions_per_s", static_cast<double>(interactions) / measured_s,
              "1/s", interactions);
  report->SetLatency("gain_p50_us", gain, 50, 1e-3, "us");
  report->SetLatency("gain_p99_us", gain, 99, 1e-3, "us");
  report->SetLatency("commit_p50_us", commit, 50, 1e-3, "us");
  report->SetLatency("commit_p99_us", commit, 99, 1e-3, "us");
  report->Set("peak_rss_mb", peak_mb, "MB", 1);

  const Cycle& first = untraced.front();
  std::uint64_t replayed = 0, rescanned = 0;
  for (const influmax::IngestStats& s : first.stats) {
    replayed += s.replayed_tuples;
    rescanned += s.rescanned_actions;
  }
  report->Set("shard.ingest_replayed_tuples", static_cast<double>(replayed),
              "count", first.stats.size());
  report->Set("shard.ingest_rescanned_actions", static_cast<double>(rescanned),
              "count", first.stats.size());
  if (options.trace) {
    std::vector<double> t_ingest, t_refresh;
    std::size_t max_retired = 0;
    std::uint64_t t_swaps = 0;
    for (const Cycle& c : traced) {
      Append(&t_ingest, c.ingest_s);
      max_retired = std::max(max_retired, c.max_retired);
      for (const ReaderStats& r : c.readers) {
        Append(&t_refresh, r.refresh);
        t_swaps += r.swaps;
      }
    }
    report->Set("shard.refresh_us", Median(t_refresh) * 1e-3, "us",
                t_refresh.size());
    report->Set("shard.retired_generations", static_cast<double>(max_retired),
                "count", traced.size());
    report->Set("shard.swaps",
                static_cast<double>(t_swaps) / static_cast<double>(traced.size()),
                "count", traced.size(), "reader re-pins per cycle");
    report->Set("trace.overhead_pct",
                100.0 * (Median(t_ingest) / Median(ingest_s) - 1.0), "%",
                t_ingest.size());
    const auto totals = Spans::Aggregate();
    if (totals.count("interaction")) {
      const Spans::Totals& root = totals.at("interaction");
      std::printf("ingest reader attribution per interaction (%llu traced): "
                  "%.2f us = ",
                  static_cast<unsigned long long>(root.count),
                  root.total_ns * 1e-3 / static_cast<double>(root.count));
      for (const char* name :
           {"shard.refresh", "shard.reset", "shard.commit", "shard.gain"}) {
        const double us = totals.count(name) ? totals.at(name).self_ns * 1e-3 /
                                                   static_cast<double>(root.count)
                                             : 0.0;
        std::printf("%s %.2f + ", name, us);
      }
      std::printf("unattributed %.2f us\n",
                  root.self_ns * 1e-3 / static_cast<double>(root.count));
    }
  }

  // Correctness gate: the last cycle's final generation against a full
  // rebuild of the final log.
  influmax::GenerationManager::Session session(*final_manager);
  if (options.trace) {
    influmax::Rng rng(options.seed * 17 + 3);
    std::vector<NodeId> probe(20000);
    for (NodeId& x : probe) x = Pick(rng, in.users);
    ProbeGainAttribution(session.router(), probe, report);
  }
  const influmax::SnapshotSeedSelection got = session.router().TopKSeeds(kTopK);
  influmax::CdConfig config;
  config.truncation_threshold = kLambda;
  auto rebuilt = influmax::CreditDistributionModel::Build(
      in.graph, in.steps.back(), *in.credit.model, config);
  if (!rebuilt.ok()) {
    report->Fail("rebuild: " + rebuilt.status().ToString());
    return 1;
  }
  auto want = rebuilt->SelectSeeds(kTopK);
  if (!want.ok()) {
    report->Fail("rebuild select: " + want.status().ToString());
    return 1;
  }
  if (options.corrupt_reference && !want->marginal_gains.empty()) {
    want->marginal_gains[0] = Corrupt(want->marginal_gains[0]);
  }
  bool same = got.seeds == want->seeds &&
              got.marginal_gains.size() == want->marginal_gains.size();
  for (std::size_t i = 0; same && i < got.marginal_gains.size(); ++i) {
    same = SameBits(got.marginal_gains[i], want->marginal_gains[i]);
  }
  report->Count(attempted + 1, same ? 0 : 1);
  if (!same) {
    report->Fail("ingested TopKSeeds(50) differs from a full rebuild");
  }
  const Status late = SetServingBuildSeconds(options, *build, report);
  if (!late.ok()) {
    report->Fail("builds after the run: " + late.ToString());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
