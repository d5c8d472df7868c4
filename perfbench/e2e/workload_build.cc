// Workload `build`: repeated offline builds from the graph and log files
// to a live, validated 4-shard generation (perfbench/README.md). After
// every build: the serving set-up time of the fresh generation and a short
// gain probe over it, each answer checked against a monolithic engine on
// the same build. Spreading set-up and probe over all builds makes their
// medians span the whole run and many generations, not one. At the end:
// the correctness gate (sharded TopKSeeds(50) against the mono engine).

#include <algorithm>
#include <cstdio>
#include <string>

#include "e2e/bench.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "shard/generation_manager.h"

namespace perfbench {

namespace {

constexpr int kMinBuilds = 3;
constexpr int kSetupRepeatsPerBuild = 4;
constexpr double kGainWarmupSeconds = 0.1;
constexpr double kGainSliceSeconds = 0.5;
constexpr NodeId kTopK = 50;
constexpr std::size_t kAttributionProbes = 20000;

/// What the serving slices after the builds gather.
struct Serving {
  std::vector<double> setup_s;
  std::vector<double> gain_ns;
  std::vector<NodeId> probe;  // the first kAttributionProbes queried users
  std::uint64_t gains = 0;
  std::uint64_t wrong = 0;
};

/// Set-up of the generation just built (open, one session, first gain),
/// then a gain probe over it, after an untimed warm-up that faults the
/// fresh mapping in, with every timed answer checked against the mono
/// engine of the same build.
Status ServeSlice(const Options& options, influmax::Rng& rng,
                  std::vector<NodeId>* users, Serving* out) {
  std::unique_ptr<influmax::GenerationManager> manager;
  for (int r = 0; r < kSetupRepeatsPerBuild; ++r) {
    manager.reset();
    const std::uint64_t t0 = NowNs();
    auto opened = influmax::GenerationManager::Open(GenerationDir(options));
    if (!opened.ok()) return opened.status();
    manager = std::move(opened).value();
    influmax::GenerationManager::Session session(*manager);
    if (users->empty()) {
      const auto& au = session.shards().manifest.au;
      for (NodeId u = 0; u < au.size(); ++u) {
        if (au[u] > 0) users->push_back(u);
      }
    }
    volatile double first = session.router().MarginalGain(users->front());
    (void)first;
    out->setup_s.push_back(SecondsSince(t0));
  }

  auto mono_view = influmax::CreditSnapshotView::Open(MonoPath(options));
  if (!mono_view.ok()) return mono_view.status();
  influmax::SnapshotQueryEngine mono(*mono_view);
  influmax::GenerationManager::Session session(*manager);
  influmax::ShardRouter& router = session.router();
  const std::uint64_t warmup = NowNs();
  while (SecondsSince(warmup) < kGainWarmupSeconds) {
    volatile double gain = router.MarginalGain(Pick(rng, *users));
    (void)gain;
  }
  std::vector<NodeId> probe;
  std::vector<double> gains;
  const std::uint64_t start = NowNs();
  while (SecondsSince(start) < kGainSliceSeconds) {
    const NodeId x = Pick(rng, *users);
    const std::uint64_t t0 = NowNs();
    const double gain = router.MarginalGain(x);
    out->gain_ns.push_back(static_cast<double>(NowNs() - t0));
    gains.push_back(gain);
    probe.push_back(x);
  }
  for (std::size_t i = 0; i < probe.size(); ++i) {
    double want = mono.MarginalGain(probe[i]);
    if (options.corrupt_reference && out->gains == 0 && i == 0) {
      want = Corrupt(want);
    }
    if (!SameBits(gains[i], want)) ++out->wrong;
  }
  out->gains += probe.size();
  for (std::size_t i = 0;
       i < probe.size() && out->probe.size() < kAttributionProbes; ++i) {
    out->probe.push_back(probe[i]);
  }
  return Status::OK();
}

/// Builds until `budget_s` is spent (at least kMinBuilds), each followed by
/// a serving slice.
Status TimedBuilds(const Options& options, double budget_s, bool traced,
                   std::size_t* index, std::vector<BuildTimes>* out,
                   influmax::Rng& rng, std::vector<NodeId>* users,
                   Serving* serving) {
  const std::uint64_t start = NowNs();
  for (int n = 0; n < kMinBuilds || SecondsSince(start) < budget_s; ++n) {
    auto build = SpawnBuild(options, traced, /*builds=*/1,
                            options.work_dir + "/build-" +
                                std::to_string((*index)++));
    if (!build.ok()) return build.status();
    out->push_back(*build);
    Status st = ServeSlice(options, rng, users, serving);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

double MedianOf(const std::vector<BuildTimes>& builds,
                double BuildTimes::*field) {
  std::vector<double> v;
  for (const BuildTimes& b : builds) v.push_back(b.*field);
  return Median(v);
}

}  // namespace

int RunBuildWorkload(const Options& options, Report* report) {
  // Timed builds, each followed by a serving slice. The traced run spends
  // the first half of its time untraced and the second half traced, for
  // trace.overhead_pct.
  std::vector<BuildTimes> untraced;
  std::vector<BuildTimes> traced;
  std::size_t index = 0;
  influmax::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<NodeId> users;
  Serving serving;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  Status st = TimedBuilds(options, budget, /*traced=*/false, &index, &untraced,
                          rng, &users, &serving);
  if (st.ok() && options.trace) {
    st = TimedBuilds(options, budget, /*traced=*/true, &index, &traced, rng,
                     &users, &serving);
  }
  if (!st.ok()) {
    report->Fail("build: " + st.ToString());
    return 1;
  }
  report->Count(untraced.size() + traced.size(), 0);
  report->Echo("ops.build", static_cast<double>(untraced.size() + traced.size()));
  const double build_s = MedianOf(untraced, &BuildTimes::total_s);
  report->Set("build_s", build_s, "s", untraced.size());
  report->Set("peak_rss_mb", MedianOf(untraced, &BuildTimes::peak_rss_mb),
              "MB", untraced.size(), "median over the build processes");
  if (options.trace) {
    ReportBuildLayers(MedianBuild(traced), report);
    report->Set("trace.overhead_pct",
                100.0 * (MedianOf(traced, &BuildTimes::total_s) / build_s - 1.0),
                "%", traced.size());
  }

  auto disk_mb = GenerationDiskMb(GenerationDir(options));
  if (!disk_mb.ok()) {
    report->Fail("disk: " + disk_mb.status().ToString());
    return 1;
  }
  report->Set("disk_mb", *disk_mb, "MB", 1);
  EchoShape(untraced.front(), *disk_mb, report);

  report->Set("setup_s", Median(serving.setup_s), "s", serving.setup_s.size(),
              "median over the builds' set-ups");
  report->Count(serving.setup_s.size(), 0);
  report->Count(serving.gains, serving.wrong);
  report->Echo("ops.gain", static_cast<double>(serving.gains));
  report->SetLatency("gain_p50_us", serving.gain_ns, 50, 1e-3, "us");
  report->SetLatency("gain_p99_us", serving.gain_ns, 99, 1e-3, "us");

  // The last build's generation serves the attribution and the gate.
  auto opened = influmax::GenerationManager::Open(GenerationDir(options));
  if (!opened.ok()) {
    report->Fail("open: " + opened.status().ToString());
    return 1;
  }
  std::unique_ptr<influmax::GenerationManager> manager =
      std::move(opened).value();
  auto mono_view = influmax::CreditSnapshotView::Open(MonoPath(options));
  if (!mono_view.ok()) {
    report->Fail("mono open: " + mono_view.status().ToString());
    return 1;
  }
  influmax::SnapshotQueryEngine mono(*mono_view);
  influmax::GenerationManager::Session session(*manager);
  influmax::ShardRouter& router = session.router();
  if (options.trace) ProbeGainAttribution(router, serving.probe, report);

  // Correctness gate: sharded TopKSeeds(50) bit-identical to the mono
  // engine on the same build.
  const std::uint64_t t0 = NowNs();
  const influmax::SnapshotSeedSelection got = router.TopKSeeds(kTopK);
  const double topk_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  const influmax::SnapshotSeedSelection want = mono.TopKSeeds(kTopK);
  bool same = got.seeds == want.seeds &&
              got.gain_evaluations == want.gain_evaluations &&
              got.marginal_gains.size() == want.marginal_gains.size();
  for (std::size_t i = 0; same && i < got.marginal_gains.size(); ++i) {
    same = SameBits(got.marginal_gains[i], want.marginal_gains[i]) &&
           SameBits(got.cumulative_spread[i], want.cumulative_spread[i]);
  }
  report->Count(1, same ? 0 : 1);
  if (!same) report->Fail("sharded TopKSeeds(50) differs from the mono engine");
  report->Echo("ops.topk", 1.0);
  report->Set("topk_p50_ms", topk_ms, "ms", 1);
  return 0;
}

}  // namespace perfbench
