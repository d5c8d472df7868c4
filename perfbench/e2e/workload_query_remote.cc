// Workload `query_remote`: an open loop of MarginalGain requests at a fixed
// Poisson rate against 4 in-process ShardServers on loopback, one per
// shard, through one RemoteShardRouter holding a session with 5 committed
// seeds (perfbench/README.md). Latency is charged from each request's due
// time; a growing backlog fails the run instead of reporting a latency.
// The recorded requests are replayed through an in-process ShardRouter
// afterwards and must give bit-identical gains.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "e2e/bench.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "obs/metrics.h"
#include "shard/generation_manager.h"

namespace perfbench {

namespace {

// About 12% of what one session serves on a 4-core VM (~200 us per remote
// gain): the box has minutes-long periods where a gain takes 3x longer, and
// the loop must stay below capacity through them (still ~36% load), so a
// slowdown shows as queueing before a backlog forms.
constexpr double kRatePerS = 600.0;
constexpr int kSetupSeeds = 5;
constexpr int kSetupRepeats = 8;
constexpr double kMinCompletedShare = 0.99;

struct Fleet {
  std::vector<std::unique_ptr<influmax::ShardServer>> servers;
  std::unique_ptr<influmax::RemoteShardRouter> router;
};

/// Set-up: one server per shard, Connect, the session's seed commits.
Result<Fleet> StartFleet(const std::string& dir,
                         const std::vector<NodeId>& seeds) {
  Fleet fleet;
  influmax::RemoteRouterOptions ropts;
  for (std::size_t i = 0; i < kShards; ++i) {
    influmax::ShardServerOptions sopts;
    sopts.dir = dir;
    sopts.shard = static_cast<int>(i);
    auto server = influmax::ShardServer::Start(sopts);
    if (!server.ok()) return server.status();
    ropts.replica_sets.push_back({{"127.0.0.1", (*server)->port()}});
    fleet.servers.push_back(std::move(server).value());
  }
  auto router = influmax::RemoteShardRouter::Connect(ropts);
  if (!router.ok()) return router.status();
  fleet.router = std::move(router).value();
  for (NodeId x : seeds) {
    Status st = fleet.router->CommitSeed(x);
    if (!st.ok()) return st;
  }
  return fleet;
}

std::uint64_t CounterValue(const influmax::MetricsSnapshot& snap,
                           const char* name) {
  const auto* c = snap.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

/// net.rpcs_per_gain and the error counters from registry deltas.
void ReportNetCounters(const influmax::MetricsSnapshot& before,
                       const influmax::MetricsSnapshot& after,
                       std::size_t gains, Report* report) {
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterValue(after, name) -
                               CounterValue(before, name));
  };
  report->Set("net.rpcs_per_gain",
              delta("net.rpc.count") /
                  static_cast<double>(std::max<std::size_t>(gains, 1)),
              "count", gains);
  report->Set("net.rpc_errors", delta("net.rpc.errors"), "count", 1);
  report->Set("net.failovers", delta("net.failovers"), "count", 1);
  report->Set("net.reconnects", delta("net.reconnects"), "count", 1);
}

struct Request {
  std::uint64_t due_ns = 0;  // offset from the loop start
  NodeId node = 0;
};

struct OpenLoopResult {
  std::vector<double> latency_ns;  // done - due
  std::vector<double> service_ns;  // done - send
  std::vector<double> late_ns;     // send - due
  std::vector<double> local_ns;    // traced: in-process gain, same node
  std::vector<NodeId> nodes;
  std::vector<double> gains;
  std::uint64_t due = 0;
  std::uint64_t completed_by_end = 0;
};

/// Sleeps until 100 us before `target_ns`, then spins. Spinning through
/// whole gaps is worse on a VM: the spinning vCPU takes host time from the
/// server threads.
void WaitUntil(std::uint64_t target_ns) {
  for (;;) {
    const std::uint64_t now = NowNs();
    if (now >= target_ns) return;
    if (target_ns - now > 150000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(target_ns - now - 100000));
    }
  }
}

OpenLoopResult OpenLoop(influmax::RemoteShardRouter& remote,
                        const std::vector<Request>& requests,
                        double seconds, bool traced,
                        influmax::ShardRouter* local) {
  OpenLoopResult out;
  Spans::Enable(traced);
  const std::uint64_t start = NowNs() + 1000000;
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  // A backlogged generator stops after this grace; what it did not send
  // counts as not completed.
  const std::uint64_t give_up = end + 1000000000ULL;
  for (const Request& r : requests) {
    const std::uint64_t due = start + r.due_ns;
    if (due >= end) break;
    ++out.due;
    WaitUntil(due);
    const std::uint64_t send = NowNs();
    if (send > give_up) continue;
    ScopedSpan span("net.remote_gain", out.due);
    auto gain = remote.MarginalGain(r.node);
    span.End();
    const std::uint64_t done = NowNs();
    if (!gain.ok()) continue;  // counted as due but not answered
    if (done <= end) ++out.completed_by_end;
    out.latency_ns.push_back(static_cast<double>(done - due));
    out.service_ns.push_back(static_cast<double>(done - send));
    out.late_ns.push_back(static_cast<double>(send - due));
    out.nodes.push_back(r.node);
    out.gains.push_back(*gain);
    if (local != nullptr) {
      ScopedSpan probe("shard.gain");
      volatile double g = local->MarginalGain(r.node);
      (void)g;
      out.local_ns.push_back(static_cast<double>(probe.End()));
    }
  }
  Spans::Enable(false);
  return out;
}

double MedianOfRange(const std::vector<double>& v, std::size_t begin,
                     std::size_t end) {
  return Median(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(begin),
                                    v.begin() + static_cast<std::ptrdiff_t>(end)));
}

}  // namespace

void ProbeNetLayer(const Options& options, const std::vector<NodeId>& users,
                   Report* report) {
  constexpr int kProbeGains = 3000;
  auto manager = influmax::GenerationManager::Open(GenerationDir(options));
  if (!manager.ok()) {
    report->Fail("net probe open: " + manager.status().ToString());
    return;
  }
  influmax::GenerationManager::Session local(**manager);
  influmax::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 4000);
  std::vector<NodeId> seeds(kSetupSeeds);
  for (NodeId& x : seeds) x = Pick(rng, users);
  for (NodeId x : seeds) local.router().CommitSeed(x);
  auto fleet = StartFleet(GenerationDir(options), seeds);
  if (!fleet.ok()) {
    report->Fail("net probe set-up: " + fleet.status().ToString());
    return;
  }
  const influmax::MetricsSnapshot before =
      influmax::MetricsRegistry::Global().Scrape();
  std::vector<double> overhead_ns;
  std::uint64_t wrong = 0;
  for (int i = 0; i < kProbeGains; ++i) {
    const NodeId x = Pick(rng, users);
    // Alternate which side runs first: the servers read the same pages,
    // so the second call of a pair finds them in cache.
    double remote_ns = 0.0, local_ns = 0.0, want = 0.0;
    Result<double> got = Status::Internal("not run");
    for (int side = 0; side < 2; ++side) {
      const std::uint64_t t0 = NowNs();
      if ((side + i) % 2 == 0) {
        got = fleet->router->MarginalGain(x);
        remote_ns = static_cast<double>(NowNs() - t0);
      } else {
        want = local.router().MarginalGain(x);
        local_ns = static_cast<double>(NowNs() - t0);
      }
    }
    if (!got.ok() || !SameBits(*got, want)) {
      ++wrong;
      continue;
    }
    overhead_ns.push_back(remote_ns - local_ns);
  }
  const influmax::MetricsSnapshot after =
      influmax::MetricsRegistry::Global().Scrape();
  report->Count(kProbeGains, wrong);
  if (wrong != 0) report->Fail("net probe: remote gains differ or failed");
  report->Set("net.gain_overhead_us", Median(overhead_ns) * 1e-3, "us",
              overhead_ns.size(), "closed-loop probe: remote - in-process");
  ReportNetCounters(before, after, overhead_ns.size(), report);
}

int RunQueryRemoteWorkload(const Options& options, Report* report) {
  auto build = LoadBuildTimes(BuildReportPath(options));
  if (!build.ok()) {
    report->Fail("build report: " + build.status().ToString());
    return 1;
  }
  if (options.trace) ReportBuildLayers(*build, report);
  auto disk_mb = GenerationDiskMb(GenerationDir(options));
  if (!disk_mb.ok()) {
    report->Fail("disk: " + disk_mb.status().ToString());
    return 1;
  }
  report->Set("disk_mb", *disk_mb, "MB", 1);
  EchoShape(*build, *disk_mb, report);

  // The in-process reference: the same generation, the same session seeds.
  auto manager = influmax::GenerationManager::Open(GenerationDir(options));
  if (!manager.ok()) {
    report->Fail("open: " + manager.status().ToString());
    return 1;
  }
  influmax::GenerationManager::Session local(**manager);
  std::vector<NodeId> users;
  for (NodeId u = 0; u < local.shards().manifest.au.size(); ++u) {
    if (local.shards().manifest.au[u] > 0) users.push_back(u);
  }
  influmax::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 2000);
  std::vector<NodeId> seeds(kSetupSeeds);
  for (NodeId& x : seeds) x = Pick(rng, users);
  for (NodeId x : seeds) local.router().CommitSeed(x);

  std::vector<double> setup_s;
  Result<Fleet> fleet = Status::Internal("no set-up ran");
  for (int r = 0; r < kSetupRepeats; ++r) {
    fleet = Status::Internal("torn down");
    const std::uint64_t t0 = NowNs();
    fleet = StartFleet(GenerationDir(options), seeds);
    if (!fleet.ok()) {
      report->Fail("set-up: " + fleet.status().ToString());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
  report->Count(setup_s.size() * (kShards + kSetupSeeds), 0);

  // The seeded Poisson schedule.
  std::vector<Request> requests;
  double t = 0.0;
  const double horizon = options.seconds + 1.0;
  while (t < horizon) {
    t += -std::log(1.0 - rng.NextDouble()) / kRatePerS;
    requests.push_back({static_cast<std::uint64_t>(t * 1e9), Pick(rng, users)});
  }

  const double loop_s = options.trace ? options.seconds / 2 : options.seconds;
  influmax::RemoteShardRouter& remote = *fleet->router;
  const influmax::MetricsSnapshot before =
      influmax::MetricsRegistry::Global().Scrape();
  OpenLoopResult run = OpenLoop(remote, requests, loop_s, false, nullptr);
  const influmax::MetricsSnapshot after =
      influmax::MetricsRegistry::Global().Scrape();
  const double peak_mb = PeakRssMb();
  report->Echo("ops.session0", std::to_string(run.due) + " gain due, " +
                                   std::to_string(run.gains.size()) +
                                   " answered");
  report->Echo("loadgen.rate_per_s", kRatePerS);

  // Open-loop honesty: a backlog fails the run instead of reporting a
  // latency.
  const double completed_share =
      run.due == 0 ? 0.0
                   : static_cast<double>(run.completed_by_end) /
                         static_cast<double>(run.due);
  const std::size_t half = run.late_ns.size() / 2;
  const double late_first_us = MedianOfRange(run.late_ns, 0, half) * 1e-3;
  const double late_second_us =
      MedianOfRange(run.late_ns, half, run.late_ns.size()) * 1e-3;
  report->Echo("loadgen.completed_share", completed_share);
  report->Echo("loadgen.late_median_first_half_us", late_first_us);
  report->Echo("loadgen.late_median_second_half_us", late_second_us);
  const bool backlog = completed_share < kMinCompletedShare ||
                       late_second_us > 2.0 * late_first_us + 100.0;
  if (backlog) {
    report->Fail("backlog grew: completed share " +
                 std::to_string(completed_share) + ", median lateness " +
                 std::to_string(late_first_us) + " -> " +
                 std::to_string(late_second_us) + " us");
  } else {
    report->SetLatency("gain_p50_us", run.latency_ns, 50, 1e-3, "us");
    report->SetLatency("gain_p99_us", run.latency_ns, 99, 1e-3, "us");
  }
  report->SetLatency("loadgen.late_p50_us", run.late_ns, 50, 1e-3, "us");
  report->SetLatency("loadgen.late_p99_us", run.late_ns, 99, 1e-3, "us");
  ReportNetCounters(before, after, run.gains.size(), report);

  std::vector<NodeId> nodes = run.nodes;
  std::vector<double> answers = run.gains;
  std::uint64_t attempted = run.due;
  std::uint64_t failed = run.due - run.gains.size();

  if (options.trace) {
    OpenLoopResult traced =
        OpenLoop(remote, requests, loop_s, true, &local.router());
    nodes.insert(nodes.end(), traced.nodes.begin(), traced.nodes.end());
    answers.insert(answers.end(), traced.gains.begin(), traced.gains.end());
    attempted += traced.due;
    failed += traced.due - traced.gains.size();
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.service_ns.size(); ++i) {
      overhead.push_back(traced.service_ns[i] - traced.local_ns[i]);
    }
    report->Set("net.gain_overhead_us", Median(overhead) * 1e-3, "us",
                overhead.size());
    report->Set("trace.overhead_pct",
                100.0 * (Median(traced.service_ns) / Median(run.service_ns) -
                         1.0),
                "%", traced.service_ns.size());
    const double n = static_cast<double>(std::max<std::size_t>(overhead.size(), 1));
    double service = 0.0, local_gain = 0.0;
    for (std::size_t i = 0; i < overhead.size(); ++i) {
      service += traced.service_ns[i];
      local_gain += traced.local_ns[i];
    }
    std::printf("query_remote attribution per gain (mean of %zu): %.2f us "
                "service = %.2f us in-process gain + %.2f us net overhead\n",
                overhead.size(), service * 1e-3 / n, local_gain * 1e-3 / n,
                (service - local_gain) * 1e-3 / n);
  }
  report->Set("peak_rss_mb", peak_mb, "MB", 1);
  fleet = Status::Internal("torn down");

  // Correctness gate: replay every answered request in process.
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double want = local.router().MarginalGain(nodes[i]);
    if (options.corrupt_reference && i == 0) want = Corrupt(want);
    if (!SameBits(answers[i], want)) ++wrong;
  }
  report->Echo("ops.checked", static_cast<double>(nodes.size()));
  report->Count(attempted, failed + wrong);
  if (wrong != 0) {
    report->Fail(std::to_string(wrong) +
                 " remote gains differ from the in-process router");
  }
  const Status late = SetServingBuildSeconds(options, *build, report);
  if (!late.ok()) {
    report->Fail("builds after the run: " + late.ToString());
    return 1;
  }
  return backlog ? 1 : 0;
}

}  // namespace perfbench
