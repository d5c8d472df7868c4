// Workload `query_local`: a closed loop of 3 in-process what-if sessions
// over a 4-shard generation (perfbench/README.md). Each session is a
// GenerationManager::Session (a ShardRouter with no pool) running seeded
// interactions: ResetSession, 3 x (CommitSeed + 32 x MarginalGain), then
// SpreadOf over the 3 seeds; every 20th interaction is TopKSeeds(50)
// instead. The first interactions of every session are replayed on a
// monolithic engine afterwards and must match bit for bit.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <latch>
#include <thread>

#include "e2e/bench.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "shard/generation_manager.h"

namespace perfbench {

namespace {

constexpr int kSessions = 3;
constexpr int kSeedsPerInteraction = 3;
constexpr int kGainsPerCommit = 32;
constexpr std::uint64_t kTopKEvery = 20;
constexpr NodeId kTopK = 50;
constexpr std::uint64_t kChecked = 20;  // replayed interactions per session
constexpr int kSetupRepeats = 20;

struct Interaction {
  bool topk = false;
  std::array<NodeId, kSeedsPerInteraction> seeds{};
  std::array<std::array<NodeId, kGainsPerCommit>, kSeedsPerInteraction>
      candidates{};
};

/// The seeded op list of one session: interaction i is a pure function of
/// (seed, session, i) because each session draws from its own stream in
/// order.
class OpStream {
 public:
  OpStream(std::uint64_t seed, int session, const std::vector<NodeId>* users)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 1000 + session), users_(users) {}

  Interaction Next() {
    Interaction it;
    it.topk = (index_ + 1) % kTopKEvery == 0;
    ++index_;
    if (it.topk) return it;
    for (int j = 0; j < kSeedsPerInteraction; ++j) {
      it.seeds[j] = Pick(rng_, *users_);
      for (NodeId& x : it.candidates[j]) x = Pick(rng_, *users_);
    }
    return it;
  }

 private:
  influmax::Rng rng_;
  const std::vector<NodeId>* users_;
  std::uint64_t index_ = 0;
};

/// Answers of one session's checked interactions, in op order.
struct Answers {
  std::vector<double> values;
  std::vector<NodeId> nodes;
};

struct Latencies {
  std::vector<double> gain, commit, spread, topk, reset;
  std::uint64_t interactions = 0;
  std::uint64_t end_ns = 0;
};

/// Runs one interaction on any engine with the query vocabulary (router or
/// monolithic engine), timing each call and recording answers when asked.
template <typename Engine>
void RunInteraction(Engine& engine, const Interaction& it, std::uint64_t group,
                    Latencies* lat, Answers* answers) {
  ScopedSpan root("interaction", group);
  if (it.topk) {
    ScopedSpan span("shard.topk");
    const influmax::SnapshotSeedSelection sel = engine.TopKSeeds(kTopK);
    lat->topk.push_back(static_cast<double>(span.End()));
    if (answers != nullptr) {
      answers->nodes.insert(answers->nodes.end(), sel.seeds.begin(),
                            sel.seeds.end());
      answers->values.insert(answers->values.end(), sel.marginal_gains.begin(),
                             sel.marginal_gains.end());
      answers->values.push_back(static_cast<double>(sel.gain_evaluations));
    }
    return;
  }
  {
    ScopedSpan span("shard.reset");
    engine.ResetSession();
    lat->reset.push_back(static_cast<double>(span.End()));
  }
  for (int j = 0; j < kSeedsPerInteraction; ++j) {
    {
      ScopedSpan span("shard.commit");
      engine.CommitSeed(it.seeds[j]);
      lat->commit.push_back(static_cast<double>(span.End()));
    }
    for (NodeId x : it.candidates[j]) {
      ScopedSpan span("shard.gain");
      const double gain = engine.MarginalGain(x);
      lat->gain.push_back(static_cast<double>(span.End()));
      if (answers != nullptr) answers->values.push_back(gain);
    }
  }
  ScopedSpan span("shard.spread");
  const double spread = engine.SpreadOf(it.seeds);
  lat->spread.push_back(static_cast<double>(span.End()));
  if (answers != nullptr) answers->values.push_back(spread);
}

struct LoopResult {
  std::vector<Latencies> per_session;
  double elapsed_s = 0.0;
  std::uint64_t interactions = 0;
};

/// The closed loop: every session starts its next interaction as soon as
/// the previous one returns, until `seconds` have passed.
LoopResult ClosedLoop(std::vector<std::unique_ptr<
                          influmax::GenerationManager::Session>>& sessions,
                      std::vector<OpStream>& streams,
                      std::vector<std::uint64_t>& next_index,
                      std::vector<Answers>& answers, double seconds,
                      bool traced) {
  LoopResult out;
  out.per_session.resize(sessions.size());
  Spans::Enable(traced);
  std::latch ready(static_cast<std::ptrdiff_t>(sessions.size()) + 1);
  std::uint64_t start = 0;
  std::atomic<std::uint64_t> start_ns{0};
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    threads.emplace_back([&, s] {
      Latencies& lat = out.per_session[s];
      influmax::ShardRouter& router = sessions[s]->router();
      ready.arrive_and_wait();
      const std::uint64_t deadline =
          start_ns.load() + static_cast<std::uint64_t>(seconds * 1e9);
      while (NowNs() < deadline) {
        const std::uint64_t i = next_index[s]++;
        const Interaction it = streams[s].Next();
        RunInteraction(router, it, ((s + 1) << 40) | (i + 1), &lat,
                       i < kChecked ? &answers[s] : nullptr);
        ++lat.interactions;
      }
      lat.end_ns = NowNs();
    });
  }
  start = NowNs();
  start_ns.store(start);
  ready.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  Spans::Enable(false);
  std::uint64_t end = start;
  for (const Latencies& lat : out.per_session) {
    end = std::max(end, lat.end_ns);
    out.interactions += lat.interactions;
  }
  out.elapsed_s = static_cast<double>(end - start) * 1e-9;
  return out;
}

std::vector<double> Merge(const LoopResult& loop,
                          std::vector<double> Latencies::*field) {
  std::vector<double> out;
  for (const Latencies& lat : loop.per_session) {
    out.insert(out.end(), (lat.*field).begin(), (lat.*field).end());
  }
  return out;
}

/// serve.commit_shard_us / serve.reset_us: the per-shard CommitSeed and
/// ResetSession, timed on engines the benchmark builds over the same views
/// with the global A_u and the shard's global quotient pool.
void ProbeShardCommits(const influmax::ShardedSnapshot& shards,
                       const std::vector<NodeId>& users, std::uint64_t seed,
                       Report* report) {
  std::vector<influmax::SnapshotQueryEngine> engines;
  for (std::size_t i = 0; i < shards.views.size(); ++i) {
    engines.emplace_back(shards.views[i], shards.manifest.au,
                         shards.shard_quotient(i));
  }
  OpStream stream(seed + 77, 0, &users);
  std::vector<double> commit_ns;
  std::vector<double> reset_ns;
  while (commit_ns.size() < 60) {
    const Interaction it = stream.Next();
    if (it.topk) continue;
    for (NodeId x : it.seeds) {
      double sum = 0.0;
      for (auto& engine : engines) {
        const std::uint64_t t0 = NowNs();
        engine.CommitSeed(x);
        sum += static_cast<double>(NowNs() - t0);
      }
      commit_ns.push_back(sum);
    }
    double sum = 0.0;
    for (auto& engine : engines) {
      const std::uint64_t t0 = NowNs();
      engine.ResetSession();
      sum += static_cast<double>(NowNs() - t0);
    }
    reset_ns.push_back(sum);
  }
  report->Set("serve.commit_shard_us", Median(commit_ns) * 1e-3, "us",
              commit_ns.size());
  report->Set("serve.reset_us", Median(reset_ns) * 1e-3, "us",
              reset_ns.size());
}

}  // namespace

int RunQueryLocalWorkload(const Options& options, Report* report) {
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

  // Set-up: open the generation, construct the sessions, answer a gain on
  // each. Repeated; the last set-up serves the loop.
  std::unique_ptr<influmax::GenerationManager> manager;
  std::vector<std::unique_ptr<influmax::GenerationManager::Session>> sessions;
  std::vector<NodeId> users;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    sessions.clear();
    manager.reset();
    const std::uint64_t t0 = NowNs();
    auto opened = influmax::GenerationManager::Open(GenerationDir(options));
    if (!opened.ok()) {
      report->Fail("open: " + opened.status().ToString());
      return 1;
    }
    manager = std::move(opened).value();
    for (int s = 0; s < kSessions; ++s) {
      sessions.push_back(
          std::make_unique<influmax::GenerationManager::Session>(*manager));
      if (users.empty()) {
        const auto& au = sessions.back()->shards().manifest.au;
        for (NodeId u = 0; u < au.size(); ++u) {
          if (au[u] > 0) users.push_back(u);
        }
      }
      volatile double first = sessions.back()->router().MarginalGain(users[0]);
      (void)first;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  report->Set("setup_s", Median(setup_s), "s", setup_s.size());

  std::vector<OpStream> streams;
  for (int s = 0; s < kSessions; ++s) streams.emplace_back(options.seed, s, &users);
  std::vector<std::uint64_t> next_index(kSessions, 0);
  std::vector<Answers> answers(kSessions);

  const double loop_s = options.trace ? options.seconds / 2 : options.seconds;
  const LoopResult loop =
      ClosedLoop(sessions, streams, next_index, answers, loop_s, false);
  const double peak_mb = PeakRssMb();
  std::uint64_t attempted = 0;
  for (int s = 0; s < kSessions; ++s) {
    const Latencies& lat = loop.per_session[s];
    const std::uint64_t ops = lat.gain.size() + lat.commit.size() +
                              lat.spread.size() + lat.topk.size() +
                              lat.reset.size();
    attempted += ops;
    report->Echo("ops.session" + std::to_string(s),
                 std::to_string(lat.interactions) + " interactions: " +
                     std::to_string(lat.gain.size()) + " gain, " +
                     std::to_string(lat.commit.size()) + " commit, " +
                     std::to_string(lat.spread.size()) + " spread, " +
                     std::to_string(lat.topk.size()) + " topk, " +
                     std::to_string(lat.reset.size()) + " reset");
  }
  report->Set("interactions_per_s",
              static_cast<double>(loop.interactions) / loop.elapsed_s, "1/s",
              loop.interactions);
  report->SetLatency("gain_p50_us", Merge(loop, &Latencies::gain), 50,
                     1e-3, "us");
  report->SetLatency("gain_p99_us", Merge(loop, &Latencies::gain), 99,
                     1e-3, "us");
  report->SetLatency("commit_p50_us", Merge(loop, &Latencies::commit), 50,
                     1e-3, "us");
  report->SetLatency("commit_p99_us", Merge(loop, &Latencies::commit), 99,
                     1e-3, "us");
  report->SetLatency("spread_p50_ms", Merge(loop, &Latencies::spread), 50,
                     1e-6, "ms");
  report->SetLatency("topk_p50_ms", Merge(loop, &Latencies::topk), 50,
                     1e-6, "ms");
  report->SetLatency("topk_p90_ms", Merge(loop, &Latencies::topk), 90,
                     1e-6, "ms");

  if (options.trace) {
    const LoopResult traced =
        ClosedLoop(sessions, streams, next_index, answers, loop_s, true);
    const double untraced_rate =
        static_cast<double>(loop.interactions) / loop.elapsed_s;
    const double traced_rate =
        static_cast<double>(traced.interactions) / traced.elapsed_s;
    report->Set("trace.overhead_pct",
                100.0 * (untraced_rate / traced_rate - 1.0), "%",
                traced.interactions);
    for (const Latencies& lat : traced.per_session) {
      attempted += lat.gain.size() + lat.commit.size() + lat.spread.size() +
                   lat.topk.size() + lat.reset.size();
    }

    // Attribution of the traced interactions: layer self times plus the
    // residual no span claims sum to the interaction time.
    const auto totals = Spans::Aggregate();
    const Spans::Totals root = totals.count("interaction")
                                   ? totals.at("interaction")
                                   : Spans::Totals{};
    const double n = static_cast<double>(std::max<std::uint64_t>(root.count, 1));
    double children_us = 0.0;
    std::printf("query_local attribution per interaction (%llu traced):\n",
                static_cast<unsigned long long>(root.count));
    for (const char* name : {"shard.reset", "shard.commit", "shard.gain",
                             "shard.spread", "shard.topk"}) {
      const double self_us =
          totals.count(name) ? totals.at(name).self_ns * 1e-3 / n : 0.0;
      children_us += self_us;
      std::printf("  %-14s %12.2f us\n", name, self_us);
    }
    const double residual_us = root.self_ns * 1e-3 / n;
    std::printf("  %-14s %12.2f us\n  %-14s %12.2f us = sum of the above\n",
                "unattributed", residual_us, "interaction",
                root.total_ns * 1e-3 / n);
    report->Set("query_local.unattributed_us", residual_us, "us", root.count);

    // Layer probes, outside the loop's spans.
    influmax::ShardRouter& router = sessions[0]->router();
    influmax::Rng rng(options.seed * 31 + 5);
    router.ResetSession();
    for (int j = 0; j < kSeedsPerInteraction; ++j) {
      router.CommitSeed(Pick(rng, users));
    }
    std::vector<NodeId> probe(20000);
    for (NodeId& x : probe) x = Pick(rng, users);
    ProbeGainAttribution(router, probe, report);
    ProbeShardCommits(sessions[0]->shards(), users, options.seed, report);
    ProbeNetLayer(options, users, report);
    const influmax::SnapshotSeedSelection sel = router.TopKSeeds(kTopK);
    const double picks = static_cast<double>(std::max<std::size_t>(sel.seeds.size(), 1));
    report->Set("core.celf_evals_per_topk",
                static_cast<double>(sel.gain_evaluations), "count", 1);
    report->Set("core.celf_evals_per_pick",
                (static_cast<double>(sel.gain_evaluations) -
                 static_cast<double>(users.size())) /
                    picks,
                "count", 1, "lazy re-evaluations per pick");
    report->Set("serve.session_mb",
                static_cast<double>(router.ApproxMemoryBytes()) /
                    (1024.0 * 1024.0),
                "MB", 1);
  }
  report->Set("peak_rss_mb", peak_mb, "MB", 1);

  // Correctness gate: replay each session's checked interactions on a
  // monolithic engine over the same build.
  auto mono_view = influmax::CreditSnapshotView::Open(MonoPath(options));
  if (!mono_view.ok()) {
    report->Fail("mono open: " + mono_view.status().ToString());
    return 1;
  }
  influmax::SnapshotQueryEngine mono(*mono_view);
  std::uint64_t wrong = 0;
  std::uint64_t checked = 0;
  for (int s = 0; s < kSessions; ++s) {
    OpStream stream(options.seed, s, &users);
    Answers want;
    Latencies scratch;
    const std::uint64_t n = std::min<std::uint64_t>(kChecked, next_index[s]);
    for (std::uint64_t i = 0; i < n; ++i) {
      RunInteraction(mono, stream.Next(), 0, &scratch, &want);
    }
    if (options.corrupt_reference && s == 0 && !want.values.empty()) {
      want.values[0] = Corrupt(want.values[0]);
    }
    const Answers& got = answers[s];
    checked += want.values.size() + want.nodes.size();
    if (got.values.size() != want.values.size() ||
        got.nodes != want.nodes) {
      ++wrong;
      continue;
    }
    for (std::size_t i = 0; i < want.values.size(); ++i) {
      if (!SameBits(got.values[i], want.values[i])) ++wrong;
    }
  }
  report->Echo("ops.checked", static_cast<double>(checked));
  report->Count(attempted, wrong);
  if (wrong != 0) {
    report->Fail(std::to_string(wrong) +
                 " answers differ from the monolithic replay");
  }
  const Status late = SetServingBuildSeconds(options, *build, report);
  if (!late.ok()) {
    report->Fail("builds after the run: " + late.ToString());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
