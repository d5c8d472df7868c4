#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "common/rng.h"
#include "datagen/cascade_generator.h"
#include "graph/generators.h"
#include "probability/time_params.h"
#include "serve/query_engine.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

CreditDistributionModel BuildModel(const Graph& graph, const ActionLog& log,
                                   const DirectCreditModel& credit,
                                   double lambda = 0.0) {
  CdConfig config;
  config.truncation_threshold = lambda;
  auto model = CreditDistributionModel::Build(graph, log, credit, config);
  INFLUMAX_CHECK(model.ok());
  return std::move(model).value();
}

CreditSnapshotView WriteAndOpen(const CreditDistributionModel& model,
                                const std::string& path) {
  INFLUMAX_CHECK(model.WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  INFLUMAX_CHECK(view.ok());
  return std::move(view).value();
}

/// First ~keep_fraction of every action's trace, rebuilt as its own log.
/// Original action ids are preserved, and since densification preserves
/// their numeric order, dense ids match the full log's — the contract
/// IncrementalRescan requires.
ActionLog PrefixLog(const ActionLog& full, double keep_fraction) {
  ActionLogBuilder builder(full.num_users());
  for (ActionId a = 0; a < full.num_actions(); ++a) {
    const auto trace = full.ActionTrace(a);
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(trace.size()) * keep_fraction));
    for (std::size_t i = 0; i < keep && i < trace.size(); ++i) {
      builder.Add(trace[i].user, full.OriginalActionId(a), trace[i].time);
    }
  }
  auto log = builder.Build();
  INFLUMAX_CHECK(log.ok());
  return std::move(log).value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ------------------------------------------------- round-trip exactness

TEST(SnapshotTest, PaperExampleHeaderAndCounts) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("paper.snap");
  auto view = WriteAndOpen(model, path);

  EXPECT_EQ(view.num_users(), 6u);
  EXPECT_EQ(view.num_actions(), 1u);
  EXPECT_EQ(view.num_slots(), ex.log.num_tuples());
  EXPECT_EQ(view.num_entries(), model.credit_entries());
  EXPECT_EQ(view.graph_fingerprint(), FingerprintGraph(ex.graph));
  EXPECT_EQ(view.log_fingerprint(), FingerprintActionLog(ex.log));
  EXPECT_EQ(view.truncation_threshold(), 0.0);
  EXPECT_TRUE(view.seeds().empty());
  EXPECT_EQ(view.ApproxMemoryBytes(), ReadFileBytes(path).size());
  std::remove(path.c_str());
}

TEST(SnapshotTest, PaperExampleMarginalGainsMatchBitForBit) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("paper_mg.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  // The paper's worked value: Gamma_{v,u} = 0.75, plus v's own 1/A_v = 1
  // and the w/t/z/u rows v credits.
  EXPECT_GT(engine.MarginalGain(PaperExample::kV), 1.0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, PaperExampleTopKMatchesSelectSeeds) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("paper_topk.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  auto live = model.SelectSeeds(6);
  ASSERT_TRUE(live.ok());
  auto served = engine.TopKSeeds(6);
  EXPECT_EQ(served.seeds, live->seeds);
  EXPECT_EQ(served.marginal_gains, live->marginal_gains);
  EXPECT_EQ(served.cumulative_spread, live->cumulative_spread);
  EXPECT_EQ(served.gain_evaluations, live->gain_evaluations);
  std::remove(path.c_str());
}

TEST(SnapshotTest, GeneratedDatasetMatchesLiveModelBitForBit) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  auto params = LearnTimeParams(data->graph, data->log);
  ASSERT_TRUE(params.ok());
  TimeDecayDirectCredit credit(*params);
  // The paper's default lambda, so truncation is part of what round-trips.
  auto model = BuildModel(data->graph, data->log, credit, 0.001);
  const std::string path = TempPath("gen.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  for (NodeId x = 0; x < data->log.num_users(); ++x) {
    ASSERT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  auto live = model.SelectSeeds(10);
  ASSERT_TRUE(live.ok());
  auto served = engine.TopKSeeds(10);
  EXPECT_EQ(served.seeds, live->seeds);
  EXPECT_EQ(served.marginal_gains, live->marginal_gains);
  EXPECT_EQ(served.cumulative_spread, live->cumulative_spread);
  EXPECT_EQ(served.gain_evaluations, live->gain_evaluations);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SessionCommitTracksLiveCommit) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("commit.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  const std::vector<double> base_gains = [&] {
    std::vector<double> g;
    for (NodeId x = 0; x < 6; ++x) g.push_back(engine.MarginalGain(x));
    return g;
  }();

  model.CommitSeed(PaperExample::kV);
  engine.CommitSeed(PaperExample::kV);
  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  EXPECT_EQ(engine.session_seeds().size(), 1u);

  // The session rewinds to the snapshot base; the live model cannot.
  engine.ResetSession();
  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), base_gains[x]) << "node " << x;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SnapshotOfModelWithCommittedSeedsKeepsThem) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  model.CommitSeed(PaperExample::kV);
  const std::string path = TempPath("seeded.snap");
  auto view = WriteAndOpen(model, path);
  ASSERT_EQ(view.seeds().size(), 1u);
  EXPECT_EQ(view.seeds()[0], PaperExample::kV);

  SnapshotQueryEngine engine(view);
  EXPECT_EQ(engine.MarginalGain(PaperExample::kV), 0.0);  // already a seed
  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  // Frozen seeds survive a session reset.
  engine.ResetSession();
  EXPECT_EQ(engine.MarginalGain(PaperExample::kV), 0.0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SpreadOfMatchesGreedyCumulativeSpread) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  EqualDirectCredit credit;
  auto model = BuildModel(data->graph, data->log, credit);
  const std::string path = TempPath("spread.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  auto served = engine.TopKSeeds(5);
  ASSERT_FALSE(served.seeds.empty());
  EXPECT_EQ(engine.SpreadOf(served.seeds),
            served.cumulative_spread.back());
  std::remove(path.c_str());
}

TEST(SnapshotTest, SpreadBudgetStopsEarly) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  EqualDirectCredit credit;
  auto model = BuildModel(data->graph, data->log, credit);
  const std::string path = TempPath("budget.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  auto unbounded = engine.TopKSeeds(5);
  ASSERT_GE(unbounded.seeds.size(), 2u);
  // Allow exactly the first pick: the second would blow the budget.
  const double budget = unbounded.cumulative_spread[0];
  auto bounded = engine.TopKSeeds(5, budget);
  EXPECT_EQ(bounded.seeds.size(), 1u);
  EXPECT_EQ(bounded.seeds[0], unbounded.seeds[0]);
  EXPECT_LE(bounded.cumulative_spread.back(), budget);
  std::remove(path.c_str());
}

// --------------------------------------------------- corruption handling

TEST(SnapshotTest, RejectsMissingTruncatedAndMangledFiles) {
  EXPECT_FALSE(CreditSnapshotView::Open("/no/such/snapshot.bin").ok());

  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("corrupt.snap");
  ASSERT_TRUE(model.WriteSnapshot(path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kSnapshotPreludeBytes);

  // Truncated: every cut must be rejected, with the byte offset named.
  for (std::size_t cut : {bytes.size() / 2, kSnapshotPreludeBytes + 3,
                          std::size_t{10}}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(cut));
    auto truncated = CreditSnapshotView::Open(path);
    ASSERT_FALSE(truncated.ok()) << "cut at " << cut;
    EXPECT_NE(truncated.status().message().find("byte offset"),
              std::string::npos)
        << truncated.status().message();
  }

  // Wrong magic.
  {
    std::string mangled = bytes;
    mangled[0] ^= 0xFF;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(mangled.data(), static_cast<std::streamsize>(mangled.size()));
    EXPECT_FALSE(CreditSnapshotView::Open(path).ok());
  }
  // Mangled section count (first section's u64 count lives right after
  // the prelude).
  {
    std::string mangled = bytes;
    mangled[kSnapshotPreludeBytes] ^= 0xFF;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(mangled.data(), static_cast<std::streamsize>(mangled.size()));
    EXPECT_FALSE(CreditSnapshotView::Open(path).ok());
  }
  // Not a snapshot at all.
  {
    std::ofstream(path, std::ios::trunc) << "just some text\n";
    EXPECT_FALSE(CreditSnapshotView::Open(path).ok());
  }
  std::remove(path.c_str());
}

// --------------------------------------------------- incremental rescan

TEST(SnapshotTest, IncrementalRescanReproducesFullRebuildByteForByte) {
  auto data = BuildPresetDataset(FlickrSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;

  const ActionLog prefix = PrefixLog(data->log, 0.6);
  ASSERT_LT(prefix.num_tuples(), data->log.num_tuples());
  ASSERT_EQ(prefix.num_actions(), data->log.num_actions());

  auto old_model =
      CreditDistributionModel::Build(data->graph, prefix, credit, config);
  ASSERT_TRUE(old_model.ok());
  const std::string old_path = TempPath("rescan_old.snap");
  auto view = WriteAndOpen(*old_model, old_path);

  const std::string delta_path = TempPath("rescan_delta.snap");
  RescanStats stats;
  ASSERT_TRUE(IncrementalRescan(view, data->graph, data->log, credit, config,
                                delta_path, &stats)
                  .ok());
  EXPECT_GT(stats.rescanned_actions, 0u);
  EXPECT_GT(stats.replayed_tuples, 0u);
  EXPECT_EQ(stats.new_actions, 0u);
  EXPECT_EQ(stats.unchanged_actions + stats.rescanned_actions,
            data->log.num_actions());
  EXPECT_EQ(stats.replayed_tuples,
            data->log.num_tuples() - prefix.num_tuples());

  // The replayed snapshot is byte-identical to one written from a model
  // built over the full log from scratch.
  auto full_model =
      CreditDistributionModel::Build(data->graph, data->log, credit, config);
  ASSERT_TRUE(full_model.ok());
  const std::string full_path = TempPath("rescan_full.snap");
  ASSERT_TRUE(full_model->WriteSnapshot(full_path).ok());
  EXPECT_EQ(ReadFileBytes(delta_path), ReadFileBytes(full_path));

  // And it serves the full log's selection.
  auto delta_view = CreditSnapshotView::Open(delta_path);
  ASSERT_TRUE(delta_view.ok());
  SnapshotQueryEngine engine(*delta_view);
  auto live = full_model->SelectSeeds(8);
  ASSERT_TRUE(live.ok());
  auto served = engine.TopKSeeds(8);
  EXPECT_EQ(served.seeds, live->seeds);
  EXPECT_EQ(served.marginal_gains, live->marginal_gains);
  std::remove(old_path.c_str());
  std::remove(delta_path.c_str());
  std::remove(full_path.c_str());
}

TEST(SnapshotTest, IncrementalRescanRejectsRewrittenHistoryAndMismatches) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, config);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("rescan_guard.snap");
  auto view = WriteAndOpen(*model, path);
  const std::string out = TempPath("rescan_guard_out.snap");

  // Rewritten history: same shape, different activation time.
  {
    ActionLogBuilder builder(6);
    for (const ActionTuple& t : ex.log.tuples()) {
      builder.Add(t.user, 0, t.time + 0.25);
    }
    auto rewritten = builder.Build();
    ASSERT_TRUE(rewritten.ok());
    auto status = IncrementalRescan(view, ex.graph, *rewritten, credit,
                                    config, out);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
  }
  // Lambda mismatch.
  {
    CdConfig other = config;
    other.truncation_threshold = 0.5;
    auto status =
        IncrementalRescan(view, ex.graph, ex.log, credit, other, out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Graph mismatch.
  {
    auto other_graph = testing_fixtures::MakeDiamondGraph();
    auto status =
        IncrementalRescan(view, other_graph, ex.log, credit, config, out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Snapshots with committed seeds cannot be replayed forward.
  {
    auto seeded =
        CreditDistributionModel::Build(ex.graph, ex.log, credit, config);
    ASSERT_TRUE(seeded.ok());
    seeded->CommitSeed(PaperExample::kV);
    const std::string seeded_path = TempPath("rescan_seeded.snap");
    auto seeded_view = WriteAndOpen(*seeded, seeded_path);
    auto status = IncrementalRescan(seeded_view, ex.graph, ex.log, credit,
                                    config, out);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    std::remove(seeded_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, IncrementalRescanNoChangeIsIdentity) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, config);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("rescan_id.snap");
  auto view = WriteAndOpen(*model, path);
  const std::string out = TempPath("rescan_id_out.snap");
  RescanStats stats;
  ASSERT_TRUE(IncrementalRescan(view, ex.graph, ex.log, credit, config, out,
                                &stats)
                  .ok());
  EXPECT_EQ(stats.unchanged_actions, ex.log.num_actions());
  EXPECT_EQ(stats.rescanned_actions, 0u);
  EXPECT_EQ(stats.replayed_tuples, 0u);
  EXPECT_EQ(ReadFileBytes(out), ReadFileBytes(path));
  std::remove(path.c_str());
  std::remove(out.c_str());
}

// ------------------------------------------------- freeze determinism

// FNV-1a over a file's bytes: the golden pin below.
std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

// The version-2 image of a current snapshot: the same bytes with the
// quotient section version 2 stored after fwd_credit (u64 E, then
// fwd_credit[e] / au[fwd_node[e]] per entry) and the version field set
// to 2. Lets the digests pinned under version 2 keep pinning the bytes
// every remaining section holds.
std::string V2ImageOf(const std::string& v3) {
  // Element sizes of the sections up to and including fwd_credit, in
  // SnapshotSection order.
  constexpr std::size_t kElemBytes[] = {4, 8, 4, 8, 8, 8, 4, 8, 4, 4, 8};
  static_assert(std::size(kElemBytes) ==
                static_cast<std::size_t>(SnapshotSection::kFwdCredit) + 1);
  std::vector<std::size_t> payload;  // payload offset of each section
  std::uint64_t count = 0;
  std::size_t offset = kSnapshotPreludeBytes;
  for (const std::size_t elem : kElemBytes) {
    std::memcpy(&count, v3.data() + offset, sizeof(count));
    payload.push_back(offset + sizeof(count));
    offset += sizeof(count) + count * elem;
    offset += (8 - offset % 8) % 8;
  }
  const auto section = [&](SnapshotSection id) {
    return v3.data() + payload[static_cast<std::size_t>(id)];
  };
  std::string quot(sizeof(count), '\0');
  std::memcpy(quot.data(), &count, sizeof(count));  // E, fwd_credit's count
  for (std::uint64_t e = 0; e < count; ++e) {
    std::uint32_t u = 0;
    std::uint32_t au = 0;
    double credit = 0.0;
    std::memcpy(&u, section(SnapshotSection::kFwdNode) + 4 * e, 4);
    std::memcpy(&au, section(SnapshotSection::kAu) + 4 * u, 4);
    std::memcpy(&credit, section(SnapshotSection::kFwdCredit) + 8 * e, 8);
    const double q = credit / au;
    quot.append(reinterpret_cast<const char*>(&q), sizeof(q));
  }
  std::string v2 = v3;
  v2.insert(offset, quot);
  const std::uint32_t version = 2;
  std::memcpy(v2.data() + 8, &version, sizeof(version));
  return v2;
}

// A graph and a log the freeze inputs below own; models borrow both.
struct FreezeInput {
  Graph graph;
  ActionLog log;
};

// Preferential-attachment graph with seeded cascades plus one huge action
// (every node, id order), so one scan worker and one freeze worker each
// own most of the entries. The cascades
// use Rng bits and integer hop times only (no libm), so the pinned digest
// does not depend on the platform's math library: each action starts at a
// random node and crosses each out-edge of an activated node with
// probability 1/16, one time step per hop.
FreezeInput HugeActionInput() {
  const NodeId nodes = 600;
  auto graph = GeneratePreferentialAttachment({nodes, 4, 0.6}, 1201);
  INFLUMAX_CHECK(graph.ok());
  FreezeInput input{std::move(graph).value(), ActionLog()};
  Rng rng(1202);
  ActionLogBuilder builder(nodes);
  std::vector<std::uint32_t> hop(nodes);
  std::vector<NodeId> frontier;
  for (std::uint32_t a = 0; a < 60; ++a) {
    std::fill(hop.begin(), hop.end(), ~0u);
    const auto start = static_cast<NodeId>(rng.NextBounded(nodes));
    hop[start] = 0;
    frontier.assign(1, start);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const NodeId u = frontier[i];
      builder.Add(u, a, static_cast<Timestamp>(hop[u]));
      for (const NodeId v : input.graph.OutNeighbors(u)) {
        if (hop[v] == ~0u && rng.NextBounded(16) == 0) {
          hop[v] = hop[u] + 1;
          frontier.push_back(v);
        }
      }
    }
  }
  for (NodeId u = 0; u < nodes; ++u) {
    builder.Add(u, 1u << 20, static_cast<Timestamp>(u));
  }
  auto log = builder.Build();
  INFLUMAX_CHECK(log.ok());
  input.log = std::move(log).value();
  return input;
}

// A small cascade (action 0) next to actions that freeze to no entries —
// a single participant, two participants that share no edge, and a chain
// that runs against its edges — and users 8..11 who perform no action.
FreezeInput SparseInput() {
  GraphBuilder gb(12);
  for (NodeId u = 0; u + 1 < 6; ++u) gb.AddEdge(u, u + 1);
  gb.AddEdge(0, 2);
  gb.AddEdge(1, 3);
  auto graph = gb.Build();
  INFLUMAX_CHECK(graph.ok());
  ActionLogBuilder lb(12);
  for (NodeId u = 0; u < 6; ++u) lb.Add(u, 0, static_cast<Timestamp>(u));
  lb.Add(4, 1, 1.0);  // a lone participant
  lb.Add(7, 2, 1.0);  // 6 and 7 share no edge
  lb.Add(6, 2, 2.0);
  for (NodeId u = 3; u > 0; --u) lb.Add(u, 3, static_cast<Timestamp>(4 - u));
  auto log = lb.Build();
  INFLUMAX_CHECK(log.ok());
  return {std::move(graph).value(), std::move(log).value()};
}

// The huge-action model.
CreditDistributionModel BuildHugeActionModel(const FreezeInput& input) {
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.001;
  auto model =
      CreditDistributionModel::Build(input.graph, input.log, credit, config);
  INFLUMAX_CHECK(model.ok());
  return std::move(model).value();
}

// Freezes `model` over `threads` workers and returns the file bytes.
std::string FrozenBytesAt(const CreditDistributionModel& model,
                          std::size_t threads) {
  const SnapshotData data = BuildSnapshotData(
      model.store(), model.graph(), model.log(),
      model.config().truncation_threshold, model.committed_seeds(), threads);
  const std::string path = TempPath("sweep_" + std::to_string(threads) +
                                    ".snap");
  INFLUMAX_CHECK(WriteSnapshotFile(data, path).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// The frozen bytes of fixed inputs, pinned to digests recorded from the
// earlier serial writer (one pass per action with a per-action entry hash
// map and a sort per backward list) over the earlier scan (one AddCredit
// hash probe per contribution). Equal digests prove the parallel freeze
// and the row-kernel scan reproduce both byte for byte, not merely that
// they agree with themselves across thread counts. Every scan width is
// checked: serial, even, odd and hardware. The digests were taken of
// version-2 files, so each file is hashed as its version-2 image
// (V2ImageOf).
TEST(SnapshotTest, FrozenBytesMatchPinnedDigests) {
  const FreezeInput huge = HugeActionInput();
  const FreezeInput sparse = SparseInput();
  EqualDirectCredit credit;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{0}}) {
    const std::string label = std::to_string(threads) + " scan threads";
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.scan_threads = threads;
    auto model =
        CreditDistributionModel::Build(huge.graph, huge.log, credit, config);
    ASSERT_TRUE(model.ok()) << label;
    EXPECT_EQ(Fnv1a64(V2ImageOf(FrozenBytesAt(*model, 0))),
              0xbbd0ae27dcfcb9aaULL)
        << label;
    ASSERT_TRUE(model->SelectSeeds(3).ok());  // three CommitSeed calls
    EXPECT_EQ(Fnv1a64(V2ImageOf(FrozenBytesAt(*model, 0))),
              0x442c39255216f4cfULL)
        << label;
    config.truncation_threshold = 0.0;
    auto sparse_model = CreditDistributionModel::Build(
        sparse.graph, sparse.log, credit, config);
    ASSERT_TRUE(sparse_model.ok()) << label;
    EXPECT_EQ(Fnv1a64(V2ImageOf(FrozenBytesAt(*sparse_model, 0))),
              0xcb94ce96897d6bc7ULL)
        << label;
  }
}

// Serial, even, odd and hardware freeze widths all write the same file.
void ExpectFreezeIndependentOfThreads(const CreditDistributionModel& model,
                                      const std::string& label) {
  const std::string serial = FrozenBytesAt(model, 1);
  ASSERT_FALSE(serial.empty()) << label;
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{7}, EffectiveThreadCount(0)}) {
    EXPECT_EQ(FrozenBytesAt(model, threads), serial)
        << label << ": " << threads << " freeze threads";
  }
}

TEST(SnapshotTest, FreezeBytesIndependentOfThreadCount) {
  const FreezeInput huge = HugeActionInput();
  auto model = BuildHugeActionModel(huge);
  ExpectFreezeIndependentOfThreads(model, "huge action");
  const std::uint64_t entries = model.credit_entries();
  ASSERT_TRUE(model.SelectSeeds(3).ok());
  ASSERT_LT(model.credit_entries(), entries);  // erasures happened
  ExpectFreezeIndependentOfThreads(model, "after CommitSeed");
  const FreezeInput sparse = SparseInput();
  EqualDirectCredit credit;
  ExpectFreezeIndependentOfThreads(
      BuildModel(sparse.graph, sparse.log, credit), "sparse log");
}

// The rescan freezes over config.scan_threads; every width reproduces
// the full rebuild, including the huge action's rescan.
TEST(SnapshotTest, IncrementalRescanBytesIndependentOfThreadCount) {
  const FreezeInput huge = HugeActionInput();
  const ActionLog prefix = PrefixLog(huge.log, 0.5);
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.001;
  auto old_model =
      CreditDistributionModel::Build(huge.graph, prefix, credit, config);
  ASSERT_TRUE(old_model.ok());
  const std::string old_path = TempPath("rescan_sweep_old.snap");
  auto view = WriteAndOpen(*old_model, old_path);
  const std::string full = FrozenBytesAt(BuildHugeActionModel(huge), 0);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{0}}) {
    config.scan_threads = threads;
    const std::string out = TempPath("rescan_sweep_out.snap");
    ASSERT_TRUE(
        IncrementalRescan(view, huge.graph, huge.log, credit, config, out)
            .ok());
    EXPECT_EQ(ReadFileBytes(out), full) << threads << " rescan threads";
    std::remove(out.c_str());
  }
  std::remove(old_path.c_str());
}

// --------------------------------------------------------- memory report

TEST(SnapshotTest, MemoryNumbersAreReported) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("mem.snap");
  auto view = WriteAndOpen(model, path);
  EXPECT_GT(view.ApproxMemoryBytes(), kSnapshotPreludeBytes);

  SnapshotQueryEngine engine(view);
  const std::uint64_t before = engine.ApproxMemoryBytes();
  engine.TopKSeeds(3);
  EXPECT_GE(engine.ApproxMemoryBytes(), before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace influmax
