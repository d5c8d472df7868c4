// Gain kernel (src/serve/gain_kernel.h, docs/gain_kernel.md): the
// quotient-pool exactness contract — the pool an engine or sharded open
// derives bit-equals fwd_credit[e] / au[fwd_node[e]] over the output of
// every snapshot producer (full build, IncrementalRescan, SliceShardData)
// — and the fast_math kernel's bounded-error contract against the exact
// fold, on both dispatch backends and through the sharded router's
// global-au pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "serve/gain_kernel.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

/// First ~keep_fraction of every action's trace — the append-only prefix
/// shape IncrementalRescan requires.
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

/// Asserts the pool invariant: every derived quotient bit-equals the
/// on-the-fly division it replaces under `au` (IEEE double division is
/// correctly rounded, so this is deterministic across machines).
void ExpectPoolBitExact(const CreditSnapshotView& view,
                        std::span<const double> pool,
                        std::span<const std::uint32_t> au) {
  const auto credit = view.fwd_credit();
  const auto node = view.fwd_node();
  ASSERT_EQ(pool.size(), view.num_entries());
  for (std::uint64_t e = 0; e < view.num_entries(); ++e) {
    const double expected = credit[e] / au[node[e]];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(pool[e]),
              std::bit_cast<std::uint64_t>(expected))
        << "entry " << e;
  }
}

/// The pool an engine over `view` derives from the view's own au.
void ExpectViewPoolBitExact(const CreditSnapshotView& view) {
  ExpectPoolBitExact(view, DeriveQuotientPool(view, view.au()), view.au());
}

/// |fast - exact| within the documented relative bound. Gain terms are
/// non-negative, so the bound is a clean relative one; an exactly-zero
/// gain (seed / inactive user) must stay exactly zero.
void ExpectWithinFastMathBound(double exact, double fast) {
  if (exact == 0.0) {
    ASSERT_EQ(fast, 0.0);
    return;
  }
  ASSERT_LE(std::abs(fast - exact), kFastMathRelErrorBound * std::abs(exact))
      << "exact " << exact << " fast " << fast;
}

SyntheticDataset MakeDataset(double scale = 0.1) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(scale));
  INFLUMAX_CHECK(data.ok());
  return std::move(data).value();
}

/// Restores the auto-dispatched backend when a test forced one.
struct BackendGuard {
  ~BackendGuard() { ForceGainKernelBackend(GainKernelBackend::kAuto); }
};

// ------------------------------------------------------- kernel basics

TEST(GainKernelTest, ModeParsingAndNames) {
  auto exact = ParseGainKernelMode("exact");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, GainKernelMode::kExact);
  for (const char* alias : {"fast", "fast_math"}) {
    auto fast = ParseGainKernelMode(alias);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(*fast, GainKernelMode::kFastMath);
  }
  EXPECT_FALSE(ParseGainKernelMode("exactish").ok());
  EXPECT_FALSE(ParseGainKernelMode("").ok());
  EXPECT_STREQ(GainKernelModeName(GainKernelMode::kExact), "exact");
  EXPECT_STREQ(GainKernelModeName(GainKernelMode::kFastMath), "fast");
}

TEST(GainKernelTest, ForcedBackendsResolveAndRestore) {
  BackendGuard guard;
  ForceGainKernelBackend(GainKernelBackend::kScalar);
  EXPECT_EQ(ActiveGainKernelBackend(), GainKernelBackend::kScalar);
  // Forcing AVX2 either takes effect or degrades to scalar on hardware
  // without it — it never leaves the dispatcher unset.
  ForceGainKernelBackend(GainKernelBackend::kAvx2);
  const GainKernelBackend forced = ActiveGainKernelBackend();
  EXPECT_TRUE(forced == GainKernelBackend::kAvx2 ||
              forced == GainKernelBackend::kScalar);
  ForceGainKernelBackend(GainKernelBackend::kAuto);
  EXPECT_NE(ActiveGainKernelBackend(), GainKernelBackend::kAuto);
}

TEST(GainKernelTest, FastSumMatchesExactFoldAcrossLengthsAndBackends) {
  BackendGuard guard;
  Rng rng(4242);
  std::vector<double> values(1031);
  for (double& v : values) v = rng.NextDouble();
  for (const GainKernelBackend backend :
       {GainKernelBackend::kScalar, GainKernelBackend::kAvx2}) {
    ForceGainKernelBackend(backend);
    // Sweep every length through the unrolled-block and tail boundaries.
    for (std::size_t n = 0; n <= values.size(); ++n) {
      const double exact = FoldQuotientsExact(0.0, values.data(), n);
      const double fast = SumQuotientsFast(values.data(), n);
      if (n == 0) {
        EXPECT_EQ(fast, 0.0);
        continue;
      }
      ASSERT_LE(std::abs(fast - exact), kFastMathRelErrorBound * exact)
          << "n " << n << " backend "
          << GainKernelBackendName(ActiveGainKernelBackend());
    }
  }
}

// --------------------------------------------- producer bit-exactness

TEST(GainKernelTest, SnapshotRoundTripDerivesBitExactQuotients) {
  auto ex = testing_fixtures::MakePaperExample();
  EqualDirectCredit credit;
  const auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("quot_paper.snap");
  auto view = WriteAndOpen(model, path);
  EXPECT_GT(view.num_entries(), 0u);
  ExpectViewPoolBitExact(view);
  std::remove(path.c_str());
}

TEST(GainKernelTest, RandomizedSnapshotDerivesBitExactQuotients) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string path = TempPath("quot_random.snap");
  auto view = WriteAndOpen(model, path);
  EXPECT_GT(view.num_entries(), 0u);
  ExpectViewPoolBitExact(view);
  std::remove(path.c_str());
}

TEST(GainKernelTest, IncrementalRescanRegeneratesQuotients) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;
  const ActionLog prefix = PrefixLog(data.log, 0.6);
  ASSERT_LT(prefix.num_tuples(), data.log.num_tuples());
  auto old_model =
      CreditDistributionModel::Build(data.graph, prefix, credit, config);
  ASSERT_TRUE(old_model.ok());
  const std::string old_path = TempPath("quot_rescan_old.snap");
  auto view = WriteAndOpen(*old_model, old_path);
  const std::string delta_path = TempPath("quot_rescan_delta.snap");
  ASSERT_TRUE(IncrementalRescan(view, data.graph, data.log, credit, config,
                                delta_path)
                  .ok());
  auto delta = CreditSnapshotView::Open(delta_path);
  ASSERT_TRUE(delta.ok());
  ExpectViewPoolBitExact(*delta);
  std::remove(old_path.c_str());
  std::remove(delta_path.c_str());
}

TEST(GainKernelTest, SliceShardDataRegeneratesQuotients) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("quot_slice");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());
  const std::vector<ActionId> begins =
      PlanActionRanges(mono->action_entry_begin(), 3);
  for (std::size_t i = 0; i + 1 < begins.size(); ++i) {
    const SnapshotData slice =
        SliceShardData(*mono, begins[i], begins[i + 1]);
    const std::string slice_path = dir + "/slice" + std::to_string(i);
    ASSERT_TRUE(WriteSnapshotFile(slice, slice_path).ok());
    auto shard = CreditSnapshotView::Open(slice_path);
    ASSERT_TRUE(shard.ok());
    // A standalone engine divides by the slice's *local* au; an engine
    // under the global au (the router's construction) by the mono au.
    ExpectViewPoolBitExact(*shard);
    ExpectPoolBitExact(*shard, DeriveQuotientPool(*shard, mono->au()),
                       mono->au());
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- engine differential tests

TEST(GainKernelTest, FastMathGainsWithinBoundAcrossStoreShapes) {
  BackendGuard guard;
  EqualDirectCredit credit;
  struct Shape {
    double scale;
    double lambda;
  };
  for (const Shape shape : {Shape{0.05, 0.0}, Shape{0.1, 0.001}}) {
    auto data = MakeDataset(shape.scale);
    const auto model =
        BuildModel(data.graph, data.log, credit, shape.lambda);
    const std::string path = TempPath("quot_diff.snap");
    auto view = WriteAndOpen(model, path);
    SnapshotQueryEngine exact(view);
    SnapshotQueryEngine fast(view);
    fast.set_kernel_mode(GainKernelMode::kFastMath);
    for (const GainKernelBackend backend :
         {GainKernelBackend::kScalar, GainKernelBackend::kAvx2}) {
      ForceGainKernelBackend(backend);
      for (NodeId x = 0; x < view.num_users(); ++x) {
        ExpectWithinFastMathBound(exact.MarginalGain(x),
                                  fast.MarginalGain(x));
      }
    }
    std::remove(path.c_str());
  }
}

TEST(GainKernelTest, FastMathWithinBoundAfterCommitSeedOverlays) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string path = TempPath("quot_overlay.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine exact(view);
  SnapshotQueryEngine fast(view);
  fast.set_kernel_mode(GainKernelMode::kFastMath);
  // Commit the same seeds into both sessions; overlaid actions fall back
  // to the on-the-fly division path in both modes, untouched actions
  // keep the pooled fold.
  const auto seeds = exact.TopKSeeds(3).seeds;
  ASSERT_EQ(seeds.size(), 3u);
  exact.ResetSession();
  for (const NodeId seed : seeds) {
    exact.CommitSeed(seed);
    fast.CommitSeed(seed);
  }
  for (NodeId x = 0; x < view.num_users(); ++x) {
    ExpectWithinFastMathBound(exact.MarginalGain(x), fast.MarginalGain(x));
  }
  std::remove(path.c_str());
}

TEST(GainKernelTest, ExactModeTopKBitIdenticalToFreshEngine) {
  // The default engine already folds the pool; an engine explicitly set
  // to exact after serving fast queries must return to identical bits.
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string path = TempPath("quot_modeswap.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine reference(view);
  const auto expected = reference.TopKSeeds(8);
  SnapshotQueryEngine engine(view);
  engine.set_kernel_mode(GainKernelMode::kFastMath);
  (void)engine.TopKSeeds(8);
  engine.ResetSession();
  engine.set_kernel_mode(GainKernelMode::kExact);
  const auto swapped = engine.TopKSeeds(8);
  EXPECT_EQ(swapped.seeds, expected.seeds);
  EXPECT_EQ(swapped.marginal_gains, expected.marginal_gains);
  EXPECT_EQ(swapped.gain_evaluations, expected.gain_evaluations);
  std::remove(path.c_str());
}

// ------------------------------------------------ router global pools

TEST(GainKernelTest, RouterGlobalPoolsKeepExactBitIdentity) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("quot_router");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());
  SnapshotQueryEngine engine(*mono);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    ShardedSnapshotWriter writer(dir, shards);
    ASSERT_TRUE(writer.WriteFromView(*mono, shards).ok());
    auto sharded = OpenShardedSnapshot(dir + "/" + ManifestFileName(shards));
    ASSERT_TRUE(sharded.ok());
    // The open derives one global-au pool per shard, a single shard
    // (whose local au is the global au) included.
    for (std::size_t i = 0; i < sharded->views.size(); ++i) {
      SCOPED_TRACE("shard " + std::to_string(i));
      ExpectPoolBitExact(sharded->views[i], sharded->shard_quotient(i),
                         sharded->manifest.au);
    }
    ShardRouter router(*sharded);
    for (NodeId x = 0; x < mono->num_users(); ++x) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(router.MarginalGain(x)),
                std::bit_cast<std::uint64_t>(engine.MarginalGain(x)))
          << "shards " << shards << " node " << x;
    }
    router.set_kernel_mode(GainKernelMode::kFastMath);
    EXPECT_EQ(router.kernel_mode(), GainKernelMode::kFastMath);
    for (NodeId x = 0; x < mono->num_users(); ++x) {
      ExpectWithinFastMathBound(engine.MarginalGain(x),
                                router.MarginalGain(x));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace influmax
