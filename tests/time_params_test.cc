#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "graph/generators.h"
#include "probability/time_params.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

TEST(TimeParamsTest, AverageDelaysOnPaperExample) {
  auto ex = MakePaperExample();
  auto params = LearnTimeParams(ex.graph, ex.log);
  ASSERT_TRUE(params.ok());
  // Single trace: v(1.0) -> w(2.0): delay 1.0; t(2.5) -> u(4.0): 1.5.
  const EdgeIndex vw = ex.graph.FindOutEdge(PaperExample::kV, PaperExample::kW);
  const EdgeIndex tu = ex.graph.FindOutEdge(PaperExample::kT, PaperExample::kU);
  EXPECT_DOUBLE_EQ(params->edge_mean_delay[vw], 1.0);
  EXPECT_DOUBLE_EQ(params->edge_mean_delay[tu], 1.5);
  EXPECT_EQ(params->edge_propagation_count[vw], 1u);
  // 8 propagation events total (the 8 DAG edges).
  EXPECT_EQ(params->total_propagation_events, 8u);
}

TEST(TimeParamsTest, AveragesOverMultipleActions) {
  GraphBuilder gb(2);
  gb.AddEdge(0, 1);
  auto graph = gb.Build();
  ASSERT_TRUE(graph.ok());
  ActionLogBuilder lb(2);
  lb.Add(0, 0, 0.0);
  lb.Add(1, 0, 2.0);  // delay 2
  lb.Add(0, 1, 0.0);
  lb.Add(1, 1, 6.0);  // delay 6
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  auto params = LearnTimeParams(*graph, *log);
  ASSERT_TRUE(params.ok());
  EXPECT_DOUBLE_EQ(params->edge_mean_delay[0], 4.0);
  EXPECT_EQ(params->edge_propagation_count[0], 2u);
  EXPECT_DOUBLE_EQ(params->global_mean_delay, 4.0);
}

TEST(TimeParamsTest, UnusedEdgesHaveInfiniteDelay) {
  GraphBuilder gb(3);
  gb.AddEdge(0, 1);
  gb.AddEdge(1, 2);  // never propagates
  auto graph = gb.Build();
  ASSERT_TRUE(graph.ok());
  ActionLogBuilder lb(3);
  lb.Add(0, 0, 0.0);
  lb.Add(1, 0, 1.0);
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  auto params = LearnTimeParams(*graph, *log);
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->edge_mean_delay[graph->FindOutEdge(1, 2)],
            kNeverPerformed);
  EXPECT_EQ(params->edge_propagation_count[graph->FindOutEdge(1, 2)], 0u);
}

TEST(TimeParamsTest, InfluenceabilityCountsInfluencedFraction) {
  // User 1 performs 2 actions: one under influence of 0 (delay == tau),
  // one spontaneously. infl(1) = 0.5.
  GraphBuilder gb(2);
  gb.AddEdge(0, 1);
  auto graph = gb.Build();
  ASSERT_TRUE(graph.ok());
  ActionLogBuilder lb(2);
  lb.Add(0, 0, 0.0);
  lb.Add(1, 0, 3.0);  // tau(0->1) becomes 3.0; delta == tau -> influenced
  lb.Add(1, 1, 5.0);  // no influencer
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  auto params = LearnTimeParams(*graph, *log);
  ASSERT_TRUE(params.ok());
  EXPECT_DOUBLE_EQ(params->influenceability[1], 0.5);
  EXPECT_DOUBLE_EQ(params->influenceability[0], 0.0);  // initiator only
}

TEST(TimeParamsTest, InfluenceabilityUsesPerEdgeTau) {
  // Two actions on edge 0->1 with delays 1 and 9: tau = 5. The delay-1
  // action is within tau (influenced), the delay-9 one is not.
  GraphBuilder gb(2);
  gb.AddEdge(0, 1);
  auto graph = gb.Build();
  ASSERT_TRUE(graph.ok());
  ActionLogBuilder lb(2);
  lb.Add(0, 0, 0.0);
  lb.Add(1, 0, 1.0);
  lb.Add(0, 1, 0.0);
  lb.Add(1, 1, 9.0);
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  auto params = LearnTimeParams(*graph, *log);
  ASSERT_TRUE(params.ok());
  EXPECT_DOUBLE_EQ(params->edge_mean_delay[0], 5.0);
  EXPECT_DOUBLE_EQ(params->influenceability[1], 0.5);
}

TEST(TimeParamsTest, RejectsMismatchedUserSpace) {
  auto ex = MakePaperExample();
  ActionLogBuilder lb(2);
  lb.Add(0, 0, 1.0);
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(LearnTimeParams(ex.graph, *log).ok());
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double value : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

// The DAG builds run on any number of workers, in blocks of actions; the
// delay sums still fold in action order and the influenceability counts
// are integers, so every parameter is bit-identical to the serial pass.
TEST(TimeParamsTest, BitIdenticalForAnyThreadCount) {
  auto graph = GeneratePreferentialAttachment({1500, 4, 0.6}, 77);
  ASSERT_TRUE(graph.ok());
  CascadeConfig config;
  config.num_actions = 400;
  config.seed = 78;
  auto data = GenerateCascadeDataset(std::move(graph).value(), config);
  ASSERT_TRUE(data.ok());
  // Enough tuples for several blocks of action DAGs (about 16K tuples
  // each).
  ASSERT_GT(data->log.num_tuples(), 40000u);
  auto serial = LearnTimeParams(data->graph, data->log, /*threads=*/1);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->total_propagation_events, 0u);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{7}, std::size_t{0}}) {
    auto params = LearnTimeParams(data->graph, data->log, threads);
    ASSERT_TRUE(params.ok());
    EXPECT_EQ(Bits(params->edge_mean_delay), Bits(serial->edge_mean_delay))
        << threads << " threads";
    EXPECT_EQ(params->edge_propagation_count, serial->edge_propagation_count)
        << threads << " threads";
    EXPECT_EQ(Bits(params->influenceability), Bits(serial->influenceability))
        << threads << " threads";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(params->global_mean_delay),
              std::bit_cast<std::uint64_t>(serial->global_mean_delay))
        << threads << " threads";
    EXPECT_EQ(params->total_propagation_events,
              serial->total_propagation_events)
        << threads << " threads";
  }
}

// ----------------------------------------------- TimeDecayDirectCredit

TEST(TimeDecayCreditTest, MatchesEquationNine) {
  auto ex = MakePaperExample();
  auto params = LearnTimeParams(ex.graph, ex.log);
  ASSERT_TRUE(params.ok());
  TimeDecayDirectCredit credit(*params);
  const EdgeIndex vu = ex.graph.FindOutEdge(PaperExample::kV, PaperExample::kU);
  const double tau = params->edge_mean_delay[vu];       // 3.0 (4.0 - 1.0)
  const double infl_u = params->influenceability[PaperExample::kU];
  const double gamma = credit.Gamma(PaperExample::kU, 4, 3.0, vu);
  EXPECT_DOUBLE_EQ(gamma, infl_u / 4.0 * std::exp(-3.0 / tau));
}

TEST(TimeDecayCreditTest, DecaysWithTimeDelta) {
  auto ex = MakePaperExample();
  auto params = LearnTimeParams(ex.graph, ex.log);
  ASSERT_TRUE(params.ok());
  TimeDecayDirectCredit credit(*params);
  const EdgeIndex vu = ex.graph.FindOutEdge(PaperExample::kV, PaperExample::kU);
  EXPECT_GT(credit.Gamma(PaperExample::kU, 4, 1.0, vu),
            credit.Gamma(PaperExample::kU, 4, 10.0, vu));
}

TEST(TimeDecayCreditTest, FallsBackToGlobalMeanDelay) {
  InfluenceTimeParams params;
  params.edge_mean_delay = {kNeverPerformed};
  params.edge_propagation_count = {0};
  params.influenceability = {0.0, 0.8};
  params.global_mean_delay = 2.0;
  TimeDecayDirectCredit credit(params);
  const double gamma = credit.Gamma(/*child_user=*/1, /*in_degree=*/2,
                                    /*time_delta=*/2.0, /*edge=*/0);
  EXPECT_DOUBLE_EQ(gamma, 0.8 / 2.0 * std::exp(-1.0));
}

TEST(TimeDecayCreditTest, CreditSumBoundedByOne) {
  // Sum over parents of gamma <= infl(u) <= 1 regardless of deltas.
  InfluenceTimeParams params;
  params.edge_mean_delay = {1.0, 2.0, 3.0};
  params.edge_propagation_count = {1, 1, 1};
  params.influenceability = {1.0};
  params.global_mean_delay = 1.0;
  TimeDecayDirectCredit credit(params);
  double sum = 0.0;
  for (EdgeIndex e = 0; e < 3; ++e) {
    sum += credit.Gamma(0, 3, 0.5, e);
  }
  EXPECT_LE(sum, 1.0 + 1e-12);
}

TEST(EqualCreditTest, IsReciprocalInDegree) {
  EqualDirectCredit credit;
  EXPECT_DOUBLE_EQ(credit.Gamma(0, 4, 123.0, 0), 0.25);
  EXPECT_DOUBLE_EQ(credit.Gamma(9, 1, 0.001, 7), 1.0);
}

}  // namespace
}  // namespace influmax
