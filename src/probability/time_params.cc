#include "probability/time_params.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "actionlog/propagation_dag.h"
#include "common/parallel.h"
#include "common/types.h"

namespace influmax {

namespace {

// Pass 1 builds action DAGs in blocks of about this many tuples (at least
// one action each), which bounds the DAGs held at once.
constexpr std::uint64_t kBlockTuples = std::uint64_t{1} << 14;

}  // namespace

Result<InfluenceTimeParams> LearnTimeParams(const Graph& g,
                                            const ActionLog& log,
                                            std::size_t threads) {
  if (log.num_users() != g.num_nodes()) {
    return Status::InvalidArgument(
        "time params: action log user space does not match graph");
  }

  InfluenceTimeParams params;
  const EdgeIndex m = g.num_edges();
  std::vector<double> delay_sum(m, 0.0);
  params.edge_propagation_count.assign(m, 0);
  params.influenceability.assign(g.num_nodes(), 0.0);

  // Pass 1: accumulate per-edge propagation delays, in waves: wave w
  // builds block w's DAGs, one index per action, while its first index
  // folds block w - 1's. ParallelForLevels starts the workers once and
  // finishes each wave before the next, so the folds run one after
  // another in action order — every FP sum is the serial one — and the
  // blocks alternate between two DAG buffers.
  std::vector<ActionId> block_begin = {0};
  std::size_t max_block = 0;
  for (ActionId a = 0; a < log.num_actions();) {
    std::uint64_t tuples = log.ActionSize(a++);
    while (a < log.num_actions() &&
           tuples + log.ActionSize(a) <= kBlockTuples) {
      tuples += log.ActionSize(a++);
    }
    max_block = std::max<std::size_t>(max_block, a - block_begin.back());
    block_begin.push_back(a);
  }
  const std::size_t num_blocks = block_begin.size() - 1;
  std::vector<std::size_t> wave_begin = {0};
  for (std::size_t w = 0; w <= num_blocks; ++w) {
    const std::size_t builds =
        w < num_blocks ? block_begin[w + 1] - block_begin[w] : 0;
    wave_begin.push_back(wave_begin.back() + (w > 0 ? 1 : 0) + builds);
  }
  std::array<std::vector<PropagationDag>, 2> dags;
  for (std::vector<PropagationDag>& buffer : dags) buffer.resize(max_block);
  double global_sum = 0.0;
  const auto fold = [&](std::size_t block) {
    std::vector<PropagationDag>& buffer = dags[block % 2];
    for (ActionId a = block_begin[block]; a < block_begin[block + 1]; ++a) {
      PropagationDag& dag = buffer[a - block_begin[block]];
      for (NodeId pos = 0; pos < dag.size(); ++pos) {
        const auto parents = dag.Parents(pos);
        const auto edges = dag.ParentEdges(pos);
        for (std::size_t i = 0; i < parents.size(); ++i) {
          const double delta = dag.TimeAt(pos) - dag.TimeAt(parents[i]);
          delay_sum[edges[i]] += delta;
          params.edge_propagation_count[edges[i]]++;
          global_sum += delta;
          ++params.total_propagation_events;
        }
      }
      dag = PropagationDag();
    }
  };
  ParallelForLevels(wave_begin, threads, [&](std::size_t, std::size_t i) {
    const std::size_t w =
        std::upper_bound(wave_begin.begin(), wave_begin.end(), i) -
        wave_begin.begin() - 1;
    std::size_t offset = i - wave_begin[w];
    if (w > 0) {
      if (offset == 0) {
        fold(w - 1);
        return;
      }
      --offset;  // the fold holds the wave's first index
    }
    const ActionId a = block_begin[w] + static_cast<ActionId>(offset);
    dags[w % 2][offset] = BuildPropagationDag(g, log.ActionTrace(a));
  });
  params.edge_mean_delay.assign(m, kNeverPerformed);
  for (EdgeIndex e = 0; e < m; ++e) {
    if (params.edge_propagation_count[e] > 0) {
      params.edge_mean_delay[e] =
          delay_sum[e] / params.edge_propagation_count[e];
    }
  }
  if (params.total_propagation_events > 0) {
    params.global_mean_delay =
        global_sum / static_cast<double>(params.total_propagation_events);
  }

  // Pass 2: influenceability — count actions performed "under influence"
  // of at least one potential influencer within its learned tau. Actions
  // run in parallel; integer counts are exact in any order.
  std::vector<std::uint32_t> influenced_actions(g.num_nodes(), 0);
  ParallelForDynamic(
      log.num_actions(), threads, [&](std::size_t, std::size_t a) {
        const PropagationDag dag = BuildPropagationDag(
            g, log.ActionTrace(static_cast<ActionId>(a)));
        for (NodeId pos = 0; pos < dag.size(); ++pos) {
          const auto parents = dag.Parents(pos);
          const auto edges = dag.ParentEdges(pos);
          for (std::size_t i = 0; i < parents.size(); ++i) {
            const double delta = dag.TimeAt(pos) - dag.TimeAt(parents[i]);
            if (delta <= params.edge_mean_delay[edges[i]]) {
              std::atomic_ref<std::uint32_t>(
                  influenced_actions[dag.UserAt(pos)])
                  .fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
      });
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::uint32_t au = log.ActionsPerformedBy(u);
    params.influenceability[u] =
        au == 0 ? 0.0 : static_cast<double>(influenced_actions[u]) / au;
  }
  return params;
}

}  // namespace influmax
