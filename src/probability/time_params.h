#ifndef INFLUMAX_PROBABILITY_TIME_PARAMS_H_
#define INFLUMAX_PROBABILITY_TIME_PARAMS_H_

#include <cstdint>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "graph/graph.h"

namespace influmax {

/// Temporal influence parameters learned from an action log (Goyal et al.
/// WSDM 2010; used by Eq. 9 of the paper for the CD model's direct
/// credit, and A_{v2u} doubles as the LT weight numerator):
///
///  * tau_{v,u}  — average time taken for actions to propagate from v to
///                 u, over actions where the propagation v -> u happened;
///  * A_{v2u}    — number of actions that propagated from v to u;
///  * infl(u)    — influenceability: fraction of u's actions performed
///                 "under influence", i.e. with at least one potential
///                 influencer v such that t(u,a) - t(v,a) <= tau_{v,u}.
struct InfluenceTimeParams {
  /// Per out-edge average propagation delay; kNeverPerformed (infinity)
  /// for edges that never propagated anything.
  std::vector<double> edge_mean_delay;
  /// Per out-edge propagation count A_{v2u}.
  std::vector<std::uint32_t> edge_propagation_count;
  /// Per node influenceability infl(u) in [0, 1].
  std::vector<double> influenceability;
  /// Mean delay over all observed propagations (fallback for edges seen
  /// only at scan time, e.g. when scanning a log the parameters were not
  /// trained on).
  double global_mean_delay = 1.0;
  /// Total number of (edge, action) propagation events observed.
  std::uint64_t total_propagation_events = 0;
};

/// Learns all parameters in two passes over `log` (one to average delays,
/// one to evaluate the influenceability indicator against the learned
/// tau values), building the action DAGs on `threads` workers (0 = all
/// hardware threads). The parameters are bit-identical for any thread
/// count: pass 1 folds the delays serially in action order, pass 2 only
/// counts.
Result<InfluenceTimeParams> LearnTimeParams(const Graph& g,
                                            const ActionLog& log,
                                            std::size_t threads = 0);

}  // namespace influmax

#endif  // INFLUMAX_PROBABILITY_TIME_PARAMS_H_
