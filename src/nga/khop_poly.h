// Gate-level compilation of the polynomial-time k-hop SSSP algorithm
// (Section 4.2).
//
// Messages carry ⌈log(nU)⌉-ish-bit path lengths. Every synapse has the same
// delay, so the computation proceeds in synchronous rounds of period x
// ("we thus set x = c log(nU)"): at round r each node's circuit outputs the
// minimum length over all source→node walks with exactly r edges; the k-hop
// distance is the minimum over rounds 1..k (with per-round values recovered
// through the simulator's watched-spike log — the latched-bank alternative
// costs the O(k) neuron factor discussed in Section 4.3).
//
// Encoding (DESIGN.md §1): distances travel bitwise-complemented
// (c = 2^λ−1−d) so that MIN becomes MAX of complements and an absent
// (all-zero) message is neutral; the edge circuit then *adds the
// two's-complement of the edge length* to the complemented value, which is
// exactly "summing entries of A with message values on the edges"
// (Section 2.2) in the complement domain.
//
// Theorem 4.3: O(m log(nU)) time with O(1) data movement (dominated by
// loading), spiking portion O(k log(nU)); O((nk+m) log(nU)) on the crossbar.
#pragma once

#include <optional>
#include <vector>

#include "circuits/adders.h"
#include "circuits/max_circuits.h"
#include "core/types.h"
#include "graph/graph.h"
#include "snn/simulator.h"

namespace sga::nga {

struct KHopPolyOptions {
  VertexId source = 0;
  std::uint32_t k = 1;  ///< number of rounds (hop budget)
  /// If set, stop at the round where this vertex first receives a message
  /// ("the NGA terminates ... when the node corresponding to v_t receives a
  /// spike").
  std::optional<VertexId> target;
  /// Max-circuit construction for the per-node MIN (ablation knob).
  circuits::MaxKind max_kind = circuits::MaxKind::kWiredOr;
  /// Build Section 4.3's IN-NETWORK path memory: per vertex, a one-hot→
  /// binary encoder over the MIN circuit's winner lines feeding k
  /// clock-strobed latch banks (circuits::RoundStore) — "the extra storage
  /// requires a multiplicative factor of O(k) additional neurons". The
  /// banks' contents are decoded into KHopPolyResult::memory_parent and
  /// must agree with the probe-decoded parent_per_round (ties caveat:
  /// simultaneous winners OR their slot indices in the banks; target-mode
  /// caveat: stopping at the target's arrival round leaves that round's
  /// banks unwritten — they strobe 3 steps after the round boundary).
  bool in_network_parent_memory = false;
};

struct KHopPolyResult {
  /// dist[v] = dist_k(v) = min over rounds r ≤ k.
  std::vector<Weight> dist;
  /// per_round[r][v] = length of the shortest source→v walk with exactly r
  /// edges (kInfiniteDistance if none) — matches nga::minplus_rounds.
  std::vector<std::vector<Weight>> per_round;
  /// parent_per_round[r][v]: the in-neighbour whose round-(r−1) message won
  /// v's MIN at round r (kNoVertex if no arrival) — decoded from the max
  /// circuits' winner neurons (Figure 3's a_{i,1} / Figure 5's M_x), the
  /// Section-4.3 path-construction information.
  std::vector<std::vector<VertexId>> parent_per_round;
  /// With in_network_parent_memory: memory_parent[r][v] as read from the
  /// vertex's round-r latch bank at the END of the run (kNoVertex where the
  /// bank was never written). Indexed like parent_per_round.
  std::vector<std::vector<VertexId>> memory_parent;
  Time execution_time = 0;  ///< SNN steps (k rounds → k·x)
  Time round_period = 0;    ///< x
  int lambda = 0;           ///< message width
  std::size_t neurons = 0;
  std::size_t synapses = 0;
  snn::SimStats sim;

  bool reachable(VertexId v) const { return dist[v] < kInfiniteDistance; }
};

KHopPolyResult khop_sssp_poly(const Graph& g, const KHopPolyOptions& opt);

/// Reconstruct a ≤k-hop shortest path source→target from the per-round
/// winner record: walk backwards from the best round, following each
/// round's winning in-edge. Requires target reachable within k hops.
std::vector<VertexId> extract_khop_path(const KHopPolyResult& r,
                                        VertexId source, VertexId target);

/// Theorem 4.4's SSSP instantiation ("just set k to α") without knowing α
/// in advance: run the polynomial algorithm with doubling hop budgets until
/// a round improves nothing (the Bellman–Ford early-exit criterion: with
/// positive weights, a no-change round proves convergence). The result's
/// `k` is the budget that converged — within 2× of the true max shortest-
/// path hop count — so the total spiking time is O(α·log(nU)).
struct SsspPolyResult {
  std::vector<Weight> dist;
  std::uint32_t k_used = 0;        ///< final (converged) hop budget
  std::uint32_t rounds_total = 0;  ///< rounds summed over all attempts
  Time total_time = 0;             ///< SNN steps summed over all attempts
  std::size_t neurons = 0;         ///< of the final network
};
SsspPolyResult sssp_poly_adaptive(const Graph& g, VertexId source,
                                  const KHopPolyOptions& base = {});

}  // namespace sga::nga
