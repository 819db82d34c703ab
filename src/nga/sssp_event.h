// The pseudopolynomial spiking SSSP algorithm of Section 3 (Aibara et al.
// 1991 / Aimone et al. 2019): one relay neuron per graph vertex, synapse
// delay = edge length; the first spike to reach a vertex arrives exactly at
// its shortest-path distance, so spike timing plays the role of Dijkstra's
// priority queue. Each neuron propagates only its first incoming spike
// (a pure-LIF construction: after firing, a strong self-inhibitory synapse
// keeps the relay below threshold forever).
//
// Theorem 4.1: runs in O(L + m) time with O(1)-time data movement (L = the
// distance of interest, m = graph loading), and O(nL + m) on the crossbar.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/types.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "snn/network.h"
#include "snn/simulator.h"

namespace sga::snn {
class ParallelSimulator;
}  // namespace sga::snn

namespace sga::nga {

struct SpikingSsspOptions {
  VertexId source = 0;
  /// If set, terminate when this vertex's neuron first spikes (Definition
  /// 3's terminal neuron); otherwise run until every reachable vertex has
  /// spiked (all-destinations mode).
  std::optional<VertexId> target;
  /// Multi-destination mode (Table 1's caption: "our algorithms can easily
  /// be generalized to multiple destinations"): terminate once EVERY listed
  /// vertex has spiked. Mutually exclusive with `target`.
  std::vector<VertexId> targets;
  /// Record shortest-path predecessors (Section 3's "remember a neighbor
  /// that sends the first spike"; we extract it from the simulator's
  /// first-spike-cause probe).
  bool record_parents = true;
  /// Safety horizon; kNever = none (the network quiesces on its own).
  Time max_time = kNever;
  /// Freeze-time storage policy (ARCHITECTURE.md §1.8): kAuto narrows the
  /// CSR to the observed ranges; kWide keeps the full-width oracle layout.
  /// Drivers that re-freeze per phase on small graphs (max-flow) pin kWide
  /// — see DESIGN.md.
  snn::StoragePolicy storage = snn::StoragePolicy::kAuto;
};

struct SpikingSsspResult {
  std::vector<Weight> dist;      ///< kInfiniteDistance where unreached
  std::vector<VertexId> parent;  ///< kNoVertex at source / unreached
  /// Execution time T (Definition 3): the first spike time of the terminal
  /// (target mode) or the last first-spike time (all-destinations mode).
  Time execution_time = 0;
  snn::SimStats sim;
  std::size_t neurons = 0;
  std::size_t synapses = 0;

  bool reachable(VertexId v) const { return dist[v] < kInfiniteDistance; }
};

/// Build the Section-3 network for g (one relay per vertex, fire-once
/// inhibition, delay = edge length). Exposed for tests, the crossbar
/// embedding, and the approximation algorithm (which re-runs it with scaled
/// lengths and an early deadline). Neuron ids equal vertex ids.
snn::Network build_sssp_network(const Graph& g);

/// Streamed counterpart of build_sssp_network(g).compile(): freeze the
/// Section-3 SSSP fabric for an n-vertex graph delivered as an edge stream
/// (graph/generators.h stream_* emitters, or any deterministic callback),
/// without materializing either the Graph or the nested-vector Network.
/// `edges` is invoked three times — an in-degree prepass that sizes the
/// fire-once inhibition, then compile_streamed's two counting-sort passes —
/// and must replay the identical edge sequence each time. Synapse layout
/// matches the builder path exactly (edge synapses in stream order, then
/// one self-inhibition per vertex), so the frozen network is
/// event-for-event identical to build_sssp_network on the same edges.
snn::CompiledNetwork compile_sssp_streamed(
    std::size_t num_vertices,
    const std::function<void(const EdgeStream&)>& edges,
    snn::StoragePolicy policy = snn::StoragePolicy::kAuto,
    snn::StreamBuildStats* build_stats = nullptr);

/// Run the spiking SSSP algorithm.
SpikingSsspResult spiking_sssp(const Graph& g, const SpikingSsspOptions& opt);

/// Read distances (first-spike time IS the distance) and optionally
/// shortest-path parents out of a simulator that ran a build_sssp_network
/// instance. Shared by spiking_sssp and the batched multi-source driver
/// (sssp_batch.h). Returns the latest first-spike time among reached
/// vertices (the all-destinations execution time).
Time read_sssp_solution(const snn::Simulator& sim, const Graph& g,
                        VertexId source, bool record_parents,
                        std::vector<Weight>& dist,
                        std::vector<VertexId>& parent);

/// Same read-out against the sharded conservative-parallel engine
/// (snn/parallel_sim.h) — the batch driver's shard-parallelism mode.
Time read_sssp_solution(const snn::ParallelSimulator& sim, const Graph& g,
                        VertexId source, bool record_parents,
                        std::vector<Weight>& dist,
                        std::vector<VertexId>& parent);

}  // namespace sga::nga
