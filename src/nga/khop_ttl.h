// Gate-level compilation of the pseudopolynomial k-hop SSSP algorithm
// (Section 4.1).
//
// Messages are ⌈log k⌉-bit time-to-live (TTL) values. The source emits
// TTL = k-1; every arrival of TTL k' at a node certifies a source→node walk
// of (scaled) length equal to the arrival time using k - k' edges. Each node
// circuit computes the MAX of the TTLs arriving simultaneously (Section 5
// circuits), subtracts one (two's-complement add of all-ones), and
// rebroadcasts iff the max was ≥ 1.
//
// Timing: all graph edge lengths are scaled by S so that the node circuit's
// depth D fits inside the shortest edge (the paper's "scale all graph edges
// so that the minimum edge length is at least ⌈log k⌉"); the synapse for
// edge e then gets delay S·ℓ(e) − D, making the node-output→node-output
// latency along e exactly S·ℓ(e). Because the node circuits are levelled
// feed-forward τ=1 networks they are fully pipelined, so messages arriving
// at different times are processed independently — which is exactly the
// "node can propagate multiple times" behaviour the algorithm needs.
//
// Theorem 4.2: O((L+m) log k) time with O(1) data movement; O((nL+m) log k)
// with the crossbar embedding.
#pragma once

#include <optional>
#include <vector>

#include "circuits/max_circuits.h"
#include "core/types.h"
#include "graph/graph.h"
#include "snn/simulator.h"

namespace sga::nga {

struct KHopTtlOptions {
  VertexId source = 0;
  std::uint32_t k = 1;  ///< hop budget, ≥ 1
  /// If set, stop as soon as this vertex receives any message.
  std::optional<VertexId> target;
  /// Which Section-5 max circuit to instantiate at nodes (ablation knob).
  circuits::MaxKind max_kind = circuits::MaxKind::kWiredOr;
};

/// Per-vertex wiring of a compiled k-hop fabric: the neuron ids a serve
/// path needs to launch from (out_bits / out_valid at the source), stop at
/// (enable is the arrival relay, Definition 3's terminal), and read out of
/// (max_outputs carry the arrival TTL, max_depth steps after enable).
struct KHopNodePorts {
  NeuronId enable = kNoNeuron;
  NeuronId out_valid = kNoNeuron;
  std::vector<NeuronId> out_bits;
  std::vector<NeuronId> max_outputs;
  int max_depth = 0;
};

/// The compile-once artifact of the k-hop TTL pipeline: the frozen fabric
/// plus everything run_khop_ttl needs to serve queries against it. The
/// fabric depends on the graph, the TTL width λ = bits_for(k−1), and the
/// max-circuit kind — NOT on the source or the exact k — so one artifact
/// serves every source and every hop budget with the same λ (the
/// compile-once, serve-many contract of docs/SERVICE.md).
struct KHopTtlCompiled {
  snn::CompiledNetwork network;
  std::vector<KHopNodePorts> ports;  ///< one per input-graph vertex
  int lambda = 0;                    ///< TTL message width ⌈log k⌉
  Weight scale = 1;                  ///< edge-length scaling factor S
  int node_depth = 0;                ///< D: node input → node output steps
  Weight max_edge_length = 1;        ///< U of the source graph (horizon)

  std::size_t num_vertices() const { return ports.size(); }
  /// Whether this artifact can serve hop budget k (same TTL width).
  bool serves(std::uint32_t k) const;
};

/// Per-query parameters of a serve-many run over a KHopTtlCompiled.
struct KHopTtlRunOptions {
  VertexId source = 0;
  std::uint32_t k = 1;  ///< hop budget; must satisfy compiled.serves(k)
  std::optional<VertexId> target;
};

struct KHopTtlResult {
  /// dist[v] = dist_k(v), in ORIGINAL (unscaled) edge lengths.
  std::vector<Weight> dist;
  /// hops[v]: edges on the fewest-hop path achieving dist_k(v), decoded
  /// from the TTL of the first arrival (arrival TTL τ ⇒ k − τ edges used;
  /// simultaneous arrivals are MAXed, so this is the minimum hop count
  /// among shortest ≤k-hop paths). 0 at the source and unreached vertices.
  std::vector<std::uint32_t> hops;
  Time execution_time = 0;   ///< SNN steps until termination
  Weight scale = 1;          ///< S: the log-k-ish edge-length scaling factor
  int node_depth = 0;        ///< D: steps from node input to node output
  int lambda = 0;            ///< TTL message width ⌈log k⌉
  std::size_t neurons = 0;
  std::size_t synapses = 0;
  snn::SimStats sim;

  bool reachable(VertexId v) const { return dist[v] < kInfiniteDistance; }
};

/// Compile the k-hop TTL fabric for `g` once (node circuits, graph wiring,
/// freeze). Requires at least one edge and k ≥ 1. The artifact is immutable
/// and can back any number of concurrent simulators.
KHopTtlCompiled compile_khop_ttl(const Graph& g, std::uint32_t k,
                                 circuits::MaxKind max_kind);

/// Serve one query from a compiled fabric on a caller-provided simulator.
/// `sim` must be constructed over `compiled.network` and be in its
/// just-constructed (or freshly reset()) state — the service worker pool
/// epoch-resets one simulator per artifact across requests.
KHopTtlResult run_khop_ttl(const KHopTtlCompiled& compiled,
                           snn::Simulator& sim, const KHopTtlRunOptions& opt);

/// Run the gate-level k-hop TTL algorithm. Requires at least one edge and a
/// valid source; self-loops are permitted (a TTL message over a self-loop
/// just decrements and returns). One-shot convenience over
/// compile_khop_ttl + run_khop_ttl.
KHopTtlResult khop_sssp_ttl(const Graph& g, const KHopTtlOptions& opt);

}  // namespace sga::nga
