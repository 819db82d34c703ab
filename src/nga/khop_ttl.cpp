#include "nga/khop_ttl.h"

#include <algorithm>

#include "circuits/arith.h"
#include "circuits/builder.h"
#include "core/bitops.h"
#include "core/error.h"
#include "snn/network.h"
#include "snn/probe.h"

namespace sga::nga {

namespace {

/// Everything we need to wire one vertex's node circuit into the graph
/// fabric. Absolute timing within a presentation: the max circuit's inputs
/// (and enable) fire at offset 0, out_bits / out_valid at offset D.
struct VertexCircuit {
  circuits::MaxCircuit max;         // TTL max over in-edges
  std::vector<NeuronId> out_bits;   // decremented TTL, gated by nonzero
  NeuronId out_valid = kNoNeuron;   // fires iff max TTL was ≥ 1
  std::vector<std::size_t> bus_of_in_edge;  // in-edge index -> max bus slot
};

VertexCircuit build_vertex_circuit(snn::Network& net, const Graph& g,
                                   VertexId v, int lambda,
                                   circuits::MaxKind kind, int* depth_out) {
  VertexCircuit vc;
  const auto in_edges = g.in_edges(v);
  const int d = std::max<int>(1, static_cast<int>(in_edges.size()));

  circuits::CircuitBuilder cb(net);
  vc.max = circuits::build_max(cb, d, lambda, kind);
  vc.bus_of_in_edge.resize(in_edges.size());
  for (std::size_t i = 0; i < in_edges.size(); ++i) vc.bus_of_in_edge[i] = i;

  const int d_max = vc.max.depth;

  // nonzero (fires iff max TTL ≥ 1), one level after the max outputs.
  const NeuronId nonzero = net.add_neuron(snn::NeuronParams{0, 1, 1.0});
  for (const NeuronId bit : vc.max.outputs) {
    net.add_synapse(bit, nonzero, 1, 1);
  }

  // Decrement circuit, fed from the max outputs (inputs fire at d_max + 1).
  const circuits::AddConstCircuit dec = circuits::build_decrement(cb, lambda);
  for (int j = 0; j < lambda; ++j) {
    net.add_synapse(vc.max.outputs[static_cast<std::size_t>(j)],
                    dec.a[static_cast<std::size_t>(j)], 1, 1);
  }
  // The decrement's constant line must fire with its inputs.
  net.add_synapse(vc.max.enable, dec.enable, 1, d_max + 1);

  // Output: decremented TTL gated by nonzero, plus the rebroadcast flag.
  // Both land at offset D = d_max + 1 + dec.depth + 1.
  const int out_level = d_max + 1 + dec.depth + 1;
  for (int j = 0; j < lambda; ++j) {
    const NeuronId bit = net.add_neuron(snn::NeuronParams{0, 2, 1.0});
    net.add_synapse(dec.sum[static_cast<std::size_t>(j)], bit, 1, 1);
    net.add_synapse(nonzero, bit, 1, out_level - (d_max + 1));
    vc.out_bits.push_back(bit);
  }
  vc.out_valid = net.add_neuron(snn::NeuronParams{0, 1, 1.0});
  net.add_synapse(nonzero, vc.out_valid, 1, out_level - (d_max + 1));

  *depth_out = out_level;
  return vc;
}

}  // namespace

bool KHopTtlCompiled::serves(std::uint32_t k) const {
  return k >= 1 && bits_for(k - 1) == lambda;
}

KHopTtlCompiled compile_khop_ttl(const Graph& g, std::uint32_t k,
                                 circuits::MaxKind max_kind) {
  SGA_REQUIRE(k >= 1, "compile_khop_ttl: k must be >= 1");
  SGA_REQUIRE(g.num_edges() >= 1, "compile_khop_ttl: graph has no edges");

  KHopTtlCompiled c;
  c.lambda = bits_for(k - 1);

  // Build one node circuit per vertex; they all share the same depth D
  // because the circuit shape depends only on (indegree, λ), and λ is
  // global — but indegree varies, so measure per vertex and take the max,
  // then pad every vertex's OUTPUT timing to that common D.
  //
  // Simpler and exact: depth only depends on λ for both max constructions
  // EXCEPT the wired-OR's elimination stages, which also depend only on λ.
  // (Fan-in d changes width, not depth.) So all vertices share D naturally;
  // we assert this below.
  snn::Network net;
  std::vector<VertexCircuit> circuits_by_vertex;
  circuits_by_vertex.reserve(g.num_vertices());
  int depth = -1;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    int d = 0;
    circuits_by_vertex.push_back(
        build_vertex_circuit(net, g, v, c.lambda, max_kind, &d));
    if (depth < 0) depth = d;
    SGA_CHECK(d == depth, "node circuit depth must be uniform: vertex "
                              << v << " has depth " << d << " vs " << depth);
  }
  c.node_depth = depth;

  // Scale: shortest edge must cover the node depth plus one step of synapse.
  const Weight lmin = g.min_edge_length();
  c.scale = std::max<Weight>(
      1, (static_cast<Weight>(depth) + 1 + lmin - 1) / lmin);

  // Graph fabric: node outputs -> successor node inputs.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& from = circuits_by_vertex[v];
    for (const EdgeId eid : g.out_edges(v)) {
      const Edge& e = g.edge(eid);
      const auto& to = circuits_by_vertex[e.to];
      // Find this edge's bus slot at the target.
      const auto in_list = g.in_edges(e.to);
      std::size_t slot = in_list.size();
      for (std::size_t i = 0; i < in_list.size(); ++i) {
        if (in_list[i] == eid) {
          slot = to.bus_of_in_edge[i];
          break;
        }
      }
      SGA_CHECK(slot < in_list.size(), "edge " << eid << " missing from "
                                               << e.to << "'s in-list");
      const Delay d_e = c.scale * e.length - depth;
      SGA_CHECK(d_e >= 1, "edge delay underflow");
      for (int j = 0; j < c.lambda; ++j) {
        net.add_synapse(from.out_bits[static_cast<std::size_t>(j)],
                        to.max.inputs[slot][static_cast<std::size_t>(j)], 1,
                        d_e);
      }
      net.add_synapse(from.out_valid, to.max.enable, 1, d_e);
    }
  }

  // Freeze, and keep only the per-vertex port ids the serve path needs —
  // the full VertexCircuit (bus maps, internal gate ids) dies with the
  // builder.
  c.network = net.compile();
  c.max_edge_length = g.max_edge_length();
  c.ports.reserve(g.num_vertices());
  for (const VertexCircuit& vc : circuits_by_vertex) {
    KHopNodePorts p;
    p.enable = vc.max.enable;
    p.out_valid = vc.out_valid;
    p.out_bits = vc.out_bits;
    p.max_outputs = vc.max.outputs;
    p.max_depth = vc.max.depth;
    c.ports.push_back(std::move(p));
  }
  return c;
}

KHopTtlResult run_khop_ttl(const KHopTtlCompiled& c, snn::Simulator& sim,
                           const KHopTtlRunOptions& opt) {
  const std::size_t n = c.num_vertices();
  SGA_REQUIRE(&sim.network() == &c.network,
              "run_khop_ttl: simulator is not bound to this artifact");
  SGA_REQUIRE(opt.source < n, "run_khop_ttl: bad source");
  SGA_REQUIRE(!opt.target || *opt.target < n, "run_khop_ttl: bad target");
  SGA_REQUIRE(c.serves(opt.k), "run_khop_ttl: hop budget "
                                   << opt.k << " needs TTL width "
                                   << bits_for(opt.k == 0 ? 0 : opt.k - 1)
                                   << ", artifact was compiled for λ = "
                                   << c.lambda);

  KHopTtlResult r;
  r.lambda = c.lambda;
  r.scale = c.scale;
  r.node_depth = c.node_depth;

  // Launch: the source's node output emits TTL k-1 at time 0.
  snn::inject_binary(sim, c.ports[opt.source].out_bits, opt.k - 1, 0);
  sim.inject_spike(c.ports[opt.source].out_valid, 0);

  snn::SimConfig cfg;
  // Any ≤k-hop walk has scaled length ≤ S·k·U; allow the final node circuit
  // to finish.
  cfg.max_time = c.scale * static_cast<Time>(opt.k) *
                     std::max<Weight>(1, c.max_edge_length) +
                 c.node_depth + 1;
  if (opt.target) {
    cfg.terminal_neurons = {c.ports[*opt.target].enable};
  }
  // Watch the per-vertex MAX outputs: the first presentation's decoded
  // value is the max TTL of the first (shortest) arrival, giving hop counts.
  cfg.record_spike_log = true;
  for (const KHopNodePorts& p : c.ports) {
    for (const NeuronId bit : p.max_outputs) {
      cfg.watched_neurons.push_back(bit);
    }
  }
  r.sim = sim.run(cfg);
  r.neurons = c.network.num_neurons();
  r.synapses = c.network.num_synapses();

  // Readout: a vertex's enable relay fires at S·dist − D on first arrival;
  // its max outputs fire Dmax steps later carrying the arrival's max TTL.
  r.dist.assign(n, kInfiniteDistance);
  r.hops.assign(n, 0);
  r.dist[opt.source] = 0;
  Time last = 0;
  std::vector<Time> first_output_time(n, kNever);
  for (VertexId v = 0; v < n; ++v) {
    if (v == opt.source) continue;
    const Time t = sim.first_spike(c.ports[v].enable);
    if (t == kNever) continue;
    const Time scaled = t + c.node_depth;
    SGA_CHECK(scaled % c.scale == 0,
              "arrival time " << t << " at vertex " << v
                              << " is not aligned to scale " << c.scale);
    r.dist[v] = scaled / c.scale;
    last = std::max(last, t);
    first_output_time[v] = t + c.ports[v].max_depth;
  }
  // Decode the first presentation's TTL per vertex: the watched max-output
  // bits firing at exactly first_output_time[v]. decode_binary_window's
  // point window resolves multi-firing bits from the spike log (the bits
  // fire once per arrival, and vertices can receive many arrivals).
  for (VertexId v = 0; v < n; ++v) {
    if (v == opt.source || r.dist[v] >= kInfiniteDistance) continue;
    // Arrival TTL τ ⇒ the path used k − τ edges. In target mode the run
    // may stop before the target's max outputs appear; leave hops 0 then.
    if (first_output_time[v] <= r.sim.end_time) {
      const std::uint64_t ttl = snn::decode_binary_window(
          sim, c.ports[v].max_outputs, first_output_time[v],
          first_output_time[v]);
      r.hops[v] = opt.k - static_cast<std::uint32_t>(ttl);
    }
  }
  r.execution_time =
      opt.target && r.sim.hit_terminal ? r.sim.execution_time : last;
  return r;
}

KHopTtlResult khop_sssp_ttl(const Graph& g, const KHopTtlOptions& opt) {
  SGA_REQUIRE(opt.source < g.num_vertices(), "khop_sssp_ttl: bad source");
  SGA_REQUIRE(!opt.target || *opt.target < g.num_vertices(),
              "khop_sssp_ttl: bad target");
  SGA_REQUIRE(opt.k >= 1, "khop_sssp_ttl: k must be >= 1");
  SGA_REQUIRE(g.num_edges() >= 1, "khop_sssp_ttl: graph has no edges");

  const KHopTtlCompiled compiled = compile_khop_ttl(g, opt.k, opt.max_kind);
  snn::Simulator sim(compiled.network);
  KHopTtlRunOptions ropt;
  ropt.source = opt.source;
  ropt.k = opt.k;
  ropt.target = opt.target;
  return run_khop_ttl(compiled, sim, ropt);
}

}  // namespace sga::nga
