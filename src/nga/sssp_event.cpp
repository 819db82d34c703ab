#include "nga/sssp_event.h"

#include <algorithm>

#include "core/error.h"
#include "snn/parallel_sim.h"

namespace sga::nga {

snn::Network build_sssp_network(const Graph& g) {
  snn::Network net;
  // One relay per vertex: threshold 1, no decay (an arriving unit spike
  // fires it immediately; inhibition must persist, so τ = 0).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  }
  // Edge synapses: unit weight, delay = edge length.
  for (const auto& e : g.edges()) {
    net.add_synapse(e.from, e.to, 1, e.length);
  }
  // Fire-once: each relay inhibits itself with a weight exceeding the total
  // excitation it can ever receive afterwards (each in-neighbour fires at
  // most once, so in-degree bounds future input). Pure Definition-2 LIF —
  // no special refractory mechanism needed.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto guard = static_cast<SynWeight>(g.in_degree(v) + 1);
    net.add_synapse(v, v, -guard, 1);
  }
  return net;
}

snn::CompiledNetwork compile_sssp_streamed(
    std::size_t num_vertices,
    const std::function<void(const EdgeStream&)>& edges,
    snn::StoragePolicy policy, snn::StreamBuildStats* build_stats) {
  SGA_REQUIRE(num_vertices >= 1, "compile_sssp_streamed: need n >= 1");
  const std::size_t n = num_vertices;
  // In-degree prepass: the fire-once inhibition weight must exceed the
  // total excitation a relay can ever receive, which is its in-degree
  // (each in-neighbour fires at most once).
  std::vector<std::uint32_t> indeg(n, 0);
  edges([&](VertexId from, VertexId to, Weight length) {
    SGA_REQUIRE(from < n && to < n, "compile_sssp_streamed: edge ("
                                        << from << " -> " << to
                                        << ") endpoint out of range for n = "
                                        << n);
    SGA_REQUIRE(length >= kMinDelay, "compile_sssp_streamed: edge ("
                                         << from << " -> " << to
                                         << ") has length " << length
                                         << " below minimum δ = " << kMinDelay);
    ++indeg[to];
  });
  // Relay parameters and synapse order match build_sssp_network exactly
  // (edge synapses in stream order, then the per-vertex self-inhibition),
  // so the streamed freeze is event-for-event identical to the builder.
  return snn::CompiledNetwork::compile_streamed(
      n, [](NeuronId) { return snn::NeuronParams{0, 1, 0.0}; },
      [&](const snn::SynapseSink& sink) {
        edges([&](VertexId from, VertexId to, Weight length) {
          sink(from, to, 1, length);
        });
        for (NeuronId v = 0; v < n; ++v) {
          sink(v, v, -static_cast<SynWeight>(indeg[v] + 1), 1);
        }
      },
      policy, build_stats);
}

SpikingSsspResult spiking_sssp(const Graph& g, const SpikingSsspOptions& opt) {
  SGA_REQUIRE(opt.source < g.num_vertices(), "spiking_sssp: bad source");
  SGA_REQUIRE(!opt.target || *opt.target < g.num_vertices(),
              "spiking_sssp: bad target");
  SGA_REQUIRE(!opt.target || opt.targets.empty(),
              "spiking_sssp: use either target or targets, not both");
  for (const VertexId t : opt.targets) {
    SGA_REQUIRE(t < g.num_vertices(), "spiking_sssp: bad target " << t);
  }

  // build → freeze → simulate: mutation ends here.
  const snn::CompiledNetwork net = build_sssp_network(g).compile(opt.storage);
  snn::Simulator sim(net);
  sim.inject_spike(opt.source, 0);

  snn::SimConfig cfg;
  cfg.max_time = opt.max_time;
  cfg.record_causes = opt.record_parents;
  if (opt.target) {
    cfg.terminal_neurons = {*opt.target};
  } else if (!opt.targets.empty()) {
    cfg.terminal_neurons = opt.targets;
    cfg.terminate_on_all = true;
  }

  SpikingSsspResult r;
  r.sim = sim.run(cfg);
  r.neurons = net.num_neurons();
  r.synapses = net.num_synapses();

  const Time last =
      read_sssp_solution(sim, g, opt.source, opt.record_parents, r.dist,
                         r.parent);
  const bool terminal_mode = opt.target.has_value() || !opt.targets.empty();
  r.execution_time =
      terminal_mode && r.sim.hit_terminal ? r.sim.execution_time : last;
  return r;
}

namespace {

// Shared read-out over any engine exposing first_spike / first_spike_cause
// (the serial Simulator and the sharded ParallelSimulator agree
// event-for-event, so so does this extraction).
template <typename Sim>
Time read_solution_impl(const Sim& sim, const Graph& g, VertexId source,
                        bool record_parents, std::vector<Weight>& dist,
                        std::vector<VertexId>& parent) {
  dist.assign(g.num_vertices(), kInfiniteDistance);
  parent.assign(g.num_vertices(), kNoVertex);
  Time last = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Time t = sim.first_spike(v);
    if (t == kNever) continue;
    dist[v] = static_cast<Weight>(t);  // first-spike time IS the distance
    last = std::max(last, t);
    if (record_parents && v != source) {
      parent[v] = static_cast<VertexId>(sim.first_spike_cause(v));
    }
  }
  return last;
}

}  // namespace

Time read_sssp_solution(const snn::Simulator& sim, const Graph& g,
                        VertexId source, bool record_parents,
                        std::vector<Weight>& dist,
                        std::vector<VertexId>& parent) {
  return read_solution_impl(sim, g, source, record_parents, dist, parent);
}

Time read_sssp_solution(const snn::ParallelSimulator& sim, const Graph& g,
                        VertexId source, bool record_parents,
                        std::vector<Weight>& dist,
                        std::vector<VertexId>& parent) {
  return read_solution_impl(sim, g, source, record_parents, dist, parent);
}

}  // namespace sga::nga
