#include "nga/path_readout.h"

#include <algorithm>

#include "core/bitops.h"
#include "core/error.h"
#include "nga/sssp_event.h"
#include "snn/network.h"

namespace sga::nga {

SpikingSsspPathResult spiking_sssp_with_paths(
    const Graph& g, const SpikingSsspPathOptions& opt) {
  const std::size_t n = g.num_vertices();
  SGA_REQUIRE(opt.source < n, "spiking_sssp_with_paths: bad source");

  // Base Section-3 relay network (neuron id == vertex id).
  snn::Network net = build_sssp_network(g);

  // Capture flags, one per edge: fires iff the edge's spike arrives exactly
  // one step after the target's (unique) first fire.
  std::vector<NeuronId> flag_of_edge(g.num_edges());
  for (EdgeId eid = 0; eid < g.num_edges(); ++eid) {
    const Edge& e = g.edge(eid);
    const NeuronId flag = net.add_neuron(snn::NeuronParams{0, 2, 1.0});
    net.add_synapse(e.from, flag, 1, e.length + 1);  // the data spike, echoed
    net.add_synapse(e.to, flag, 1, 1);               // the capture strobe
    flag_of_edge[eid] = flag;
  }

  // ID latch banks: flags write their source's hard-wired binary ID.
  const int id_bits = bits_for(n > 1 ? n - 1 : 1);
  std::vector<std::vector<NeuronId>> bank(n);
  if (opt.build_id_latches) {
    for (VertexId v = 0; v < n; ++v) {
      for (int b = 0; b < id_bits; ++b) {
        const NeuronId latch = net.add_neuron(snn::NeuronParams{0, 1, 0.0});
        net.add_synapse(latch, latch, 1, 1);  // Figure 1(B) self-loop
        bank[v].push_back(latch);
      }
    }
    for (EdgeId eid = 0; eid < g.num_edges(); ++eid) {
      const Edge& e = g.edge(eid);
      for (int b = 0; b < id_bits; ++b) {
        if (bit_of(e.from, b)) {
          net.add_synapse(flag_of_edge[eid], bank[e.to][static_cast<std::size_t>(b)],
                          1, 1);
        }
      }
    }
  }

  const snn::CompiledNetwork compiled = net.compile();
  snn::Simulator sim(compiled);
  sim.inject_spike(opt.source, 0);
  snn::SimConfig cfg;
  cfg.max_time = opt.max_time != kNever
                     ? opt.max_time
                     : static_cast<Time>(n > 0 ? n - 1 : 0) *
                               std::max<Weight>(1, g.max_edge_length()) +
                           3;

  SpikingSsspPathResult r;
  r.sim = sim.run(cfg);
  r.neurons = net.num_neurons();
  r.synapses = net.num_synapses();

  r.dist.assign(n, kInfiniteDistance);
  r.parent.assign(n, kNoVertex);
  r.latched_id.assign(n, 0);
  r.latched_valid.assign(n, 0);
  Time last = 0;
  for (VertexId v = 0; v < n; ++v) {
    const Time t = sim.first_spike(v);
    if (t == kNever) continue;
    r.dist[v] = static_cast<Weight>(t);
    last = std::max(last, t);
  }
  r.execution_time = last;

  // Decode parents from the flags (lowest flagged in-edge wins ties).
  for (VertexId v = 0; v < n; ++v) {
    if (v == opt.source || !r.reachable(v)) continue;
    for (const EdgeId eid : g.in_edges(v)) {
      if (sim.first_spike(flag_of_edge[eid]) != kNever) {
        r.parent[v] = g.edge(eid).from;
        break;
      }
    }
    SGA_CHECK(r.parent[v] != kNoVertex,
              "reachable vertex " << v << " captured no predecessor flag");
  }

  // Decode the latch banks.
  if (opt.build_id_latches) {
    for (VertexId v = 0; v < n; ++v) {
      std::uint64_t id = 0;
      bool any = false;
      for (int b = 0; b < id_bits; ++b) {
        if (sim.first_spike(bank[v][static_cast<std::size_t>(b)]) != kNever) {
          id |= 1ULL << b;
          any = true;
        }
      }
      r.latched_id[v] = id;
      // A bank is "written" iff the vertex captured some flag; an all-zero
      // ID (source as predecessor) writes no latch bits, so derive validity
      // from the decoded parent instead.
      r.latched_valid[v] = any || r.parent[v] != kNoVertex;
    }
  }
  return r;
}

}  // namespace sga::nga
