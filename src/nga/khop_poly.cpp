#include "nga/khop_poly.h"

#include <algorithm>
#include <unordered_map>

#include "circuits/arith.h"
#include "circuits/builder.h"
#include "circuits/encoder.h"
#include "circuits/storage.h"
#include "core/bitops.h"
#include "core/error.h"
#include "snn/network.h"
#include "snn/probe.h"

namespace sga::nga {

namespace {

struct VertexNode {
  circuits::MaxCircuit max;        // complement-domain MAX == distance MIN
  NeuronId out_valid = kNoNeuron;  // fires with the outputs when a message
                                   // arrived this round
};

}  // namespace

KHopPolyResult khop_sssp_poly(const Graph& g, const KHopPolyOptions& opt) {
  SGA_REQUIRE(opt.source < g.num_vertices(), "khop_sssp_poly: bad source");
  SGA_REQUIRE(!opt.target || *opt.target < g.num_vertices(),
              "khop_sssp_poly: bad target");
  SGA_REQUIRE(opt.k >= 1, "khop_sssp_poly: k must be >= 1");
  SGA_REQUIRE(g.num_edges() >= 1, "khop_sssp_poly: graph has no edges");

  KHopPolyResult r;
  const Weight u_max = g.max_edge_length();
  // Width: messages reach (k+1)·U transiently (a round-k value plus one edge
  // in flight); +1 keeps the complement of every real message ≥ 1 so it is
  // never mistaken for "absent".
  const std::uint64_t cap =
      (static_cast<std::uint64_t>(opt.k) + 1) * static_cast<std::uint64_t>(u_max) +
      1;
  r.lambda = bits_for(cap);
  SGA_REQUIRE(r.lambda <= 40, "khop_sssp_poly: k·U too large (" << cap << ")");
  const std::uint64_t kComplementMask = mask_bits(r.lambda);

  snn::Network net;
  std::vector<VertexNode> nodes;
  nodes.reserve(g.num_vertices());
  int node_depth = -1;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    VertexNode vn;
    circuits::CircuitBuilder cb(net);
    const int d = std::max<int>(1, static_cast<int>(g.in_degree(v)));
    vn.max = circuits::build_max(cb, d, r.lambda, opt.max_kind);
    if (node_depth < 0) node_depth = vn.max.depth;
    SGA_CHECK(vn.max.depth == node_depth, "node depth must be uniform");
    // out_valid: the arrival indicator, aligned with the outputs.
    vn.out_valid = net.add_neuron(snn::NeuronParams{0, 1, 1.0});
    net.add_synapse(vn.max.enable, vn.out_valid, 1, node_depth);
    nodes.push_back(std::move(vn));
  }

  // One edge circuit per graph edge: add the two's complement of ℓ(e) to
  // the complemented distance. All edge circuits share one depth.
  int edge_depth = -1;
  std::vector<circuits::AddConstCircuit> edge_circuits;
  edge_circuits.reserve(g.num_edges());
  for (EdgeId eid = 0; eid < g.num_edges(); ++eid) {
    const Edge& e = g.edge(eid);
    circuits::CircuitBuilder cb(net);
    const std::uint64_t constant =
        (~static_cast<std::uint64_t>(e.length) + 1) & kComplementMask;
    edge_circuits.push_back(
        circuits::build_add_constant(cb, r.lambda, constant));
    if (edge_depth < 0) edge_depth = edge_circuits.back().depth;
    SGA_CHECK(edge_circuits.back().depth == edge_depth,
              "edge depth must be uniform");
  }

  // Round period x: node (Dn) -> 1 -> edge (De) -> 1 -> next node.
  const Time x = node_depth + 1 + edge_depth + 1;
  r.round_period = x;

  // Wire the fabric.
  for (EdgeId eid = 0; eid < g.num_edges(); ++eid) {
    const Edge& e = g.edge(eid);
    const auto& from = nodes[e.from];
    const auto& ec = edge_circuits[eid];
    // Node outputs (offset Dn in the round) feed the edge circuit.
    for (int j = 0; j < r.lambda; ++j) {
      net.add_synapse(from.max.outputs[static_cast<std::size_t>(j)],
                      ec.a[static_cast<std::size_t>(j)], 1, 1);
    }
    // The constant line fires only when the node actually broadcast — this
    // is what keeps silent edges silent.
    net.add_synapse(from.out_valid, ec.enable, 1, 1);

    // Edge outputs (offset Dn + 1 + De) feed the successor's bus slot.
    const auto in_list = g.in_edges(e.to);
    std::size_t slot = in_list.size();
    for (std::size_t i = 0; i < in_list.size(); ++i) {
      if (in_list[i] == eid) {
        slot = i;
        break;
      }
    }
    SGA_CHECK(slot < in_list.size(), "edge missing from in-list");
    const auto& to = nodes[e.to];
    for (int j = 0; j < r.lambda; ++j) {
      net.add_synapse(ec.sum[static_cast<std::size_t>(j)],
                      to.max.inputs[slot][static_cast<std::size_t>(j)], 1, 1);
    }
    // Arrival indicator: the sender's valid, after the edge latency.
    net.add_synapse(from.out_valid, to.max.enable, 1,
                    x - static_cast<Time>(node_depth));
  }

  // Section 4.3's in-network path memory: per vertex, encode the winner
  // slot each round and latch it into a clock-strobed bank (one bank per
  // round — the O(k) neuron factor). Winners fire 2 steps before the round
  // boundary r·x; the encoder adds 2 (inputs + index), the store bus 1, so
  // bank b (0-based) is strobed at (b+1)·x + 1.
  struct ParentMemory {
    circuits::EncoderCircuit encoder;
    circuits::RoundStore store;
    int slot_bits = 0;
  };
  std::vector<ParentMemory> memory;
  std::vector<int> memory_of_vertex(g.num_vertices(), -1);
  if (opt.in_network_parent_memory) {
    const Time winner_lead_build =
        static_cast<Time>(node_depth - nodes.front().max.winner_level);
    SGA_CHECK(winner_lead_build == 2, "memory wiring assumes winner lead 2");
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto in_list = g.in_edges(v);
      if (in_list.empty()) continue;
      circuits::CircuitBuilder cb(net);
      ParentMemory pm;
      pm.encoder = circuits::build_encoder(cb, static_cast<int>(in_list.size()));
      pm.slot_bits = static_cast<int>(pm.encoder.index.size());
      for (std::size_t slot = 0; slot < in_list.size(); ++slot) {
        net.add_synapse(nodes[v].max.winners[slot], pm.encoder.inputs[slot], 1,
                        1);
      }
      // Bus = slot index bits + a validity bit (slot 0 is all-zero bits).
      pm.store = circuits::build_round_store(net, pm.slot_bits + 1, x,
                                             static_cast<int>(opt.k));
      for (int b = 0; b < pm.slot_bits; ++b) {
        net.add_synapse(pm.encoder.index[static_cast<std::size_t>(b)],
                        pm.store.bus[static_cast<std::size_t>(b)], 1, 1);
      }
      net.add_synapse(pm.encoder.any,
                      pm.store.bus[static_cast<std::size_t>(pm.slot_bits)], 1,
                      1);
      memory_of_vertex[v] = static_cast<int>(memory.size());
      memory.push_back(std::move(pm));
    }
  }

  // Freeze the compiled fabric, then launch: the source broadcasts
  // distance 0 (complement = all ones).
  const snn::CompiledNetwork compiled = net.compile();
  snn::Simulator sim(compiled);
  snn::inject_binary(sim, nodes[opt.source].max.outputs, kComplementMask, 0);
  sim.inject_spike(nodes[opt.source].out_valid, 0);
  for (const auto& pm : memory) {
    sim.inject_spike(pm.store.clock_start, x + 1);
  }

  snn::SimConfig cfg;
  // Round k's node outputs land at exactly k·x; with the in-network memory
  // the last bank's latch write needs 3 more steps.
  cfg.max_time = static_cast<Time>(opt.k) * x + (memory.empty() ? 0 : 3);
  cfg.record_spike_log = true;
  for (const auto& vn : nodes) {
    for (const NeuronId bit : vn.max.outputs) {
      cfg.watched_neurons.push_back(bit);
    }
    cfg.watched_neurons.push_back(vn.out_valid);
    for (const NeuronId w : vn.max.winners) {
      cfg.watched_neurons.push_back(w);
    }
  }
  if (opt.target) {
    // Stop at the end of the round in which the target first receives a
    // message (out_valid fires at r·x, together with the round's outputs,
    // so the final round is still decodable).
    cfg.terminal_neurons = {nodes[*opt.target].out_valid};
  }
  r.sim = sim.run(cfg);
  r.neurons = net.num_neurons();
  r.synapses = net.num_synapses();

  // Decode rounds from the watched-spike log. Node outputs of round r fire
  // at time r·x (the injected round 0 fires at 0).
  std::unordered_map<NeuronId, std::pair<VertexId, int>> bit_index;
  std::unordered_map<NeuronId, VertexId> valid_index;
  // winner_index: winner neuron -> (vertex, source of the winning in-edge).
  std::unordered_map<NeuronId, std::pair<VertexId, VertexId>> winner_index;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int j = 0; j < r.lambda; ++j) {
      bit_index[nodes[v].max.outputs[static_cast<std::size_t>(j)]] = {v, j};
    }
    valid_index[nodes[v].out_valid] = v;
    const auto in_list = g.in_edges(v);
    for (std::size_t slot = 0; slot < in_list.size(); ++slot) {
      winner_index[nodes[v].max.winners[slot]] = {v, g.edge(in_list[slot]).from};
    }
  }
  // Winners fire `winner_lead` steps before the round's outputs.
  const Time winner_lead =
      static_cast<Time>(node_depth - nodes.front().max.winner_level);
  const std::uint64_t rounds_seen =
      static_cast<std::uint64_t>(r.sim.end_time / x);
  const std::uint64_t round_count = std::min<std::uint64_t>(opt.k, rounds_seen);
  r.per_round.assign(round_count + 1,
                     std::vector<Weight>(g.num_vertices(), kInfiniteDistance));
  std::vector<std::vector<std::uint64_t>> complements(
      round_count + 1, std::vector<std::uint64_t>(g.num_vertices(), 0));
  std::vector<std::vector<char>> valid(
      round_count + 1, std::vector<char>(g.num_vertices(), 0));
  r.parent_per_round.assign(round_count + 1,
                            std::vector<VertexId>(g.num_vertices(), kNoVertex));
  for (const auto& [t, id] : sim.spike_log()) {
    // Winner neurons fire winner_lead steps ahead of the round boundary.
    if ((t + winner_lead) % x == 0) {
      if (const auto wt = winner_index.find(id); wt != winner_index.end()) {
        const auto round = static_cast<std::uint64_t>((t + winner_lead) / x);
        if (round >= 1 && round <= round_count &&
            r.parent_per_round[round][wt->second.first] == kNoVertex) {
          // Ties: the wired-OR circuit marks every tied input; keep the
          // first (lowest neuron id ⇒ lowest bus slot seen in the log).
          r.parent_per_round[round][wt->second.first] = wt->second.second;
        }
      }
    }
    if (t % x != 0) continue;
    const auto round = static_cast<std::uint64_t>(t / x);
    if (round > round_count) continue;
    if (const auto it = bit_index.find(id); it != bit_index.end()) {
      complements[round][it->second.first] |= 1ULL << it->second.second;
    } else if (const auto vt = valid_index.find(id); vt != valid_index.end()) {
      valid[round][vt->second] = 1;
    }
  }
  for (std::uint64_t round = 0; round <= round_count; ++round) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!valid[round][v]) continue;
      const std::uint64_t c = complements[round][v];
      SGA_CHECK(c >= 1, "complement-encoded message decoded as zero");
      r.per_round[round][v] =
          static_cast<Weight>(kComplementMask - c);
    }
  }

  // dist_k = min over rounds (round 0 covers the source's 0).
  r.dist.assign(g.num_vertices(), kInfiniteDistance);
  for (const auto& round : r.per_round) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      r.dist[v] = std::min(r.dist[v], round[v]);
    }
  }
  // Decode the in-network parent memory banks.
  if (!memory.empty()) {
    r.memory_parent.assign(
        round_count + 1, std::vector<VertexId>(g.num_vertices(), kNoVertex));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (memory_of_vertex[v] < 0) continue;
      const auto& pm = memory[static_cast<std::size_t>(memory_of_vertex[v])];
      const auto in_list = g.in_edges(v);
      for (std::uint64_t round = 1; round <= round_count; ++round) {
        const std::uint64_t raw = circuits::read_latched(
            sim, pm.store.latches[static_cast<std::size_t>(round - 1)]);
        if (!((raw >> pm.slot_bits) & 1ULL)) continue;  // validity bit unset
        const std::uint64_t slot = raw & mask_bits(pm.slot_bits);
        if (slot < in_list.size()) {
          r.memory_parent[round][v] =
              g.edge(in_list[static_cast<std::size_t>(slot)]).from;
        }
        // slot >= indeg can only happen when tied winners OR'd their
        // indices; leave kNoVertex (the probe-based parent still applies).
      }
    }
  }
  r.execution_time = r.sim.hit_terminal
                         ? r.sim.execution_time
                         : std::min<Time>(r.sim.end_time,
                                          static_cast<Time>(opt.k) * x);
  return r;
}

SsspPolyResult sssp_poly_adaptive(const Graph& g, VertexId source,
                                  const KHopPolyOptions& base) {
  SGA_REQUIRE(source < g.num_vertices(), "sssp_poly_adaptive: bad source");
  SsspPolyResult out;
  std::uint32_t k = 1;
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  while (true) {
    KHopPolyOptions opt = base;
    opt.source = source;
    opt.k = std::min<std::uint32_t>(k, n > 1 ? n - 1 : 1);
    opt.target.reset();
    const KHopPolyResult run = khop_sssp_poly(g, opt);
    out.rounds_total += opt.k;
    out.total_time += run.execution_time;
    out.neurons = run.neurons;
    out.dist = run.dist;
    out.k_used = opt.k;

    // Converged iff the final round improved nothing: the running min over
    // rounds < k already equals the min over rounds ≤ k. If the network
    // went silent before round k (per_round is short), the trailing rounds
    // carried no messages at all — also convergence.
    bool improved_last_round = false;
    if (run.per_round.size() == static_cast<std::size_t>(opt.k) + 1 &&
        run.per_round.size() >= 2) {
      const auto& last = run.per_round.back();
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        Weight before = kInfiniteDistance;
        for (std::size_t r = 0; r + 1 < run.per_round.size(); ++r) {
          before = std::min(before, run.per_round[r][v]);
        }
        if (last[v] < before) {
          improved_last_round = true;
          break;
        }
      }
    }
    if (!improved_last_round || opt.k >= n - 1) return out;
    k *= 2;
  }
}

std::vector<VertexId> extract_khop_path(const KHopPolyResult& r,
                                        VertexId source, VertexId target) {
  SGA_REQUIRE(target < r.dist.size(), "extract_khop_path: bad target");
  SGA_REQUIRE(r.dist[target] < kInfiniteDistance,
              "extract_khop_path: target unreachable within k hops");
  if (target == source) return {source};

  // Best round: the earliest round attaining dist_k(target).
  std::size_t best_round = 0;
  for (std::size_t round = 0; round < r.per_round.size(); ++round) {
    if (r.per_round[round][target] == r.dist[target]) {
      best_round = round;
      break;
    }
  }
  SGA_CHECK(best_round >= 1, "non-source target achieved its distance at round 0");

  std::vector<VertexId> path{target};
  VertexId v = target;
  for (std::size_t round = best_round; round >= 1; --round) {
    const VertexId u = r.parent_per_round[round][v];
    SGA_CHECK(u != kNoVertex, "missing winner for vertex "
                                  << v << " at round " << round);
    path.push_back(u);
    v = u;
  }
  SGA_CHECK(v == source, "winner backtrack ended at " << v
                                                      << ", not the source");
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace sga::nga
