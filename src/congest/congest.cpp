#include "congest/congest.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/bitops.h"
#include "core/error.h"

namespace sga::congest {

CongestSim::CongestSim(const Graph& g, int bits_per_message)
    : g_(g), bits_(bits_per_message) {
  SGA_REQUIRE(bits_per_message >= 1 && bits_per_message <= 63,
              "CongestSim: bad message width " << bits_per_message);
}

RoundStats CongestSim::run(std::uint64_t rounds, const SendFn& send,
                           const ReceiveFn& receive) {
  RoundStats stats;
  std::vector<Payload> on_edge(g_.num_edges());
  std::vector<Payload> incoming;
  for (std::uint64_t round = 1; round <= rounds; ++round) {
    ++stats.rounds;
    // Send phase: every node loads its out-edges.
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      const auto out = g_.out_edges(v);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const Payload p = send(v, round, i);
        if (p) {
          SGA_REQUIRE(bits_ == 63 || *p < (1ULL << bits_),
                      "CONGEST bandwidth violation: payload "
                          << *p << " exceeds " << bits_ << " bits");
          ++stats.messages;
          stats.max_bits_used = std::max(
              stats.max_bits_used,
              static_cast<std::uint64_t>(bits_for(*p)));
        }
        on_edge[out[i]] = p;
      }
    }
    // Receive phase: every node drains its in-edges.
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      incoming.clear();
      for (const EdgeId eid : g_.in_edges(v)) {
        incoming.push_back(on_edge[eid]);
      }
      receive(v, round, incoming);
    }
  }
  return stats;
}

nga::NgaTrace run_nga_in_congest(const Graph& g,
                                 const std::vector<nga::Message>& initial,
                                 std::uint64_t rounds, int lambda,
                                 const nga::EdgeFn& edge_fn,
                                 const nga::NodeFn& node_fn,
                                 RoundStats* stats_out) {
  SGA_REQUIRE(initial.size() == g.num_vertices(),
              "run_nga_in_congest: initial size mismatch");
  nga::NgaTrace trace;
  trace.per_round.push_back(initial);

  std::vector<nga::Message> current = initial;
  std::vector<nga::Message> next(g.num_vertices());
  CongestSim sim(g, lambda);

  const auto send = [&](VertexId v, std::uint64_t, std::size_t) -> Payload {
    // Broadcast m_{v,r-1} on every out-edge; silent if invalid (the paper:
    // "sending the all zeros message equates to none of the output neurons
    // firing" — CONGEST's empty slot).
    if (!current[v].valid) return std::nullopt;
    return current[v].value;
  };
  const auto receive = [&](VertexId v, std::uint64_t,
                           const std::vector<Payload>& incoming) {
    // Receiver applies the edge function (the "path of length two" folding)
    // and then the node function.
    const auto in_edges = g.in_edges(v);
    std::vector<nga::Message> msgs(in_edges.size());
    for (std::size_t i = 0; i < in_edges.size(); ++i) {
      if (incoming[i]) {
        msgs[i] = edge_fn(g.edge(in_edges[i]),
                          nga::Message{*incoming[i], true});
        ++trace.messages_sent;
      }
    }
    next[v] = node_fn(v, msgs);
  };

  RoundStats total;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    const RoundStats st = sim.run(1, send, receive);
    total.rounds += st.rounds;
    total.messages += st.messages;
    total.max_bits_used = std::max(total.max_bits_used, st.max_bits_used);
    current = next;
    trace.per_round.push_back(current);
  }
  if (stats_out) *stats_out = total;
  return trace;
}

SnnCongestResult simulate_snn_in_congest(
    const snn::CompiledNetwork& net,
    const std::vector<std::pair<NeuronId, Time>>& injections, Time horizon) {
  SGA_REQUIRE(horizon >= 0, "simulate_snn_in_congest: bad horizon");

  // The communication graph: one CONGEST edge per synapse.
  Graph g(net.num_neurons());
  struct SynRef {
    SynWeight weight;
    Delay delay;
  };
  std::vector<SynRef> syn_of_edge;
  for (NeuronId u = 0; u < net.num_neurons(); ++u) {
    net.for_each_out_synapse(
        u, [&](std::size_t, NeuronId tgt, SynWeight w, Delay d) {
          g.add_edge(u, tgt, 1);
          syn_of_edge.push_back({w, d});
        });
  }

  // Local state per node: membrane potential, last fire flag, and a
  // receiver-side delay buffer per in-edge (a bit sent at round t acts at
  // round t + d - 1 more rounds later).
  const std::size_t n = net.num_neurons();
  std::vector<Voltage> v(n);
  std::vector<char> fired_prev(n, 0);  // did the neuron fire last round?
  for (NeuronId i = 0; i < n; ++i) v[i] = net.params(i).v_reset;

  // pending[e] = deque of rounds-until-active for bits in flight on edge e.
  std::vector<std::deque<Time>> pending(g.num_edges());

  std::vector<std::vector<Time>> inject_at(n);
  for (const auto& [id, t] : injections) {
    SGA_REQUIRE(id < n, "bad injection neuron");
    inject_at[id].push_back(t);
  }

  SnnCongestResult result;
  CongestSim sim(g, 1);

  const auto send = [&](VertexId u, std::uint64_t, std::size_t) -> Payload {
    // One bit: whether u fired in the previous round.
    if (fired_prev[u]) return 1;
    return std::nullopt;
  };
  const auto receive = [&](VertexId node, std::uint64_t round,
                           const std::vector<Payload>& incoming) {
    const Time t = static_cast<Time>(round) - 1;  // round r simulates step t
    // Enqueue newly arrived bits and collect those whose delay elapsed.
    const auto in_edges = g.in_edges(node);
    SynWeight syn_input = 0;
    for (std::size_t i = 0; i < in_edges.size(); ++i) {
      auto& buf = pending[in_edges[i]];
      if (incoming[i]) {
        // Sent at step t-1 over delay d ⇒ acts at step t-1+d.
        buf.push_back(t - 1 + syn_of_edge[in_edges[i]].delay);
      }
      while (!buf.empty() && buf.front() == t) {
        syn_input += syn_of_edge[in_edges[i]].weight;
        buf.pop_front();
      }
    }
    // LIF update (identical to the event-driven simulator's step rule).
    const snn::NeuronParams& p = net.params(node);
    Voltage decayed = v[node];
    if (p.tau == 1.0) {
      decayed = p.v_reset;
    } else if (p.tau > 0.0) {
      decayed = p.v_reset + (v[node] - p.v_reset) * (1.0 - p.tau);
    }
    const Voltage v_hat = decayed + syn_input;
    bool fires = v_hat >= p.v_threshold;
    for (const Time it : inject_at[node]) {
      if (it == t) fires = true;
    }
    if (fires) {
      v[node] = p.v_reset;
      result.spike_log.emplace_back(t, node);
    } else {
      v[node] = v_hat;
    }
    fired_prev[node] = fires ? 1 : 0;
  };

  // Round r simulates time step t = r - 1; horizon+1 rounds cover t = 0..T.
  result.stats = sim.run(static_cast<std::uint64_t>(horizon) + 1, send, receive);
  std::stable_sort(result.spike_log.begin(), result.spike_log.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return result;
}

CongestBellmanFordResult congest_bellman_ford(const Graph& g, VertexId source,
                                              std::uint32_t k) {
  SGA_REQUIRE(source < g.num_vertices(), "congest_bellman_ford: bad source");
  const std::uint64_t cap =
      static_cast<std::uint64_t>(k) *
          static_cast<std::uint64_t>(std::max<Weight>(1, g.max_edge_length())) +
      1;
  const int lambda = bits_for(cap);

  CongestBellmanFordResult r;
  r.dist.assign(g.num_vertices(), kInfiniteDistance);
  r.dist[source] = 0;

  CongestSim sim(g, lambda);
  const auto send = [&](VertexId u, std::uint64_t, std::size_t) -> Payload {
    if (r.dist[u] >= kInfiniteDistance) return std::nullopt;
    return static_cast<std::uint64_t>(r.dist[u]);
  };
  const auto receive = [&](VertexId node, std::uint64_t,
                           const std::vector<Payload>& incoming) {
    const auto in_edges = g.in_edges(node);
    for (std::size_t i = 0; i < in_edges.size(); ++i) {
      if (!incoming[i]) continue;
      const Weight cand = static_cast<Weight>(*incoming[i]) +
                          g.edge(in_edges[i]).length;
      r.dist[node] = std::min(r.dist[node], cand);
    }
  };
  r.stats = sim.run(k, send, receive);
  return r;
}

DelayedCongestSim::DelayedCongestSim(const Graph& g, int bits_per_message)
    : g_(g), bits_(bits_per_message) {
  SGA_REQUIRE(bits_per_message >= 1 && bits_per_message <= 63,
              "DelayedCongestSim: bad message width " << bits_per_message);
}

RoundStats DelayedCongestSim::run(std::uint64_t rounds, const SendFn& send,
                                  const ReceiveFn& receive) {
  RoundStats stats;
  // In-flight messages per edge: (delivery_round, payload) FIFO — delays
  // are fixed per edge, so delivery order is send order.
  //
  // Phase order within a round is RECEIVE then SEND: a node may react in
  // the same round to a message delivered to it, which makes a wake-up bit
  // over an edge of delay d cost exactly d rounds end to end — the spiking
  // semantics (a spike arriving at time t can be relayed with fire time t).
  std::vector<std::deque<std::pair<std::uint64_t, std::uint64_t>>> in_flight(
      g_.num_edges());
  std::vector<Payload> incoming;
  for (std::uint64_t round = 1; round <= rounds; ++round) {
    ++stats.rounds;
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      incoming.clear();
      for (const EdgeId eid : g_.in_edges(v)) {
        auto& q = in_flight[eid];
        if (!q.empty() && q.front().first == round) {
          incoming.emplace_back(q.front().second);
          q.pop_front();
        } else {
          incoming.emplace_back(std::nullopt);
        }
      }
      receive(v, round, incoming);
    }
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      const auto out = g_.out_edges(v);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const Payload p = send(v, round, i);
        if (!p) continue;
        SGA_REQUIRE(bits_ == 63 || *p < (1ULL << bits_),
                    "delay-CONGEST bandwidth violation");
        ++stats.messages;
        stats.max_bits_used =
            std::max(stats.max_bits_used,
                     static_cast<std::uint64_t>(bits_for(*p)));
        const auto d = static_cast<std::uint64_t>(g_.edge(out[i]).length);
        in_flight[out[i]].emplace_back(round + d, *p);
      }
    }
  }
  return stats;
}

DelayedCongestSsspResult delayed_congest_sssp(const Graph& g, VertexId source,
                                              Time horizon) {
  SGA_REQUIRE(source < g.num_vertices(), "delayed_congest_sssp: bad source");
  DelayedCongestSsspResult r;
  r.dist.assign(g.num_vertices(), kInfiniteDistance);
  r.dist[source] = 0;

  // Node state: the round in which to broadcast the wake-up bit (the
  // Section-3 "propagate only the first incoming spike"). Fire time t maps
  // to round t + 1; receive-before-send lets a node relay in its own wake
  // round, so edge delay ℓ costs exactly ℓ rounds.
  std::vector<std::uint64_t> broadcast_round(g.num_vertices(), 0);
  broadcast_round[source] = 1;  // source spikes "at time 0" = round 1

  DelayedCongestSim sim(g, 1);
  const auto send = [&](VertexId v, std::uint64_t round, std::size_t) -> Payload {
    if (broadcast_round[v] == round) return 1;
    return std::nullopt;
  };
  const auto receive = [&](VertexId v, std::uint64_t round,
                           const std::vector<Payload>& incoming) {
    if (r.dist[v] < kInfiniteDistance) return;  // already woken
    for (const Payload& p : incoming) {
      if (p) {
        // Woken in round ρ ⇒ fired at time ρ − 1 ⇒ distance ρ − 1; relay
        // this same round.
        r.dist[v] = static_cast<Weight>(round - 1);
        broadcast_round[v] = round;
        return;
      }
    }
  };
  r.stats = sim.run(static_cast<std::uint64_t>(horizon) + 1, send, receive);
  return r;
}

CongestApproxResult congest_approx_khop(const Graph& g, VertexId source,
                                        std::uint32_t k, double epsilon) {
  SGA_REQUIRE(source < g.num_vertices(), "congest_approx_khop: bad source");
  SGA_REQUIRE(k >= 1, "congest_approx_khop: k must be >= 1");
  SGA_REQUIRE(g.num_vertices() >= 2, "congest_approx_khop: need >= 2 vertices");

  CongestApproxResult r;
  const double n = static_cast<double>(g.num_vertices());
  r.epsilon = epsilon > 0 ? epsilon : 1.0 / std::log2(n);
  const double kd = static_cast<double>(k);
  const Weight u_max = std::max<Weight>(1, g.max_edge_length());
  const auto max_i = static_cast<std::uint32_t>(std::max(
      0.0,
      std::ceil(std::log2(2.0 * kd * static_cast<double>(u_max) / r.epsilon))));
  r.num_scales = max_i + 1;
  const auto deadline =
      static_cast<Time>(std::ceil((1.0 + 2.0 / r.epsilon) * kd));

  r.dist.assign(g.num_vertices(), std::numeric_limits<double>::infinity());
  for (std::uint32_t i = 0; i <= max_i; ++i) {
    const double di = std::pow(2.0, static_cast<double>(i));
    Graph rounded(g.num_vertices());
    for (const auto& e : g.edges()) {
      const double scaled =
          2.0 * kd * static_cast<double>(e.length) / (r.epsilon * di);
      rounded.add_edge(e.from, e.to,
                       static_cast<Weight>(std::max(1.0, std::ceil(scaled))));
    }
    const auto run = delayed_congest_sssp(rounded, source, deadline);
    r.total_rounds += run.stats.rounds;
    r.total_messages += run.stats.messages;
    const double unscale = r.epsilon * di / (2.0 * kd);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (run.dist[v] >= kInfiniteDistance) continue;
      if (static_cast<double>(run.dist[v]) > (1.0 + 2.0 / r.epsilon) * kd) {
        continue;
      }
      r.dist[v] =
          std::min(r.dist[v], unscale * static_cast<double>(run.dist[v]));
    }
  }
  return r;
}

}  // namespace sga::congest
