// Tests for the two gate-level k-hop SSSP compilations (Sections 4.1, 4.2):
// against the Bellman–Ford reference for every (generator, k, max-circuit)
// combination, per-round agreement with the (min,+) NGA reference, scaling
// invariants, the Theorem 4.2/4.3 resource accounting, and a gate-level
// differential between the serial and sharded engines on a served fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/bitops.h"
#include "core/random.h"
#include "graph/bellman_ford.h"
#include "graph/generators.h"
#include "nga/khop_poly.h"
#include "nga/khop_ttl.h"
#include "nga/matvec.h"
#include "snn/parallel_sim.h"
#include "snn/reference_sim.h"

namespace sga::nga {
namespace {

struct KhopParam {
  int family;  // 0 random, 1 grid, 2 path, 3 layered, 4 complete
  std::uint32_t k;
  circuits::MaxKind kind;
};

std::string khop_name(const ::testing::TestParamInfo<KhopParam>& info) {
  const char* fam[] = {"Random", "Grid", "Path", "Layered", "Complete"};
  return std::string(fam[info.param.family]) + "_k" +
         std::to_string(info.param.k) +
         (info.param.kind == circuits::MaxKind::kWiredOr ? "_WiredOr"
                                                         : "_BruteForce");
}

Graph make_family(int family, Rng& rng) {
  switch (family) {
    case 0: return make_random_graph(14, 40, {1, 6}, rng);
    case 1: return make_grid_graph(3, 4, {1, 5}, rng);
    case 2: return make_path_graph(9, {1, 4}, rng);
    case 3: return make_layered_dag(3, 3, 2, {1, 5}, rng);
    default: return make_complete_graph(7, {1, 6}, rng);
  }
}

class KhopTtlSweep : public ::testing::TestWithParam<KhopParam> {};

TEST_P(KhopTtlSweep, MatchesBellmanFord) {
  const auto& p = GetParam();
  Rng rng(0x7711 + static_cast<std::uint64_t>(p.family) * 31 + p.k);
  const Graph g = make_family(p.family, rng);
  const auto ref = bellman_ford_khop(g, 0, p.k);

  KHopTtlOptions opt;
  opt.source = 0;
  opt.k = p.k;
  opt.max_kind = p.kind;
  const auto got = khop_sssp_ttl(g, opt);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got.dist[v], ref.dist[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KhopTtlSweep,
    ::testing::Values(
        KhopParam{0, 1, circuits::MaxKind::kWiredOr},
        KhopParam{0, 2, circuits::MaxKind::kWiredOr},
        KhopParam{0, 3, circuits::MaxKind::kWiredOr},
        KhopParam{0, 5, circuits::MaxKind::kWiredOr},
        KhopParam{0, 3, circuits::MaxKind::kBruteForce},
        KhopParam{1, 2, circuits::MaxKind::kWiredOr},
        KhopParam{1, 4, circuits::MaxKind::kWiredOr},
        KhopParam{1, 4, circuits::MaxKind::kBruteForce},
        KhopParam{2, 3, circuits::MaxKind::kWiredOr},
        KhopParam{2, 8, circuits::MaxKind::kWiredOr},
        KhopParam{3, 2, circuits::MaxKind::kWiredOr},
        KhopParam{3, 4, circuits::MaxKind::kBruteForce},
        KhopParam{4, 1, circuits::MaxKind::kWiredOr},
        KhopParam{4, 3, circuits::MaxKind::kWiredOr},
        KhopParam{4, 6, circuits::MaxKind::kBruteForce}),
    khop_name);

class KhopPolySweep : public ::testing::TestWithParam<KhopParam> {};

TEST_P(KhopPolySweep, MatchesBellmanFord) {
  const auto& p = GetParam();
  Rng rng(0x9922 + static_cast<std::uint64_t>(p.family) * 37 + p.k);
  const Graph g = make_family(p.family, rng);
  const auto ref = bellman_ford_khop(g, 0, p.k);

  KHopPolyOptions opt;
  opt.source = 0;
  opt.k = p.k;
  opt.max_kind = p.kind;
  const auto got = khop_sssp_poly(g, opt);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got.dist[v], ref.dist[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KhopPolySweep,
    ::testing::Values(
        KhopParam{0, 1, circuits::MaxKind::kWiredOr},
        KhopParam{0, 2, circuits::MaxKind::kWiredOr},
        KhopParam{0, 4, circuits::MaxKind::kWiredOr},
        KhopParam{0, 3, circuits::MaxKind::kBruteForce},
        KhopParam{1, 3, circuits::MaxKind::kWiredOr},
        KhopParam{1, 5, circuits::MaxKind::kBruteForce},
        KhopParam{2, 4, circuits::MaxKind::kWiredOr},
        KhopParam{2, 8, circuits::MaxKind::kWiredOr},
        KhopParam{3, 3, circuits::MaxKind::kWiredOr},
        KhopParam{4, 2, circuits::MaxKind::kWiredOr},
        KhopParam{4, 5, circuits::MaxKind::kBruteForce}),
    khop_name);

TEST(KhopPoly, PerRoundTableMatchesMinplusReference) {
  Rng rng(0xAB);
  const Graph g = make_random_graph(10, 30, {1, 5}, rng);
  KHopPolyOptions opt;
  opt.source = 0;
  opt.k = 5;
  const auto got = khop_sssp_poly(g, opt);
  const auto ref = minplus_rounds(g, 0, 5);
  ASSERT_EQ(got.per_round.size(), ref.size());
  for (std::size_t r = 0; r < ref.size(); ++r) {
    EXPECT_EQ(got.per_round[r], ref[r]) << "round " << r;
  }
}

TEST(KhopPoly, RoundPeriodIsLogarithmicInMessageWidth) {
  // Theorem 4.3's x = Θ(log(nU)) with our constants: the round period must
  // grow with λ, not with n or m.
  Rng rng(0xAC);
  const Graph small_u = make_random_graph(12, 40, {1, 2}, rng);
  const Graph big_u = make_random_graph(12, 40, {1, 200}, rng);
  KHopPolyOptions opt;
  opt.source = 0;
  opt.k = 3;
  const auto a = khop_sssp_poly(small_u, opt);
  const auto b = khop_sssp_poly(big_u, opt);
  EXPECT_GT(b.lambda, a.lambda);
  EXPECT_GT(b.round_period, a.round_period);
  EXPECT_EQ(a.execution_time, 3 * a.round_period);
}

TEST(KhopPoly, NeuronCountScalesWithEdgesTimesLambda) {
  // Theorem 4.3: O(m log(nU)) neurons.
  Rng rng(0xAD);
  const Graph g1 = make_random_graph(12, 30, {1, 6}, rng);
  const Graph g2 = make_random_graph(12, 60, {1, 6}, rng);
  KHopPolyOptions opt;
  opt.source = 0;
  opt.k = 2;
  const auto r1 = khop_sssp_poly(g1, opt);
  const auto r2 = khop_sssp_poly(g2, opt);
  const double ratio =
      static_cast<double>(r2.neurons) / static_cast<double>(r1.neurons);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);  // roughly doubles with m
}

TEST(KhopPoly, TargetModeStopsEarly) {
  Rng rng(0xAE);
  const Graph g = make_path_graph(8, {3, 3}, rng);
  KHopPolyOptions opt;
  opt.source = 0;
  opt.k = 7;
  opt.target = 2;  // reached in round 2
  const auto got = khop_sssp_poly(g, opt);
  EXPECT_TRUE(got.sim.hit_terminal);
  EXPECT_EQ(got.execution_time, 2 * got.round_period);
  EXPECT_EQ(got.dist[2], 6);
}

TEST(KhopTtl, ScaleCoversNodeDepth) {
  Rng rng(0xAF);
  const Graph g = make_random_graph(10, 25, {1, 4}, rng);
  KHopTtlOptions opt;
  opt.source = 0;
  opt.k = 4;
  const auto got = khop_sssp_ttl(g, opt);
  // The scaled minimum edge must strictly exceed the node circuit depth
  // (Section 4.1's "scale all graph edges so the minimum edge length is at
  // least ⌈log k⌉" with our exact circuit constants).
  EXPECT_GE(got.scale * g.min_edge_length(),
            static_cast<Weight>(got.node_depth) + 1);
  EXPECT_EQ(got.lambda, bits_for(opt.k - 1));
}

TEST(KhopTtl, KOneReachesOnlyDirectNeighbours) {
  Graph g(4);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 3, 7);
  KHopTtlOptions opt;
  opt.source = 0;
  opt.k = 1;
  const auto got = khop_sssp_ttl(g, opt);
  EXPECT_EQ(got.dist[1], 2);
  EXPECT_EQ(got.dist[3], 7);
  EXPECT_FALSE(got.reachable(2));
}

TEST(KhopTtl, LaterLargerTtlPropagatesFurther) {
  // The Section-4.1 subtlety: the FIRST (shortest) arrival at vertex 1 has
  // a small TTL; a LATER arrival with a larger TTL must still propagate.
  // 0 →(9, direct)→ 1 uses 1 hop (TTL budget high), while 0→2→3→1 is
  // shorter (3·1 = 3) but burns 3 hops. With k = 4, vertex 4 (two hops past
  // 1) is reachable only through the direct-edge arrival when the cheap
  // arrival's TTL is exhausted.
  Graph g(6);
  g.add_edge(0, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(3, 1, 1);  // cheap 3-hop route to 1 (length 3)
  g.add_edge(0, 1, 9);  // expensive 1-hop route to 1
  g.add_edge(1, 4, 1);
  g.add_edge(4, 5, 1);
  KHopTtlOptions opt;
  opt.source = 0;
  opt.k = 4;
  const auto got = khop_sssp_ttl(g, opt);
  const auto ref = bellman_ford_khop(g, 0, 4);
  EXPECT_EQ(got.dist[1], 3);   // first arrival (3 hops)
  EXPECT_EQ(got.dist[4], ref.dist[4]);  // 4 hops via the cheap route: 3+1
  EXPECT_EQ(got.dist[5], ref.dist[5]);  // needs the later large-TTL arrival
  EXPECT_EQ(ref.dist[5], 11);  // 9 + 1 + 1 via the direct edge
}

TEST(KhopTtl, HopCountsAreMinimalForTheDistance) {
  // hops[v] must be the SMALLEST hop budget that already achieves dist_k(v)
  // (first arrival carries the max TTL among shortest paths).
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(0xB10 + seed);
    const Graph g = make_random_graph(12, 40, {1, 6}, rng);
    const std::uint32_t k = 5;
    KHopTtlOptions opt;
    opt.source = 0;
    opt.k = k;
    const auto got = khop_sssp_ttl(g, opt);
    const auto rounds = bellman_ford_khop_rounds(g, 0, k);
    for (VertexId v = 1; v < 12; ++v) {
      if (!got.reachable(v)) continue;
      std::uint32_t min_hops = 0;
      while (rounds[min_hops][v] != got.dist[v]) ++min_hops;
      EXPECT_EQ(got.hops[v], min_hops) << "seed " << seed << " v " << v;
      EXPECT_LE(got.hops[v], k);
      EXPECT_GE(got.hops[v], 1u);
    }
  }
}

TEST(KhopTtl, HopCountsOnHandBuiltGraph) {
  // 0→3 direct (1 hop, length 10) vs 0→1→2→3 (3 hops, length 3): the
  // shortest uses 3 hops; with k = 1 only the direct edge exists.
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(0, 3, 10);
  {
    KHopTtlOptions opt;
    opt.source = 0;
    opt.k = 4;
    const auto r = khop_sssp_ttl(g, opt);
    EXPECT_EQ(r.dist[3], 3);
    EXPECT_EQ(r.hops[3], 3u);
  }
  {
    KHopTtlOptions opt;
    opt.source = 0;
    opt.k = 1;
    const auto r = khop_sssp_ttl(g, opt);
    EXPECT_EQ(r.dist[3], 10);
    EXPECT_EQ(r.hops[3], 1u);
  }
}

TEST(KhopTtl, TargetModeTerminates) {
  Rng rng(0xB0);
  const Graph g = make_path_graph(7, {2, 2}, rng);
  KHopTtlOptions opt;
  opt.source = 0;
  opt.k = 6;
  opt.target = 3;
  const auto got = khop_sssp_ttl(g, opt);
  EXPECT_TRUE(got.sim.hit_terminal);
  EXPECT_EQ(got.dist[3], 6);
}

TEST(KhopTtl, SelfLoopIsHarmless) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 1, 1);  // self-loop
  g.add_edge(1, 2, 2);
  KHopTtlOptions opt;
  opt.source = 0;
  opt.k = 3;
  const auto got = khop_sssp_ttl(g, opt);
  EXPECT_EQ(got.dist[1], 2);
  EXPECT_EQ(got.dist[2], 4);
}

TEST(SsspPolyAdaptive, MatchesDijkstraWithSmallBudget) {
  // Theorem 4.4 without knowing α: doubling budgets + the BF early-exit
  // criterion find full SSSP in k_used ≤ 2·(max shortest-path hops).
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(0xADA0 + seed);
    const Graph g = make_random_graph(16, 80, {1, 9}, rng);
    const auto ref = dijkstra(g, 0);
    const auto got = sssp_poly_adaptive(g, 0);
    for (VertexId v = 0; v < 16; ++v) {
      EXPECT_EQ(got.dist[v], ref.dist[v]) << "seed " << seed << " v " << v;
    }
    std::uint32_t alpha = 0;
    for (VertexId v = 0; v < 16; ++v) {
      if (ref.reachable(v)) alpha = std::max(alpha, ref.hops[v]);
    }
    EXPECT_LE(got.k_used, std::max<std::uint32_t>(2, 2 * alpha))
        << "seed " << seed;
    EXPECT_LE(got.k_used, 15u);
  }
}

TEST(SsspPolyAdaptive, LongPathForcesFullBudget) {
  Rng rng(0xADA9);
  const Graph g = make_path_graph(9, {2, 2}, rng);
  const auto got = sssp_poly_adaptive(g, 0);
  EXPECT_EQ(got.dist[8], 16);
  EXPECT_EQ(got.k_used, 8u);  // α = n−1; the doubling caps at n−1
}

TEST(SsspPolyAdaptive, StarGraphConvergesImmediately) {
  Graph g(5);
  for (VertexId v = 1; v < 5; ++v) g.add_edge(0, v, 3);
  const auto got = sssp_poly_adaptive(g, 0);
  EXPECT_EQ(got.k_used, 2u);  // k=1 still improves; k=2's last round doesn't
  for (VertexId v = 1; v < 5; ++v) EXPECT_EQ(got.dist[v], 3);
}

TEST(KhopAgreement, TtlAndPolyAgreeOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(0xCC00 + seed);
    const Graph g = make_random_graph(12, 36, {1, 5}, rng);
    KHopTtlOptions topt;
    topt.source = 0;
    topt.k = 4;
    KHopPolyOptions popt;
    popt.source = 0;
    popt.k = 4;
    const auto a = khop_sssp_ttl(g, topt);
    const auto b = khop_sssp_poly(g, popt);
    EXPECT_EQ(a.dist, b.dist) << "seed " << seed;
  }
}

/// Everything one k-hop request leaves observable on an engine: the
/// canonical (time, id)-sorted log of the watched max outputs, every
/// neuron's first spike, spike count and final potential, and the
/// semantic stats.
struct KhopEngineRun {
  std::vector<std::pair<Time, NeuronId>> log;
  std::vector<Time> first;
  std::vector<std::uint32_t> counts;
  std::vector<Voltage> v;
  snn::SimStats stats;
};

template <typename Sim>
KhopEngineRun capture(const Sim& sim, const snn::SimStats& stats) {
  KhopEngineRun r;
  r.log = sim.spike_log();
  std::sort(r.log.begin(), r.log.end());
  r.first = sim.first_spikes();
  for (NeuronId id = 0; id < sim.network().num_neurons(); ++id) {
    r.counts.push_back(sim.spike_count(id));
    r.v.push_back(sim.potential(id));
  }
  r.stats = stats;
  return r;
}

/// Launch request (source, k) on `sim` exactly as run_khop_ttl launches
/// the serial engine; returns the config it runs under.
template <typename Sim>
snn::SimConfig launch_request(Sim& sim, const KHopTtlCompiled& c,
                              VertexId source, std::uint32_t k) {
  const KHopNodePorts& src = c.ports[source];
  for (std::size_t i = 0; i < src.out_bits.size(); ++i) {
    if (((k - 1) >> i) & 1u) sim.inject_spike(src.out_bits[i], 0);
  }
  sim.inject_spike(src.out_valid, 0);
  snn::SimConfig cfg;
  cfg.max_time = c.scale * static_cast<Time>(k) *
                     std::max<Weight>(1, c.max_edge_length) +
                 c.node_depth + 1;
  cfg.record_spike_log = true;
  for (const KHopNodePorts& p : c.ports) {
    cfg.watched_neurons.insert(cfg.watched_neurons.end(),
                               p.max_outputs.begin(), p.max_outputs.end());
  }
  return cfg;
}

/// One request on a fresh sharded engine.
KhopEngineRun run_parallel_request(const KHopTtlCompiled& c, VertexId source,
                                   std::uint32_t k, std::size_t shards) {
  snn::ParallelConfig pcfg;
  pcfg.num_shards = shards;
  pcfg.num_threads = shards == 1 ? 1 : 2;
  snn::ParallelSimulator psim(c.network, pcfg);
  const snn::SimStats stats = psim.run(launch_request(psim, c, source, k));
  return capture(psim, stats);
}

/// The mutable Network the frozen fabric holds, for the reference
/// interpreter (which runs off a Network, not a CompiledNetwork).
snn::Network thaw(const snn::CompiledNetwork& c) {
  snn::Network net;
  for (NeuronId id = 0; id < c.num_neurons(); ++id) {
    net.add_neuron(c.params(id));
  }
  for (NeuronId id = 0; id < c.num_neurons(); ++id) {
    c.for_each_out_synapse(
        id, [&](std::size_t, NeuronId target, SynWeight w, Delay d) {
          net.add_synapse(id, target, w, d);
        });
  }
  return net;
}

TEST(KhopTtlEngines, ReusedSerialMatchesFreshParallelPerRequest) {
  // The k-hop fabric is gate-level: most of its cost is spikes, not
  // deliveries, so it exercises the per-spike path (fire, threshold pass,
  // reset of the touched neurons) far harder than the SSSP networks. One
  // serial simulator serves a sequence of (source, k) requests through
  // run_khop_ttl with reset() in between — the service's slot reuse — and
  // must match a fresh sharded engine on every request, neuron for neuron,
  // and the reference interpreter's trace, first spikes and potentials.
  Rng rng(0x4E61);
  const Graph g = make_random_graph(10, 30, {1, 4}, rng);
  const KHopTtlCompiled c =
      compile_khop_ttl(g, 8, circuits::MaxKind::kWiredOr);
  const std::pair<VertexId, std::uint32_t> requests[] = {
      {0, 8}, {3, 5}, {7, 6}, {0, 8}, {5, 7}};
  const snn::Network fabric = thaw(c.network);
  snn::Simulator sim(c.network);
  for (std::size_t q = 0; q < std::size(requests); ++q) {
    const auto [source, k] = requests[q];
    ASSERT_TRUE(c.serves(k));
    if (q > 0) sim.reset();
    const KHopTtlResult r = run_khop_ttl(c, sim, {source, k, std::nullopt});
    EXPECT_EQ(r.dist, bellman_ford_khop(g, source, k).dist);
    const KhopEngineRun serial = capture(sim, r.sim);
    ASSERT_GT(serial.stats.spikes, 0u);
    ASSERT_FALSE(serial.log.empty());

    snn::ReferenceSimulator ref(fabric);
    const snn::SimStats rs = ref.run(launch_request(ref, c, source, k));
    auto ref_log = ref.spike_log();
    std::sort(ref_log.begin(), ref_log.end());
    EXPECT_EQ(ref_log, serial.log) << "request " << q;
    EXPECT_EQ(ref.first_spikes(), serial.first) << "request " << q;
    EXPECT_EQ(ref.potentials(), serial.v) << "request " << q;
    EXPECT_EQ(rs.spikes, serial.stats.spikes) << "request " << q;
    EXPECT_EQ(rs.deliveries, serial.stats.deliveries) << "request " << q;
    EXPECT_EQ(rs.end_time, serial.stats.end_time) << "request " << q;

    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(::testing::Message()
                   << "request " << q << " (source " << source << ", k " << k
                   << ") S " << shards);
      const KhopEngineRun par = run_parallel_request(c, source, k, shards);
      EXPECT_EQ(par.log, serial.log);
      EXPECT_EQ(par.first, serial.first);
      EXPECT_EQ(par.counts, serial.counts);
      EXPECT_EQ(par.v, serial.v);
      EXPECT_EQ(par.stats.spikes, serial.stats.spikes);
      EXPECT_EQ(par.stats.deliveries, serial.stats.deliveries);
      EXPECT_EQ(par.stats.event_times, serial.stats.event_times);
      EXPECT_EQ(par.stats.end_time, serial.stats.end_time);
      EXPECT_EQ(par.stats.execution_time, serial.stats.execution_time);
      EXPECT_EQ(par.stats.hit_terminal, serial.stats.hit_terminal);
      EXPECT_EQ(par.stats.hit_time_limit, serial.stats.hit_time_limit);
    }
  }
}

}  // namespace
}  // namespace sga::nga
