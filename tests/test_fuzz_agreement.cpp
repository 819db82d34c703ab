// Cross-validation fuzzing: on many random instances, every implementation
// of the same problem must agree — the event-driven spiking SSSP vs
// Dijkstra vs the crossbar-embedded run; both gate-level k-hop compilations
// vs Bellman–Ford vs the (min,+) NGA reference; and the approximation
// guarantee. These are the repo's end-to-end consistency oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/random.h"
#include "crossbar/embedding.h"
#include "graph/bellman_ford.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "nga/approx.h"
#include "nga/khop_poly.h"
#include "nga/khop_ttl.h"
#include "nga/matvec.h"
#include "nga/sssp_batch.h"
#include "nga/sssp_event.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "snn/network.h"
#include "snn/reference_sim.h"
#include "snn/simulator.h"

namespace sga {
namespace {

Graph random_instance(std::uint64_t seed, std::size_t max_n) {
  Rng rng(0xF022 + seed * 2654435761ULL);
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, static_cast<std::int64_t>(max_n)));
  if (seed % 5 == 4) {
    // Geometric family: metric-ish weights, bidirectional edges.
    return make_geometric_graph(n, 0.4, rng.uniform_int(2, 10), rng);
  }
  const auto max_m = n * (n - 1);
  const auto m = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(n),
                      static_cast<std::int64_t>(std::min(max_m, 5 * n))));
  const Weight u = rng.uniform_int(1, 12);
  const bool connected = rng.bernoulli(0.7);
  return make_random_graph(n, m, {1, u}, rng, connected);
}

class SsspFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SsspFuzz, SpikingEqualsDijkstraEqualsCrossbar) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Graph g = random_instance(seed, 24);
  const auto ref = dijkstra(g, 0);

  nga::SpikingSsspOptions opt;
  opt.source = 0;
  opt.record_parents = false;
  const auto spiking = nga::spiking_sssp(g, opt);
  EXPECT_EQ(spiking.dist, ref.dist) << "seed " << seed;

  if (g.num_edges() > 0) {
    bool has_self_loop = false;
    for (const auto& e : g.edges()) has_self_loop |= (e.from == e.to);
    if (!has_self_loop) {
      const auto onx = crossbar::spiking_sssp_on_crossbar(g, 0);
      EXPECT_EQ(onx.dist, ref.dist) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsspFuzz, ::testing::Range(0, 40));

class KhopFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KhopFuzz, AllFourKHopImplementationsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(0xF033 + seed);
  const Graph g = random_instance(seed, 12);
  if (g.num_edges() == 0) return;
  const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, 6));

  const auto bf = bellman_ford_khop(g, 0, k);

  // (min,+) NGA reference: dist_k = min over rounds of exact-hop walks.
  const auto mp = nga::minplus_rounds(g, 0, k);
  std::vector<Weight> mp_min(g.num_vertices(), kInfiniteDistance);
  for (const auto& round : mp) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      mp_min[v] = std::min(mp_min[v], round[v]);
    }
  }
  EXPECT_EQ(mp_min, bf.dist) << "seed " << seed << " k " << k;

  nga::KHopTtlOptions topt;
  topt.source = 0;
  topt.k = k;
  const auto ttl = nga::khop_sssp_ttl(g, topt);
  EXPECT_EQ(ttl.dist, bf.dist) << "seed " << seed << " k " << k;

  nga::KHopPolyOptions popt;
  popt.source = 0;
  popt.k = k;
  const auto poly = nga::khop_sssp_poly(g, popt);
  EXPECT_EQ(poly.dist, bf.dist) << "seed " << seed << " k " << k;

  // Per-round tables agree with the reference exactly.
  for (std::size_t r = 0; r < poly.per_round.size(); ++r) {
    EXPECT_EQ(poly.per_round[r], mp[r]) << "seed " << seed << " round " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KhopFuzz, ::testing::Range(0, 32));

class ApproxFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ApproxFuzz, GuaranteeAndCompositionHold) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(0xF044 + seed);
  const Graph g = random_instance(seed, 20);
  if (g.num_vertices() < 2 || g.num_edges() == 0) return;
  const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
  const auto bf = bellman_ford_khop(g, 0, k);
  const auto dj = dijkstra(g, 0);

  nga::ApproxKHopOptions opt;
  opt.source = 0;
  opt.k = k;
  opt.compose_scales = (seed % 2 == 1);
  const auto a = nga::approx_khop_sssp(g, opt);
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (bf.reachable(v)) {
      ASSERT_TRUE(a.reachable(v)) << "seed " << seed << " v " << v;
      EXPECT_LE(a.dist[v],
                (1.0 + a.epsilon) * static_cast<double>(bf.dist[v]) + 1e-9)
          << "seed " << seed << " v " << v;
    }
    if (a.reachable(v)) {
      EXPECT_GE(a.dist[v], static_cast<double>(dj.dist[v]) - 1e-9)
          << "seed " << seed << " v " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxFuzz, ::testing::Range(0, 18));

/// Random mixed SNN for the queue-agreement fuzz: integrators and gates,
/// inhibition, self-loops, and delays spanning the calendar ring window.
snn::Network random_snn(std::uint64_t seed) {
  Rng rng(0xCA1E + seed * 0x9E3779B97F4A7C15ULL);
  snn::Network net;
  const auto n = static_cast<std::size_t>(rng.uniform_int(5, 40));
  for (std::size_t i = 0; i < n; ++i) {
    snn::NeuronParams p;
    p.v_threshold = static_cast<Voltage>(rng.uniform_int(1, 3));
    p.v_reset = static_cast<Voltage>(rng.uniform_int(-1, 0));
    const int mode = static_cast<int>(rng.uniform_int(0, 2));
    p.tau = mode == 0 ? 0.0 : (mode == 1 ? 1.0 : 0.5);
    net.add_neuron(p);
  }
  const auto syn = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(n),
                      static_cast<std::int64_t>(5 * n)));
  for (std::size_t s = 0; s < syn; ++s) {
    const auto a = static_cast<NeuronId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto b = static_cast<NeuronId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto w = static_cast<SynWeight>(rng.uniform_int(-2, 3));
    // Occasionally exceed the 64-slot minimum ring window so events take
    // the overflow-spill path.
    const Delay d = rng.bernoulli(0.1) ? rng.uniform_int(64, 300)
                                       : rng.uniform_int(1, 9);
    net.add_synapse(a, b, w, d);
  }
  return net;
}

class QueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueueFuzz, BothQueuesAndReferenceInterpreterProduceIdenticalRuns) {
  // The CSR-compiled simulator — its calendar ring and its sorted overflow
  // spill — and the nested-vector ReferenceSimulator (std::map queue)
  // running straight off the mutable builder must agree spike-for-spike.
  // That is what certifies the compile()/CSR packing and the calendar
  // queue preserved semantics.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();

  auto inject_all = [&](auto& sim) {
    Rng rng(0xD41E + seed);
    for (int i = 0; i < 6; ++i) {
      sim.inject_spike(
          static_cast<NeuronId>(rng.uniform_int(
              0, static_cast<std::int64_t>(net.num_neurons()) - 1)),
          rng.uniform_int(0, 200));
    }
    // A far-future injection: exercises the ring going empty mid-run
    // (cursor jump) and, in the calendar, the spill-and-migrate path.
    sim.inject_spike(0, 450);
  };
  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;

  snn::Simulator sim(compiled);
  inject_all(sim);
  const snn::SimStats cs = sim.run(cfg);
  const auto& clog = sim.spike_log();
  const std::vector<Time> cfirst = sim.first_spikes();
  // Queue-load counters are a property of the event stream: the peak can
  // never be below the largest single bucket drained.
  EXPECT_GE(cs.peak_queue_events, cs.max_bucket_occupancy) << "seed " << seed;

  snn::ReferenceSimulator ref(net);
  inject_all(ref);
  const snn::SimStats rs = ref.run(cfg);
  EXPECT_EQ(ref.spike_log(), clog) << "seed " << seed;
  EXPECT_EQ(ref.first_spikes(), cfirst) << "seed " << seed;
  // Semantic stats only: queue-level counters are a property of the
  // production queues and stay 0 in the reference.
  EXPECT_EQ(rs.spikes, cs.spikes) << "seed " << seed;
  EXPECT_EQ(rs.deliveries, cs.deliveries) << "seed " << seed;
  EXPECT_EQ(rs.event_times, cs.event_times) << "seed " << seed;
  EXPECT_EQ(rs.end_time, cs.end_time) << "seed " << seed;
  EXPECT_EQ(rs.execution_time, cs.execution_time) << "seed " << seed;
  EXPECT_EQ(rs.hit_time_limit, cs.hit_time_limit) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzz, ::testing::Range(0, 30));

class FanoutFuzz : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(FanoutFuzz, SegmentedKernelMatchesOraclesWithAndWithoutCauses) {
  // The delay-segmented fan-out kernel (ARCHITECTURE.md §1.6) bulk-appends
  // one SoA block per delay run instead of pushing per synapse. This fuzz
  // certifies it is event-for-event invisible: on random networks it must
  // agree with the nested-vector ReferenceSimulator, which pushes one
  // delivery per synapse — spike log, first spikes and final potentials —
  // with record_causes both on and off, since the optional SoA `sources`
  // array only exists in the on case and the cause tie-break reads it
  // entry-by-entry.
  const auto seed = static_cast<std::uint64_t>(std::get<0>(GetParam()));
  const bool causes = std::get<1>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();
  const auto n = static_cast<NeuronId>(net.num_neurons());

  auto inject_all = [&](auto& sim) {
    Rng rng(0xD41E + seed);
    for (int i = 0; i < 6; ++i) {
      sim.inject_spike(
          static_cast<NeuronId>(rng.uniform_int(
              0, static_cast<std::int64_t>(net.num_neurons()) - 1)),
          rng.uniform_int(0, 200));
    }
    sim.inject_spike(0, 450);
  };
  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  cfg.record_causes = causes;

  snn::Simulator sim(compiled);
  inject_all(sim);
  const snn::SimStats stats = sim.run(cfg);
  std::vector<Voltage> potential;
  for (NeuronId id = 0; id < n; ++id) potential.push_back(sim.potential(id));

  // Kernel counters: every walked segment is either bulk-appended or cut
  // at the horizon, and a cut is reported.
  EXPECT_LE(stats.bulk_appends, stats.fanout_segments) << "seed " << seed;
  if (stats.bulk_appends < stats.fanout_segments) {
    EXPECT_TRUE(stats.hit_time_limit) << "seed " << seed;
  }
  if (causes) {
    // Causes come from the deliveries of the first spike's own step: an
    // injected-only spike has none, and every recorded cause fired first.
    for (NeuronId id = 0; id < n; ++id) {
      const NeuronId c = sim.first_spike_cause(id);
      if (c == kNoNeuron) continue;
      ASSERT_LT(c, n) << "seed " << seed;
      EXPECT_LT(sim.first_spike(c), sim.first_spike(id)) << "seed " << seed;
    }
  }

  // The reference interpreter refuses record_causes (it never grew the
  // feature); cause recording must not perturb the run, so its causes-off
  // trace is still the right oracle for both cause modes.
  snn::SimConfig ref_cfg = cfg;
  ref_cfg.record_causes = false;
  snn::ReferenceSimulator ref(net);
  inject_all(ref);
  const snn::SimStats rs = ref.run(ref_cfg);
  EXPECT_EQ(ref.spike_log(), sim.spike_log()) << "seed " << seed;
  EXPECT_EQ(ref.first_spikes(), sim.first_spikes()) << "seed " << seed;
  EXPECT_EQ(ref.potentials(), potential) << "seed " << seed;
  EXPECT_EQ(rs.spikes, stats.spikes) << "seed " << seed;
  EXPECT_EQ(rs.deliveries, stats.deliveries) << "seed " << seed;
  EXPECT_EQ(rs.event_times, stats.event_times) << "seed " << seed;
  EXPECT_EQ(rs.end_time, stats.end_time) << "seed " << seed;
  EXPECT_EQ(rs.execution_time, stats.execution_time) << "seed " << seed;
  EXPECT_EQ(rs.hit_time_limit, stats.hit_time_limit) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(SeedsXCauses, FanoutFuzz,
                         ::testing::Combine(::testing::Range(0, 20),
                                            ::testing::Bool()));

/// Whether a StorageFuzz run records first-spike causes (the kernels'
/// optional SoA `sources` column).
enum class Causes : std::uint8_t { kRecorded, kOff };

class StorageFuzz
    : public ::testing::TestWithParam<std::tuple<int, Causes>> {};

TEST_P(StorageFuzz, NarrowStorageIsEventForEventInvisible) {
  // Freeze-time width narrowing (ARCHITECTURE.md §1.8) must be a pure
  // storage transformation: the same network frozen wide (the oracle
  // layout) and narrow (kAuto) must produce identical runs, with and
  // without the causes column, and both must agree with the nested-vector
  // ReferenceSimulator that never saw a CSR at all.
  const auto seed = static_cast<std::uint64_t>(std::get<0>(GetParam()));
  const bool record_causes = std::get<1>(GetParam()) == Causes::kRecorded;
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork wide = net.compile(snn::StoragePolicy::kWide);
  const snn::CompiledNetwork narrow = net.compile(snn::StoragePolicy::kAuto);

  // random_snn stays within every narrow envelope (n ≤ 40, delays ≤ 300,
  // integer weights), so kAuto must actually have narrowed — otherwise
  // this fuzz silently degenerates into wide-vs-wide.
  ASSERT_FALSE(wide.storage_widths().narrow);
  ASSERT_TRUE(narrow.storage_widths().narrow) << "seed " << seed;
  EXPECT_LT(narrow.csr_storage_bytes(), wide.csr_storage_bytes())
      << "seed " << seed;

  // The generic accessors must read back identical synapse data.
  ASSERT_EQ(narrow.num_synapses(), wide.num_synapses());
  for (std::size_t k = 0; k < wide.num_synapses(); ++k) {
    ASSERT_EQ(narrow.syn_target(k), wide.syn_target(k)) << "syn " << k;
    ASSERT_EQ(narrow.syn_weight(k), wide.syn_weight(k)) << "syn " << k;
    ASSERT_EQ(narrow.syn_delay(k), wide.syn_delay(k)) << "syn " << k;
  }

  auto inject_all = [&](auto& sim) {
    Rng rng(0xD41E + seed);
    for (int i = 0; i < 6; ++i) {
      sim.inject_spike(
          static_cast<NeuronId>(rng.uniform_int(
              0, static_cast<std::int64_t>(net.num_neurons()) - 1)),
          rng.uniform_int(0, 200));
    }
    sim.inject_spike(0, 450);
  };
  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  cfg.record_causes = record_causes;

  auto drive = [&](const snn::CompiledNetwork& compiled) {
    snn::Simulator sim(compiled);
    inject_all(sim);
    const snn::SimStats stats = sim.run(cfg);
    std::vector<NeuronId> causes;
    for (NeuronId id = 0; id < net.num_neurons(); ++id) {
      causes.push_back(sim.first_spike_cause(id));
    }
    return std::tuple(stats, sim.spike_log(), sim.first_spikes(), causes);
  };

  const auto [ws, wlog, wfirst, wcause] = drive(wide);
  const auto [ns, nlog, nfirst, ncause] = drive(narrow);
  EXPECT_EQ(nlog, wlog) << "seed " << seed;
  EXPECT_EQ(nfirst, wfirst) << "seed " << seed;
  EXPECT_EQ(ncause, wcause) << "seed " << seed;
  EXPECT_EQ(ns.spikes, ws.spikes) << "seed " << seed;
  EXPECT_EQ(ns.deliveries, ws.deliveries) << "seed " << seed;
  EXPECT_EQ(ns.event_times, ws.event_times) << "seed " << seed;
  EXPECT_EQ(ns.end_time, ws.end_time) << "seed " << seed;
  EXPECT_EQ(ns.execution_time, ws.execution_time) << "seed " << seed;
  EXPECT_EQ(ns.hit_time_limit, ws.hit_time_limit) << "seed " << seed;
  EXPECT_EQ(ns.fanout_segments, ws.fanout_segments) << "seed " << seed;
  EXPECT_EQ(ns.bulk_appends, ws.bulk_appends) << "seed " << seed;
  EXPECT_EQ(ns.peak_queue_events, ws.peak_queue_events) << "seed " << seed;

  // Cross-check against the pre-CSR execution model as well.
  snn::SimConfig ref_cfg = cfg;
  ref_cfg.record_causes = false;
  snn::ReferenceSimulator ref(net);
  inject_all(ref);
  const snn::SimStats rs = ref.run(ref_cfg);
  EXPECT_EQ(ref.spike_log(), nlog) << "seed " << seed;
  EXPECT_EQ(ref.first_spikes(), nfirst) << "seed " << seed;
  EXPECT_EQ(rs.deliveries, ns.deliveries) << "seed " << seed;
  EXPECT_EQ(rs.hit_time_limit, ns.hit_time_limit) << "seed " << seed;
}

// The suite name predates the causes axis; it is kept so test ids stay
// stable.
INSTANTIATE_TEST_SUITE_P(
    SeedsXFanout, StorageFuzz,
    ::testing::Combine(::testing::Range(0, 14),
                       ::testing::Values(Causes::kRecorded, Causes::kOff)));

TEST(StorageFuzzRegression, InexactWeightKeepsDoublePayload) {
  // One weight that does not survive a double→float round trip must keep
  // the whole weight column at f64 — narrowing may never perturb a single
  // accumulated potential — while targets and delays still narrow.
  snn::Network net;
  for (int i = 0; i < 4; ++i) net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  net.add_synapse(0, 1, 0.1, 1);  // 0.1 is inexact in binary32
  net.add_synapse(1, 2, 1.0, 2);
  net.add_synapse(2, 3, 0.1, 3);
  const snn::CompiledNetwork narrow = net.compile();
  ASSERT_TRUE(narrow.storage_widths().narrow);
  EXPECT_EQ(narrow.storage_widths().weight_bytes, 8u);
  EXPECT_EQ(narrow.storage_widths().target_bytes, 2u);
  EXPECT_EQ(narrow.storage_widths().delay_bytes, 1u);
  for (std::size_t k = 0; k < narrow.num_synapses(); ++k) {
    EXPECT_EQ(narrow.syn_weight(k), net.compile(snn::StoragePolicy::kWide)
                                        .syn_weight(k));
  }
}

class ProbeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProbeFuzz, ProbesObserveWithoutPerturbing) {
  // The obs::Probe overhead contract (docs/OBSERVABILITY.md): attaching a
  // probe must not change ANY simulation observable, and what the probe
  // records must agree with the simulator's own log and with the
  // nested-vector reference interpreter.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();

  auto inject_all = [&](auto& sim) {
    Rng rng(0xD41E + seed);
    for (int i = 0; i < 6; ++i) {
      sim.inject_spike(
          static_cast<NeuronId>(rng.uniform_int(
              0, static_cast<std::int64_t>(net.num_neurons()) - 1)),
          rng.uniform_int(0, 200));
    }
    sim.inject_spike(0, 450);
  };
  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;

  obs::ProbeOptions po;
  po.trace_spikes = true;
  po.count_fires = true;
  po.count_deliveries = true;
  po.sample_potentials = {0, static_cast<NeuronId>(net.num_neurons() - 1)};

  auto drive = [&](obs::Probe* probe) {
    snn::Simulator sim(compiled);
    if (probe != nullptr) sim.attach_probe(*probe);
    inject_all(sim);
    const snn::SimStats stats = sim.run(cfg);
    return std::tuple(stats, sim.spike_log());
  };

  // Instrumented vs uninstrumented: identical run, event for event.
  obs::Probe cal_probe(po);
  const auto [bare_stats, bare_log] = drive(nullptr);
  const auto [cal_stats, cal_log] = drive(&cal_probe);
  EXPECT_EQ(cal_log, bare_log) << "seed " << seed;
  EXPECT_EQ(cal_stats.spikes, bare_stats.spikes) << "seed " << seed;
  EXPECT_EQ(cal_stats.deliveries, bare_stats.deliveries) << "seed " << seed;
  EXPECT_EQ(cal_stats.event_times, bare_stats.event_times) << "seed " << seed;
  EXPECT_EQ(cal_stats.end_time, bare_stats.end_time) << "seed " << seed;
  EXPECT_EQ(cal_stats.execution_time, bare_stats.execution_time)
      << "seed " << seed;

  // The probe's trace is exactly the simulator's own (watch-all) log, and
  // its totals are the SimStats totals.
  EXPECT_EQ(cal_probe.spike_trace(), cal_log) << "seed " << seed;
  EXPECT_EQ(cal_probe.total_fires(), cal_stats.spikes) << "seed " << seed;
  EXPECT_EQ(cal_probe.total_deliveries(), cal_stats.deliveries)
      << "seed " << seed;

  // Per-neuron fire counts equal the ReferenceSimulator's spike log counted
  // by hand, and the spike trace is its log — the probe agrees with the
  // pre-CSR execution model too.
  snn::ReferenceSimulator ref(net);
  inject_all(ref);
  const snn::SimStats rs = ref.run(cfg);
  std::vector<std::uint64_t> ref_fires(net.num_neurons(), 0);
  for (const auto& [t, id] : ref.spike_log()) ++ref_fires[id];
  EXPECT_EQ(cal_probe.fire_counts(), ref_fires) << "seed " << seed;
  EXPECT_EQ(cal_probe.spike_trace(), ref.spike_log()) << "seed " << seed;
  EXPECT_EQ(cal_probe.total_deliveries(), rs.deliveries) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeFuzz, ::testing::Range(0, 12));

class BatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BatchFuzz, BatchDriverMatchesSingleSourceRuns) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(0xBA7C + seed);
  const Graph g = random_instance(seed, 18);

  std::vector<VertexId> sources;
  const auto want = static_cast<std::size_t>(rng.uniform_int(1, 5));
  while (sources.size() < want) {
    sources.push_back(static_cast<VertexId>(rng.uniform_int(
        0, static_cast<std::int64_t>(g.num_vertices()) - 1)));
  }

  nga::SsspBatchOptions bopt;
  bopt.record_parents = true;
  bopt.num_threads = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const auto batch = nga::spiking_sssp_batch(g, sources, bopt);
  ASSERT_EQ(batch.runs.size(), sources.size());

  for (std::size_t i = 0; i < sources.size(); ++i) {
    nga::SpikingSsspOptions sopt;
    sopt.source = sources[i];
    sopt.record_parents = true;
    const auto single = nga::spiking_sssp(g, sopt);
    const auto& run = batch.runs[i];
    EXPECT_EQ(run.source, sources[i]);
    EXPECT_EQ(run.dist, single.dist) << "seed " << seed << " source " << i;
    EXPECT_EQ(run.parent, single.parent)
        << "seed " << seed << " source " << i;
    EXPECT_EQ(run.execution_time, single.execution_time)
        << "seed " << seed << " source " << i;
    EXPECT_EQ(run.dist, dijkstra(g, sources[i]).dist)
        << "seed " << seed << " source " << i;
  }
  EXPECT_GE(batch.threads_used, 1u);
  EXPECT_GT(batch.neurons, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzz, ::testing::Range(0, 16));

TEST(BatchRegression, MoreThreadsThanSourcesIsClampedAndCorrect) {
  // Regression for the worker-pool clamp: with more requested threads than
  // sources, surplus workers must neither crash (index races past the end)
  // nor change results; threads_used reports the clamped pool size.
  Rng rng(0xBA7C);
  const Graph g = random_instance(3, 18);
  const std::vector<VertexId> sources = {0, 1, 2};

  nga::SsspBatchOptions bopt;
  bopt.num_threads = 16;  // requested >> |sources|
  const auto batch = nga::spiking_sssp_batch(g, sources, bopt);
  ASSERT_EQ(batch.runs.size(), sources.size());
  EXPECT_EQ(batch.threads_used, sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(batch.runs[i].dist, dijkstra(g, sources[i]).dist)
        << "source " << i;
  }
}

TEST(BatchRegression, SingleSourceManyThreads) {
  // The degenerate 1-source sweep: exactly one worker may claim the index;
  // the pool must still clamp to 1 and the others' lazy simulators must
  // never be constructed (exercised by the std::optional deferral path).
  Rng rng(0xBA7D);
  const Graph g = random_instance(7, 18);
  const std::vector<VertexId> sources = {0};

  nga::SsspBatchOptions bopt;
  bopt.num_threads = 8;
  obs::MetricsRegistry reg;
  bopt.metrics = &reg;
  const auto batch = nga::spiking_sssp_batch(g, sources, bopt);
  ASSERT_EQ(batch.runs.size(), 1u);
  EXPECT_EQ(batch.threads_used, 1u);
  EXPECT_EQ(batch.runs[0].dist, dijkstra(g, 0).dist);

  // Merged metrics account for exactly the one source and one worker.
  EXPECT_EQ(reg.counter("batch.sources_done"), 1u);
  EXPECT_EQ(reg.counter("batch.sources"), 1u);
  EXPECT_DOUBLE_EQ(reg.gauges().at("batch.workers"), 1.0);
  EXPECT_EQ(reg.counter("sim.runs"), 1u);
}

TEST(BatchRegression, MergedMetricsMatchRunTotals) {
  // The per-worker registries merged at join must add up to exactly the
  // per-run SimStats sums — nothing lost or double-counted across threads.
  Rng rng(0xBA7E);
  const Graph g = random_instance(11, 18);
  std::vector<VertexId> sources;
  const auto want =
      static_cast<VertexId>(std::min<std::size_t>(6, g.num_vertices()));
  for (VertexId v = 0; v < want; ++v) sources.push_back(v);

  nga::SsspBatchOptions bopt;
  bopt.num_threads = 3;
  obs::MetricsRegistry reg;
  bopt.metrics = &reg;
  const auto batch = nga::spiking_sssp_batch(g, sources, bopt);

  std::uint64_t spikes = 0, deliveries = 0;
  for (const auto& run : batch.runs) {
    spikes += run.sim.spikes;
    deliveries += run.sim.deliveries;
  }
  EXPECT_EQ(reg.counter("sim.spikes"), spikes);
  EXPECT_EQ(reg.counter("sim.deliveries"), deliveries);
  EXPECT_EQ(reg.counter("sim.runs"), sources.size());
  EXPECT_EQ(reg.counter("batch.sources_done"), sources.size());
  EXPECT_EQ(reg.timers().at("sim.run_ns").count, sources.size());
}

}  // namespace
}  // namespace sga
