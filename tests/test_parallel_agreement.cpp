// Differential fuzz harness for the sharded conservative-parallel
// simulator (snn/parallel_sim.h): on random networks and random inputs,
// ParallelSimulator at S ∈ {1, 2, 3, 8, n} shards must be event-for-event
// identical to the serial Simulator and to the nested-vector
// ReferenceSimulator — per-neuron spike times, counts,
// causes, final membrane potentials, canonical spike logs, and the
// semantic SimStats. Probes, terminal-mode termination, reset() reuse, and
// the batch driver's shard-parallelism mode are covered by the same
// instances. This file is the PR's correctness oracle; the ThreadSanitizer
// CI job runs it with real worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "nga/sssp_batch.h"
#include "nga/sssp_event.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "snn/network.h"
#include "snn/parallel_sim.h"
#include "snn/reference_sim.h"
#include "snn/simulator.h"

namespace sga {
namespace {

/// Random mixed SNN, same family as test_fuzz_agreement's queue fuzz:
/// integrators and gates, inhibition, self-loops, delays spanning (and
/// occasionally exceeding) the 64-slot calendar ring window. A nonzero
/// `tweak` is added to every weight.
snn::Network random_snn(std::uint64_t seed, SynWeight tweak = 0) {
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
    const Delay d = rng.bernoulli(0.1) ? rng.uniform_int(64, 300)
                                       : rng.uniform_int(1, 9);
    net.add_synapse(a, b, w + tweak, d);
  }
  return net;
}

template <typename Sim>
void inject_all(Sim& sim, std::uint64_t seed, std::size_t n) {
  Rng rng(0xD41E + seed);
  for (int i = 0; i < 6; ++i) {
    sim.inject_spike(static_cast<NeuronId>(rng.uniform_int(
                         0, static_cast<std::int64_t>(n) - 1)),
                     rng.uniform_int(0, 200));
  }
  // Far-future injection: the parallel engine's window must jump across
  // the dead zone exactly like the serial cursor does.
  sim.inject_spike(0, 450);
}

/// The canonical spike-log order the parallel engine reports: (time, id).
/// A neuron fires at most once per step, so sorting a serial log this way
/// is a permutation-free re-ordering within each time step.
std::vector<std::pair<Time, NeuronId>> canonical(
    std::vector<std::pair<Time, NeuronId>> log) {
  std::sort(log.begin(), log.end());
  return log;
}

/// Shard counts exercised for every instance: identity, small, more shards
/// than workers, and one shard per neuron.
std::vector<std::size_t> shard_counts(std::size_t n) {
  return {1, 2, 3, 8, n};
}

struct SerialRun {
  snn::SimStats stats;
  std::vector<std::pair<Time, NeuronId>> log;  // canonical order
  std::vector<Time> first;
  std::vector<Time> last;
  std::vector<std::uint32_t> counts;
  std::vector<NeuronId> causes;
  std::vector<Voltage> v;
};

SerialRun drive_serial(const snn::CompiledNetwork& net, std::uint64_t seed,
                       const snn::SimConfig& cfg) {
  snn::Simulator sim(net);
  inject_all(sim, seed, net.num_neurons());
  SerialRun r;
  r.stats = sim.run(cfg);
  r.log = canonical(sim.spike_log());
  r.first = sim.first_spikes();
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    r.last.push_back(sim.last_spike(id));
    r.counts.push_back(sim.spike_count(id));
    r.causes.push_back(sim.first_spike_cause(id));
    r.v.push_back(sim.potential(id));
  }
  return r;
}

void expect_agrees(const SerialRun& want, const snn::ParallelSimulator& sim,
                   const snn::SimStats& stats, const char* what,
                   std::uint64_t seed, std::size_t shards) {
  const std::size_t n = sim.network().num_neurons();
  SCOPED_TRACE(::testing::Message() << what << " seed " << seed << " S "
                                    << shards << " threads "
                                    << sim.num_threads());
  EXPECT_EQ(sim.spike_log(), want.log);
  EXPECT_EQ(sim.first_spikes(), want.first);
  for (NeuronId id = 0; id < n; ++id) {
    ASSERT_EQ(sim.first_spike(id), want.first[id]) << "neuron " << id;
    ASSERT_EQ(sim.last_spike(id), want.last[id]) << "neuron " << id;
    ASSERT_EQ(sim.spike_count(id), want.counts[id]) << "neuron " << id;
    ASSERT_EQ(sim.first_spike_cause(id), want.causes[id]) << "neuron " << id;
    // Exact: the integer synapse weights make per-step accumulation
    // order-insensitive, so potentials agree bit for bit.
    ASSERT_EQ(sim.potential(id), want.v[id]) << "neuron " << id;
  }
  // Semantic stats. Queue-level counters (peak/occupancy/spills/scans/
  // ring size) are per-queue properties and intentionally NOT compared —
  // see the parallel_sim.h header contract.
  EXPECT_EQ(stats.spikes, want.stats.spikes);
  EXPECT_EQ(stats.deliveries, want.stats.deliveries);
  EXPECT_EQ(stats.event_times, want.stats.event_times);
  EXPECT_EQ(stats.end_time, want.stats.end_time);
  EXPECT_EQ(stats.execution_time, want.stats.execution_time);
  EXPECT_EQ(stats.hit_terminal, want.stats.hit_terminal);
  EXPECT_EQ(stats.hit_time_limit, want.stats.hit_time_limit);
}

class ParallelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFuzz, MatchesSerialAndReferenceAtEveryShardCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  cfg.record_causes = true;

  const SerialRun cal = drive_serial(compiled, seed, cfg);

  // The pre-CSR reference interpreter anchors the whole chain. It does
  // not implement cause recording, so that knob is dropped for it only.
  snn::ReferenceSimulator ref(net);
  inject_all(ref, seed, n);
  snn::SimConfig ref_cfg = cfg;
  ref_cfg.record_causes = false;
  const snn::SimStats rs = ref.run(ref_cfg);
  EXPECT_EQ(canonical(ref.spike_log()), cal.log) << "seed " << seed;
  EXPECT_EQ(ref.first_spikes(), cal.first) << "seed " << seed;
  EXPECT_EQ(ref.potentials(), cal.v) << "seed " << seed;
  EXPECT_EQ(rs.spikes, cal.stats.spikes) << "seed " << seed;
  EXPECT_EQ(rs.deliveries, cal.stats.deliveries) << "seed " << seed;
  EXPECT_EQ(rs.event_times, cal.stats.event_times) << "seed " << seed;
  EXPECT_EQ(rs.end_time, cal.stats.end_time) << "seed " << seed;

  for (const std::size_t shards : shard_counts(n)) {
    // Thread counts: 1 (inline schedule), 2, and 4 — more workers than
    // cores is fine; the TSan CI job runs this same matrix.
    for (const unsigned threads : {1u, 2u, 4u}) {
      snn::ParallelConfig pcfg;
      pcfg.num_shards = shards;
      pcfg.num_threads = threads;
      snn::ParallelSimulator psim(compiled, pcfg);
      inject_all(psim, seed, n);
      const snn::SimStats stats = psim.run(cfg);
      expect_agrees(cal, psim, stats, "quiescent", seed, shards);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFuzz, ::testing::Range(0, 24));

class EngineMatrixFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineMatrixFuzz, EveryEnginePartitionStealComboMatchesSerial) {
  // The parallel configuration matrix: {kLpt, kCutRefined} × S ∈ {1, 2, 3,
  // 8} on 3 real worker threads, so S = 8 multiplexes shards round-robin
  // onto workers. Every cell must be event-for-event identical to the
  // serial engine. Odd seeds record causes, exercising the mailboxes'
  // sources column. (The test name predates the matrix's current axes and
  // is kept so test ids stay stable.)
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  cfg.record_causes = (seed % 2) == 1;

  const SerialRun cal = drive_serial(compiled, seed, cfg);

  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    for (const snn::PartitionKind part :
         {snn::PartitionKind::kLpt, snn::PartitionKind::kCutRefined}) {
      SCOPED_TRACE(::testing::Message()
                   << "partition "
                   << (part == snn::PartitionKind::kLpt ? "lpt" : "cut"));
      snn::ParallelConfig pcfg;
      pcfg.num_shards = shards;
      // The TSan CI job runs this same matrix with real threads.
      pcfg.num_threads = 3;
      pcfg.partition = part;
      snn::ParallelSimulator psim(compiled, pcfg);
      EXPECT_EQ(psim.partition_kind(), part);
      inject_all(psim, seed, n);
      const snn::SimStats stats = psim.run(cfg);
      expect_agrees(cal, psim, stats, "matrix", seed, shards);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineMatrixFuzz, ::testing::Range(0, 12));

TEST(ParallelRegression, MailboxesClearAcrossResetAndTerminalStop) {
  // A terminal stop leaves the mail written in its last window undrained;
  // reset() must discard it, or the next run would see ghost deliveries.
  const snn::Network net = random_snn(11);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  const SerialRun quiescent = drive_serial(compiled, 11, cfg);

  snn::ParallelConfig pcfg;
  pcfg.num_shards = 4;
  pcfg.num_threads = 2;
  snn::ParallelSimulator psim(compiled, pcfg);

  // The terminal is the earliest-firing neuron with a cross-shard synapse,
  // so its own fire writes the mail the stop leaves behind.
  const snn::Partition& part = psim.partition();
  NeuronId terminal_id = kNoNeuron;
  for (NeuronId id = 0; id < n; ++id) {
    if (quiescent.first[id] == kNever) continue;
    bool crosses = false;
    compiled.for_each_out_synapse(
        id, [&](std::size_t, NeuronId target, SynWeight, Delay) {
          crosses |= part.shard_of[target] != part.shard_of[id];
        });
    if (crosses && (terminal_id == kNoNeuron ||
                    quiescent.first[id] < quiescent.first[terminal_id])) {
      terminal_id = id;
    }
  }
  ASSERT_NE(terminal_id, kNoNeuron);
  snn::SimConfig term_cfg = cfg;
  term_cfg.terminal_neurons.push_back(terminal_id);
  const SerialRun terminal = drive_serial(compiled, 11, term_cfg);

  inject_all(psim, 11, n);
  const snn::SimStats ts = psim.run(term_cfg);
  expect_agrees(terminal, psim, ts, "terminal", 11, 4);

  psim.reset();
  inject_all(psim, 11, n);
  const snn::SimStats qs = psim.run(cfg);
  expect_agrees(quiescent, psim, qs, "after-reset", 11, 4);
}

class ParallelTerminalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelTerminalFuzz, TerminalTerminationMatchesSerialExactly) {
  // Terminal mode is the hardest agreement case: the parallel engine must
  // stop at the END of the terminal's own time step (window length clamps
  // to 1), leaving exactly the same unprocessed queue state behind as the
  // serial break — observable through stats and every per-neuron table.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();
  Rng rng(0x7E51 + seed);

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  cfg.record_causes = true;
  // Any-of for even seeds, all-of (multi-destination readout) for odd.
  const auto terminals = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t i = 0; i < terminals; ++i) {
    cfg.terminal_neurons.push_back(static_cast<NeuronId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  }
  cfg.terminate_on_all = (seed % 2) == 1;

  const SerialRun cal = drive_serial(compiled, seed, cfg);
  for (const std::size_t shards : shard_counts(n)) {
    snn::ParallelConfig pcfg;
    pcfg.num_shards = shards;
    pcfg.num_threads = (seed % 3) == 0 ? 1 : 3;
    snn::ParallelSimulator psim(compiled, pcfg);
    inject_all(psim, seed, n);
    const snn::SimStats stats = psim.run(cfg);
    expect_agrees(cal, psim, stats, "terminal", seed, shards);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelTerminalFuzz, ::testing::Range(0, 16));

class ParallelProbeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelProbeFuzz, ProbesObserveIdenticallyAcrossEngines) {
  // Extends the ProbeFuzz contract to the parallel engine: per-shard
  // probes merged through Probe::absorb_shards must record exactly what a
  // serial probe records (trace and samples in canonical order), and
  // attaching them must not perturb the simulation.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;

  obs::ProbeOptions po;
  po.trace_spikes = true;
  po.count_fires = true;
  po.count_deliveries = true;
  po.sample_potentials = {0, static_cast<NeuronId>(n - 1)};

  obs::Probe serial_probe(po);
  snn::Simulator sim(compiled);
  sim.attach_probe(serial_probe);
  inject_all(sim, seed, n);
  const snn::SimStats ss = sim.run(cfg);
  const auto serial_trace = canonical(serial_probe.spike_trace());
  auto serial_samples = serial_probe.potential_samples();
  std::sort(serial_samples.begin(), serial_samples.end(),
            [](const obs::Probe::PotentialSample& a,
               const obs::Probe::PotentialSample& b) {
              return std::tie(a.time, a.neuron) < std::tie(b.time, b.neuron);
            });

  for (const std::size_t shards : shard_counts(n)) {
    snn::ParallelConfig pcfg;
    pcfg.num_shards = shards;
    pcfg.num_threads = (seed % 2) == 0 ? 2 : 1;
    snn::ParallelSimulator psim(compiled, pcfg);
    obs::Probe par_probe(po);
    psim.attach_probe(par_probe);
    inject_all(psim, seed, n);
    const snn::SimStats ps = psim.run(cfg);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " S " << shards);

    // Attaching the probe did not perturb the run.
    EXPECT_EQ(ps.spikes, ss.spikes);
    EXPECT_EQ(ps.deliveries, ss.deliveries);
    EXPECT_EQ(psim.spike_log(), canonical(sim.spike_log()));

    // The merged probe saw exactly what the serial probe saw.
    EXPECT_EQ(par_probe.spike_trace(), serial_trace);
    EXPECT_EQ(par_probe.fire_counts(), serial_probe.fire_counts());
    EXPECT_EQ(par_probe.delivery_counts(), serial_probe.delivery_counts());
    EXPECT_EQ(par_probe.total_fires(), serial_probe.total_fires());
    EXPECT_EQ(par_probe.total_deliveries(),
              serial_probe.total_deliveries());
    EXPECT_EQ(par_probe.potential_samples(), serial_samples);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelProbeFuzz, ::testing::Range(0, 10));

class ParallelResetFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelResetFuzz, ResetReusesAcrossRunsLikeAFreshEngine) {
  // reset() must rewind the whole sharded state — queues, mailboxes,
  // per-neuron tables, window bookkeeping — so a second run with different
  // input matches a fresh serial simulator on that input.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::Network net = random_snn(seed);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  cfg.record_causes = true;

  snn::ParallelConfig pcfg;
  pcfg.num_shards = 3;
  pcfg.num_threads = 2;
  snn::ParallelSimulator psim(compiled, pcfg);

  for (const std::uint64_t round : {seed, seed + 100, seed + 200}) {
    if (round != seed) psim.reset();
    inject_all(psim, round, n);
    const snn::SimStats stats = psim.run(cfg);
    const SerialRun want = drive_serial(compiled, round, cfg);
    expect_agrees(want, psim, stats, "reset-round", round, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelResetFuzz, ::testing::Range(0, 8));

TEST(ParallelRegression, SteadyStateRunsAreAllocationFreeAfterReset) {
  // Same pool contract as the serial simulator, summed over shards: a
  // second identical run after reset() must re-use donated bucket storage
  // exclusively (pool_misses == 0), with per-run segment/bulk counters
  // reproduced exactly.
  const snn::Network net = random_snn(7);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;

  snn::ParallelConfig pcfg;
  pcfg.num_shards = 3;
  pcfg.num_threads = 2;
  snn::ParallelSimulator psim(compiled, pcfg);

  inject_all(psim, 7, n);
  const snn::SimStats first = psim.run(cfg);
  ASSERT_GT(first.spikes, 0u);
  EXPECT_GT(first.fanout_segments, 0u);
  EXPECT_GT(first.bulk_appends, 0u);
  EXPECT_GT(first.pool_misses, 0u);  // cold start: every pool is empty

  psim.reset();
  inject_all(psim, 7, n);
  const snn::SimStats second = psim.run(cfg);
  EXPECT_EQ(second.spikes, first.spikes);
  EXPECT_EQ(second.fanout_segments, first.fanout_segments);
  EXPECT_EQ(second.bulk_appends, first.bulk_appends);
  EXPECT_EQ(second.pool_misses, 0u) << "steady-state run allocated buckets";
  EXPECT_GT(second.pool_hits, 0u);
  EXPECT_EQ(second.pool_hits, first.pool_hits + first.pool_misses);
}

TEST(ParallelRegression, WatchedNeuronSubsetFiltersTheLog) {
  const snn::Network net = random_snn(5);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  for (NeuronId id = 0; id < n; id += 2) cfg.watched_neurons.push_back(id);

  snn::Simulator sim(compiled);
  inject_all(sim, 5, n);
  sim.run(cfg);

  snn::ParallelConfig pcfg;
  pcfg.num_shards = 4;
  pcfg.num_threads = 2;
  snn::ParallelSimulator psim(compiled, pcfg);
  inject_all(psim, 5, n);
  psim.run(cfg);
  EXPECT_EQ(psim.spike_log(), canonical(sim.spike_log()));
}

TEST(ParallelRegression, MoreShardsThanNeuronsAndThanThreads) {
  // Surplus shards stay empty; surplus threads clamp to the shard count.
  const snn::Network net = random_snn(2);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  snn::ParallelConfig pcfg;
  pcfg.num_shards = n + 7;
  pcfg.num_threads = 64;
  snn::ParallelSimulator psim(compiled, pcfg);
  EXPECT_EQ(psim.num_shards(), n + 7);
  EXPECT_LE(psim.num_threads(), n + 7);

  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  inject_all(psim, 2, n);
  psim.run(cfg);

  snn::Simulator sim(compiled);
  inject_all(sim, 2, n);
  sim.run(cfg);
  EXPECT_EQ(psim.spike_log(), canonical(sim.spike_log()));
}

TEST(ParallelRegression, MetricsMergeAcrossWorkerThreads) {
  // Per-worker registries must merge into the caller's thread registry:
  // semantic totals equal the run's SimStats, with the psim.* extras.
  const snn::Network net = random_snn(9);
  const snn::CompiledNetwork compiled = net.compile();
  const std::size_t n = compiled.num_neurons();

  obs::MetricsRegistry reg;
  const obs::ScopedThreadMetrics install(&reg);

  snn::ParallelConfig pcfg;
  pcfg.num_shards = 4;
  pcfg.num_threads = 3;
  snn::ParallelSimulator psim(compiled, pcfg);
  inject_all(psim, 9, n);
  snn::SimConfig cfg;
  cfg.max_time = 500;  // recurrent random nets can self-sustain forever
  const snn::SimStats stats = psim.run(cfg);

  EXPECT_EQ(reg.counter("psim.runs"), 1u);
  EXPECT_EQ(reg.counter("sim.spikes"), stats.spikes);
  EXPECT_EQ(reg.counter("sim.deliveries"), stats.deliveries);
  EXPECT_EQ(reg.counter("sim.event_times"), stats.event_times);
  EXPECT_DOUBLE_EQ(reg.gauges().at("psim.shards"), 4.0);
  EXPECT_EQ(reg.timers().at("psim.run_ns").count, 1u);
  // Each of the 3 workers timed its loop once.
  EXPECT_EQ(reg.timers().at("psim.worker_ns").count, 3u);
}

// ---- Shard-local stores in every encoding --------------------------------
//
// Each shard runs the event core over the store shard_split froze from its
// intra-shard synapses under kAuto, so a shard's layout follows its own
// ranges. These instances pin each encoding down and check the sharded run
// against the serial one.

/// A random DAG (edges only from lower to higher ids, so activity dies
/// out) with ~30% of its delays in [65,537, 70,000], plus a long
/// inhibitory self-loop on every neuron. Self-loops are always intra-shard,
/// so every shard-local store sees a delay beyond u16 and freezes wide;
/// the long DAG edges that cross shards put one mailbox's arrivals tens of
/// thousands of steps apart.
snn::Network long_delay_dag(std::uint64_t seed) {
  Rng rng(0x10D6 + seed);
  snn::Network net;
  const auto n = static_cast<NeuronId>(rng.uniform_int(16, 40));
  for (NeuronId i = 0; i < n; ++i) {
    const int mode = static_cast<int>(rng.uniform_int(0, 2));
    net.add_neuron({0, static_cast<Voltage>(rng.uniform_int(1, 2)),
                    mode == 0 ? 0.0 : (mode == 1 ? 1.0 : 0.5)});
  }
  for (NeuronId i = 0; i < n; ++i) net.add_synapse(i, i, -1, 65536 + i);
  for (NeuronId e = 0; e < 3 * n; ++e) {
    const auto a = static_cast<NeuronId>(rng.uniform_int(0, n - 2));
    const auto b = static_cast<NeuronId>(rng.uniform_int(a + 1, n - 1));
    const Delay d = rng.bernoulli(0.3) ? rng.uniform_int(65537, 70000)
                                       : rng.uniform_int(1, 9);
    net.add_synapse(a, b, static_cast<SynWeight>(rng.uniform_int(1, 2)), d);
  }
  return net;
}

/// Runs `compiled` sharded at `shards` (1 and 2 threads) against the
/// serial engine, after checking that every non-empty shard-local store
/// froze with encoding `code` (0 wide, 1 narrow). Returns the
/// split and the last run's stats, for instance-specific checks.
std::pair<snn::ShardSplit, snn::SimStats> expect_shard_stores_agree(
    const snn::CompiledNetwork& compiled, std::uint64_t seed,
    std::size_t shards, std::uint8_t code, const snn::SimConfig& cfg) {
  const SerialRun want =
      drive_serial(compiled, seed, cfg);
  snn::ShardSplit split;
  snn::SimStats stats;
  for (const unsigned threads : {1u, 2u}) {
    snn::ParallelConfig pcfg;
    pcfg.num_shards = shards;
    pcfg.num_threads = threads;
    snn::ParallelSimulator psim(compiled, pcfg);
    split = compiled.shard_split(psim.partition());
    for (std::size_t i = 0; i < split.intra.size(); ++i) {
      if (split.intra[i].num_neurons() == 0) continue;
      EXPECT_EQ(snn::encoding_code(split.intra[i].storage_widths()), code)
          << "seed " << seed << " S " << shards << " shard " << i;
    }
    inject_all(psim, seed, compiled.num_neurons());
    stats = psim.run(cfg);
    expect_agrees(want, psim, stats, "shard store", seed, shards);
    EXPECT_GT(stats.spikes, 0u);
    // The engine reports the bytes it runs on: shard stores + cross CSR.
    EXPECT_GT(stats.csr_bytes, 0u);
    EXPECT_EQ(stats.csr_bytes, split.storage_bytes());
  }
  return {std::move(split), stats};
}

class ShardStoreFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ShardStoreFuzz, NarrowStoresWithF32AndF64WeightsMatchSerial) {
  // Integer weights fit float32. Adding 2^-30 to every weight does not,
  // so those shard stores keep f64 weights; sums of small integers and
  // multiples of 2^-30 stay exact in any order, so potentials still agree
  // bit for bit.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  snn::SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;
  cfg.record_causes = true;
  for (const SynWeight tweak : {0.0, 0x1p-30}) {
    const snn::CompiledNetwork compiled = random_snn(seed, tweak).compile();
    for (const std::size_t shards : {2u, 3u}) {
      const snn::ShardSplit split =
          expect_shard_stores_agree(compiled, seed, shards, 1, cfg).first;
      const bool f64 = std::any_of(
          split.intra.begin(), split.intra.end(),
          [](const snn::CompiledNetwork& c) {
            return c.storage_widths().weight_bytes == 8;
          });
      EXPECT_EQ(f64, tweak != 0.0) << "seed " << seed << " S " << shards;
    }
  }
}

TEST_P(ShardStoreFuzz, WideStoresAndLongCrossDelaysMatchSerial) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork compiled = long_delay_dag(seed).compile();
  snn::SimConfig cfg;
  cfg.record_spike_log = true;
  cfg.record_causes = true;
  for (const std::size_t shards : {2u, 3u}) {
    const auto [split, stats] =
        expect_shard_stores_agree(compiled, seed, shards, 0, cfg);
    EXPECT_GT(stats.end_time, 65536) << "seed " << seed << " S " << shards;
    Delay max_cross = 0;
    for (const snn::ShardCsr& c : split.shards) {
      for (const Delay d : c.cross_seg_delay) {
        max_cross = std::max(max_cross, d);
      }
    }
    EXPECT_GT(max_cross, 65536) << "seed " << seed << " S " << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardStoreFuzz, ::testing::Range(0, 6));

// ---- First-spike causes under later inputs ------------------------------
//
// A neuron's cause is its FIRST spike's (the parent the SSSP readout
// takes). Target 4 first fires at t = 1 on weights 1 (from 3) and 0.5
// (from 2): cause 3. At t = 4 it fires again on heavier inputs from
// smaller ids, 5 (from 1) and 3 (from 0), which the (largest weight,
// smallest id) rule would pick; the recorded cause must stay 3.

snn::Network later_heavier_inputs_net() {
  snn::Network net;
  for (int i = 0; i < 5; ++i) net.add_threshold_neuron(1);
  net.add_synapse(3, 4, 1, 1);
  net.add_synapse(2, 4, 0.5, 1);
  net.add_synapse(1, 4, 5, 4);
  net.add_synapse(0, 4, 3, 4);
  return net;
}

template <typename Engine>
void expect_first_cause_pinned(Engine& sim, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(sim.first_spike(4), 1);
  EXPECT_EQ(sim.spike_count(4), 2u);
  EXPECT_EQ(sim.last_spike(4), 4);
  EXPECT_EQ(sim.first_spike_cause(4), 3u);
  for (NeuronId id = 0; id < 4; ++id) {
    EXPECT_EQ(sim.first_spike_cause(id), kNoNeuron) << "injected " << id;
  }
}

/// Inject 0..3 at t = 0 and run `sim` to completion, or pause it at t = 2
/// (between the two fires of 4) and finish in `resumed` from a snapshot.
template <typename Engine>
void run_later_heavier(Engine& sim, Engine& resumed, bool pause) {
  for (NeuronId id = 0; id < 4; ++id) sim.inject_spike(id, 0);
  snn::SimConfig cfg;
  cfg.record_causes = true;
  if (!pause) {
    sim.run(cfg);
    return;
  }
  cfg.pause_time = 2;
  ASSERT_TRUE(sim.run(cfg).paused);
  EXPECT_EQ(sim.first_spike_cause(4), 3u);
  resumed.restore(sim.snapshot());
  cfg.pause_time = kNever;
  resumed.run(cfg);
}

TEST(ParallelRegression, FirstSpikeCauseIgnoresLaterHeavierInputs) {
  const snn::CompiledNetwork compiled = later_heavier_inputs_net().compile();
  for (const bool pause : {false, true}) {
    const std::string mode = pause ? " paused+restored" : " straight";
    snn::Simulator serial(compiled);
    snn::Simulator serial_resumed(compiled);
    run_later_heavier(serial, serial_resumed, pause);
    expect_first_cause_pinned(pause ? serial_resumed : serial,
                              "serial" + mode);
    for (const unsigned threads : {1u, 2u}) {
      snn::ParallelConfig pcfg;
      pcfg.num_shards = 2;
      pcfg.num_threads = threads;
      snn::ParallelSimulator psim(compiled, pcfg);
      snn::ParallelSimulator psim_resumed(compiled, pcfg);
      run_later_heavier(psim, psim_resumed, pause);
      expect_first_cause_pinned(pause ? psim_resumed : psim,
                                "sharded S=2 threads=" +
                                    std::to_string(threads) + mode);
    }
  }
}

class BatchShardedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BatchShardedFuzz, BatchShardedModeMatchesSerialBatchAndDijkstra) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(0xBA7C + seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, 18));
  const Graph g = make_random_graph(
      n, std::min(n * 3, n * (n - 1)), {1, 10}, rng, true);

  std::vector<VertexId> sources;
  const auto want = static_cast<std::size_t>(rng.uniform_int(1, 4));
  while (sources.size() < want) {
    sources.push_back(static_cast<VertexId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  }

  nga::SsspBatchOptions serial_opt;
  serial_opt.record_parents = true;
  serial_opt.num_threads = 1;
  const auto serial = nga::spiking_sssp_batch(g, sources, serial_opt);

  nga::SsspBatchOptions sharded_opt;
  sharded_opt.record_parents = true;
  sharded_opt.shards = static_cast<std::size_t>(rng.uniform_int(1, 6));
  sharded_opt.num_threads = static_cast<unsigned>(rng.uniform_int(1, 3));
  const auto sharded = nga::spiking_sssp_batch(g, sources, sharded_opt);

  ASSERT_EQ(sharded.runs.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " source " << i);
    EXPECT_EQ(sharded.runs[i].dist, serial.runs[i].dist);
    EXPECT_EQ(sharded.runs[i].parent, serial.runs[i].parent);
    EXPECT_EQ(sharded.runs[i].execution_time, serial.runs[i].execution_time);
    EXPECT_EQ(sharded.runs[i].sim.spikes, serial.runs[i].sim.spikes);
    EXPECT_EQ(sharded.runs[i].dist, dijkstra(g, sources[i]).dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchShardedFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace sga
