// Property tests for the event-driven simulator on randomized networks:
// determinism, spike-log monotonicity, accounting consistency, horizon
// monotonicity, and LIF-dynamics invariants that must hold regardless of
// topology or parameters.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/error.h"
#include "core/random.h"
#include "snn/network.h"
#include "snn/neuron.h"
#include "snn/parallel_sim.h"
#include "snn/probe.h"
#include "snn/simulator.h"

namespace sga::snn {
namespace {

/// A random mixed network: integrators and gates, excitatory and inhibitory
/// synapses, random delays, a few self-loops.
Network random_network(std::uint64_t seed, std::size_t n, std::size_t syn) {
  Rng rng(seed);
  Network net;
  for (std::size_t i = 0; i < n; ++i) {
    NeuronParams p;
    p.v_threshold = static_cast<Voltage>(rng.uniform_int(1, 3));
    p.v_reset = static_cast<Voltage>(rng.uniform_int(-1, 0));
    const int mode = static_cast<int>(rng.uniform_int(0, 2));
    p.tau = mode == 0 ? 0.0 : (mode == 1 ? 1.0 : 0.5);
    net.add_neuron(p);
  }
  for (std::size_t s = 0; s < syn; ++s) {
    const auto a = static_cast<NeuronId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto b = static_cast<NeuronId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto w = static_cast<SynWeight>(rng.uniform_int(-2, 3));
    net.add_synapse(a, b, w, rng.uniform_int(1, 9));
  }
  return net;
}

/// Everything a run leaves observable: the spike log and stats plus every
/// neuron's first/last spike, spike count, final potential and (when
/// recorded) first-spike cause — all the per-neuron fields reset() must
/// rewind.
struct RunOutput {
  SimStats stats;
  std::vector<std::pair<Time, NeuronId>> log;
  std::vector<Time> firsts;
  std::vector<Time> lasts;
  std::vector<std::uint32_t> counts;
  std::vector<Voltage> potentials;
  std::vector<NeuronId> causes;
};

RunOutput run_with(Simulator& sim, const Network& net, std::uint64_t seed,
                   Time horizon, bool record_causes = false) {
  Rng rng(seed ^ 0x5EED);
  for (int i = 0; i < 5; ++i) {
    sim.inject_spike(
        static_cast<NeuronId>(rng.uniform_int(
            0, static_cast<std::int64_t>(net.num_neurons()) - 1)),
        rng.uniform_int(0, 3));
  }
  SimConfig cfg;
  cfg.max_time = horizon;
  cfg.record_spike_log = true;
  cfg.record_causes = record_causes;
  RunOutput out;
  out.stats = sim.run(cfg);
  out.log = sim.spike_log();
  out.firsts = sim.first_spikes();
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    out.lasts.push_back(sim.last_spike(id));
    out.counts.push_back(sim.spike_count(id));
    out.potentials.push_back(sim.potential(id));
    out.causes.push_back(sim.first_spike_cause(id));
  }
  return out;
}

RunOutput run_once(const Network& net, std::uint64_t seed, Time horizon,
                   bool record_causes = false) {
  Simulator sim(net);
  return run_with(sim, net, seed, horizon, record_causes);
}

void expect_same_run(const RunOutput& a, const RunOutput& b,
                     const char* what) {
  EXPECT_EQ(a.log, b.log) << what;
  EXPECT_EQ(a.firsts, b.firsts) << what;
  EXPECT_EQ(a.lasts, b.lasts) << what;
  EXPECT_EQ(a.counts, b.counts) << what;
  // Bit-exact: a reused simulator replays the same arithmetic in the same
  // order as a fresh one, whatever the leak class.
  EXPECT_EQ(a.potentials, b.potentials) << what;
  EXPECT_EQ(a.causes, b.causes) << what;
  EXPECT_EQ(a.stats.spikes, b.stats.spikes) << what;
  EXPECT_EQ(a.stats.deliveries, b.stats.deliveries) << what;
  EXPECT_EQ(a.stats.event_times, b.stats.event_times) << what;
  EXPECT_EQ(a.stats.end_time, b.stats.end_time) << what;
  EXPECT_EQ(a.stats.execution_time, b.stats.execution_time) << what;
  EXPECT_EQ(a.stats.hit_terminal, b.stats.hit_terminal) << what;
  EXPECT_EQ(a.stats.hit_time_limit, b.stats.hit_time_limit) << what;
  // Queue-load counters are a property of the event stream, not of the
  // queue implementation, so they must survive reset()/reuse too.
  EXPECT_EQ(a.stats.peak_queue_events, b.stats.peak_queue_events) << what;
  EXPECT_EQ(a.stats.max_bucket_occupancy, b.stats.max_bucket_occupancy)
      << what;
}

class SimProperties : public ::testing::TestWithParam<int> {};

TEST_P(SimProperties, DeterministicAcrossRuns) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Network net = random_network(seed, 30, 120);
  const auto a = run_once(net, seed, 200);
  const auto b = run_once(net, seed, 200);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.stats.spikes, b.stats.spikes);
  EXPECT_EQ(a.stats.deliveries, b.stats.deliveries);
}

TEST_P(SimProperties, SpikeLogIsTimeOrderedAndConsistent) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Network net = random_network(seed, 30, 120);
  const auto out = run_once(net, seed, 200);

  // Log times never decrease, never exceed the horizon.
  for (std::size_t i = 1; i < out.log.size(); ++i) {
    EXPECT_LE(out.log[i - 1].first, out.log[i].first);
  }
  if (!out.log.empty()) {
    EXPECT_LE(out.log.back().first, 200);
    // end_time can exceed the last spike: non-spiking deliveries also
    // advance the processed-event clock.
    EXPECT_LE(out.log.back().first, out.stats.end_time);
  }
  // Log size equals the spike counter; a neuron fires at most once per step.
  EXPECT_EQ(out.log.size(), out.stats.spikes);
  std::set<std::pair<Time, NeuronId>> unique(out.log.begin(), out.log.end());
  EXPECT_EQ(unique.size(), out.log.size());
  // first_spike matches the log's first occurrence.
  std::vector<Time> first_from_log(net.num_neurons(), kNever);
  for (const auto& [t, id] : out.log) {
    first_from_log[id] = std::min(first_from_log[id], t);
  }
  EXPECT_EQ(out.firsts, first_from_log);
}

TEST_P(SimProperties, LongerHorizonIsAPrefixExtension) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Network net = random_network(seed, 25, 100);
  const auto short_run = run_once(net, seed, 60);
  const auto long_run = run_once(net, seed, 150);
  // The short run's log is a prefix of the long run's.
  ASSERT_LE(short_run.log.size(), long_run.log.size());
  for (std::size_t i = 0; i < short_run.log.size(); ++i) {
    EXPECT_EQ(short_run.log[i], long_run.log[i]) << "index " << i;
  }
  // Anything beyond the prefix happened after the short horizon.
  for (std::size_t i = short_run.log.size(); i < long_run.log.size(); ++i) {
    EXPECT_GT(long_run.log[i].first, 60);
  }
}

TEST_P(SimProperties, ResetReusedSimulatorMatchesFresh) {
  // Two reset()+run() cycles on one simulator — with DIFFERENT injections
  // and horizons — must be indistinguishable from two fresh simulators.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Network net = random_network(seed, 30, 120);
  const auto fresh_a = run_once(net, seed, 200);
  const auto fresh_b = run_once(net, seed + 101, 150);

  Simulator sim(net);
  const auto reused_a = run_with(sim, net, seed, 200);
  sim.reset();
  const auto reused_b = run_with(sim, net, seed + 101, 150);
  expect_same_run(fresh_a, reused_a, "first cycle");
  expect_same_run(fresh_b, reused_b, "second cycle after reset()");

  // And a third cycle replaying the first injections round-trips exactly.
  sim.reset();
  const auto reused_a2 = run_with(sim, net, seed, 200);
  expect_same_run(fresh_a, reused_a2, "third cycle after reset()");
}

TEST_P(SimProperties, ResetCyclesRewindEveryLeakClassAndCauses) {
  // Reuse across reset() cycles that alternate recording causes: every
  // per-neuron field — potential, spike count, last spike, cause — of τ = 0,
  // τ = 1 and τ = 0.5 neurons must come back exactly as a fresh simulator
  // leaves it, and a cause-recording cycle must leave no causes behind.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Network net = random_network(seed, 30, 120);
  bool has_tau[3] = {false, false, false};
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    const double tau = net.params(id).tau;
    has_tau[tau == 0.0 ? 0 : (tau == 1.0 ? 1 : 2)] = true;
  }
  ASSERT_TRUE(has_tau[0] && has_tau[1] && has_tau[2]);

  struct Cycle {
    std::uint64_t seed;
    Time horizon;
    bool causes;
  };
  const Cycle cycles[] = {{seed, 200, false},
                          {seed + 31, 170, true},
                          {seed + 57, 90, false},
                          {seed, 200, false},
                          {seed + 31, 170, true}};
  Simulator sim(net);
  for (std::size_t c = 0; c < std::size(cycles); ++c) {
    if (c > 0) sim.reset();
    const Cycle& cy = cycles[c];
    const auto fresh = run_once(net, cy.seed, cy.horizon, cy.causes);
    const auto reused = run_with(sim, net, cy.seed, cy.horizon, cy.causes);
    SCOPED_TRACE(::testing::Message() << "cycle " << c);
    expect_same_run(fresh, reused, "reset cycle");
    if (!cy.causes) {
      EXPECT_EQ(std::count(reused.causes.begin(), reused.causes.end(),
                           kNoNeuron),
                static_cast<std::ptrdiff_t>(net.num_neurons()));
    }
  }
}

TEST_P(SimProperties, MapQueueSimulatorSupportsResetToo) {
  // The calendar queue's overflow spill is a time-keyed map. A horizon stop
  // that leaves events parked in it must not leak them into the next cycle:
  // reset() recycles the spill with the ring.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Network net = random_network(seed, 25, 100);
  const auto fresh = run_once(net, seed, 120);
  Simulator sim(net);
  // Both past the first cycle's horizon: 61 lands in the 64-slot ring and
  // stops the run while 100, past the ring window, is still parked in the
  // spill — inside the next cycle's horizon, so a leak would fire it.
  sim.inject_spike(0, 61);
  sim.inject_spike(0, 100);
  const auto stopped = run_with(sim, net, seed + 7, 5);
  EXPECT_GE(stopped.stats.overflow_spills, 1u);
  EXPECT_TRUE(stopped.stats.hit_time_limit);
  sim.reset();
  const auto reused = run_with(sim, net, seed, 120);
  expect_same_run(fresh, reused, "reset() after a stop with a parked spill");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperties, ::testing::Range(0, 10));

/// A single-threaded ParallelSimulator config with `shards` shards: the
/// sharded engine's input to the engine-generic invariants below.
ParallelConfig sharded(std::size_t shards) {
  ParallelConfig cfg;
  cfg.num_shards = shards;
  cfg.num_threads = 1;
  return cfg;
}

/// Per-neuron dirty stamps are 16 bits wide, narrower than the reset
/// counter. Stamp K subthreshold integrators in K consecutive cycles, leave
/// them untouched across the stamp wrap, then touch them all again: a
/// stale stamp that collided with the current epoch would hide its neuron
/// from reset(), and its charge would leak into the next cycle. The gap
/// puts the first touch after the wrap K+2 cycles past the counter's
/// period — within the stamped range whether the period is 2^16 or
/// 2^16 − 1. `make(net)` builds the engine under test.
template <typename MakeEngine>
void check_stamp_wrap_keeps_reuse_exact(MakeEngine make) {
  constexpr int kStamped = 8;
  Network net;
  std::vector<NeuronId> inputs, accs;
  for (int j = 0; j < kStamped; ++j) {
    inputs.push_back(net.add_threshold_neuron(1));
    accs.push_back(net.add_neuron(NeuronParams{0, 2, 0.0}));  // integrator
    net.add_synapse(inputs.back(), accs.back(), 1, 1);
  }
  const NeuronId other = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_threshold_neuron(1);
  net.add_synapse(other, sink, 1, 1);

  auto sim = make(net);
  for (int j = 0; j < kStamped; ++j) {
    if (j > 0) sim.reset();
    sim.inject_spike(inputs[j], 0);
    sim.run();
  }
  constexpr int kGap = (1 << 16) - kStamped + 2;
  for (int c = 0; c < kGap; ++c) {
    sim.reset();
    sim.inject_spike(other, 0);  // touches `other` and `sink` only
    sim.run();
  }
  for (Time rep = 0; rep < 3; ++rep) {
    sim.reset();
    // A different launch time each cycle, so a stale last_spike cannot
    // pass for this cycle's spike.
    for (const NeuronId d : inputs) sim.inject_spike(d, rep);
    const SimStats st = sim.run();
    EXPECT_EQ(st.spikes, static_cast<std::uint64_t>(kStamped))
        << "rep " << rep;
    for (int j = 0; j < kStamped; ++j) {
      EXPECT_EQ(sim.last_spike(inputs[j]), rep) << "rep " << rep;
      EXPECT_EQ(sim.spike_count(inputs[j]), 1u) << "rep " << rep;
      EXPECT_EQ(sim.potential(accs[j]), 1) << "rep " << rep << " j " << j;
      EXPECT_EQ(sim.spike_count(accs[j]), 0u) << "rep " << rep << " j " << j;
    }
    EXPECT_EQ(sim.first_spike(sink), kNever) << "rep " << rep;
  }
}

TEST(SimInvariants, ResetStampWrapKeepsReuseExact) {
  check_stamp_wrap_keeps_reuse_exact(
      [](const Network& net) { return Simulator(net); });
  // Shards run the same core, so the same 16-bit stamps — per shard, with
  // the stamped neurons spread over the shards.
  for (const std::size_t shards : {2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "S " << shards);
    check_stamp_wrap_keeps_reuse_exact([shards](const Network& net) {
      return ParallelSimulator(net, sharded(shards));
    });
  }
}

TEST(SimInvariants, QueueCountersAreReported) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 3);

  Simulator cal(net);
  cal.inject_spike(a, 0);
  const SimStats cs = cal.run();
  EXPECT_GE(cs.ring_buckets, 64u);  // minimum ring size
  EXPECT_EQ(cs.ring_buckets & (cs.ring_buckets - 1), 0u);  // power of two
  EXPECT_GE(cs.peak_queue_events, 1u);
  EXPECT_GE(cs.max_bucket_occupancy, 1u);
  EXPECT_EQ(cs.overflow_spills, 0u);  // delay 3 fits the 64-slot window
  EXPECT_EQ(cs.empty_bucket_scans, 2u);  // slots 1 and 2 between 0 and 3
}

TEST(SimInvariants, FarFutureEventsSpillAndMigrate) {
  // An injection far beyond the ring window must spill to the overflow map,
  // then migrate back into the ring as the window slides — and the run must
  // still process it correctly.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 2);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  sim.inject_spike(a, 1'000'000);  // >> ring window (64 slots)
  const SimStats st = sim.run();
  EXPECT_GE(st.overflow_spills, 1u);
  EXPECT_EQ(sim.spike_count(a), 2u);
  EXPECT_EQ(sim.spike_count(b), 2u);
  EXPECT_EQ(st.end_time, 1'000'002);
}

TEST(SimInvariants, ExcitationOnlyNetworkSpikesMonotonically) {
  // With only positive weights and no decay, adding an extra input spike
  // can only add spikes, never remove them.
  Rng rng(0x99);
  Network net;
  for (int i = 0; i < 20; ++i) net.add_threshold_neuron(rng.uniform_int(1, 2));
  for (int s = 0; s < 60; ++s) {
    net.add_synapse(static_cast<NeuronId>(rng.uniform_int(0, 19)),
                    static_cast<NeuronId>(rng.uniform_int(0, 19)), 1,
                    rng.uniform_int(1, 5));
  }
  SimConfig cfg;
  cfg.max_time = 60;

  Simulator base(net);
  base.inject_spike(0, 0);
  const auto base_stats = base.run(cfg);

  Simulator more(net);
  more.inject_spike(0, 0);
  more.inject_spike(1, 0);
  const auto more_stats = more.run(cfg);

  EXPECT_GE(more_stats.spikes, base_stats.spikes);
  for (NeuronId v = 0; v < 20; ++v) {
    EXPECT_LE(more.first_spike(v), base.first_spike(v)) << "neuron " << v;
  }
}

TEST(SimInvariants, DecayNeverRaisesPotentialAboveDrive) {
  // A τ=0.5 neuron receiving one +4 pulse decays 4, 2, 1, 0.5...; probe via
  // zero-weight touches at successive times.
  Network net;
  const NeuronId src = net.add_threshold_neuron(1);
  const NeuronId probe = net.add_neuron(NeuronParams{0, 100, 0.5});
  const NeuronId poker = net.add_threshold_neuron(1);
  net.add_synapse(src, probe, 4, 1);
  net.add_synapse(poker, probe, 0.0, 5);
  Simulator sim(net);
  sim.inject_spike(src, 0);
  sim.inject_spike(poker, 0);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.potential(probe), 0.25);  // 4 · (1/2)^4
}

TEST(SimInvariants, ResetBelowZeroRequiresMoreDrive) {
  // v_reset = -2, threshold 1: after one fire the neuron needs 3 units.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_neuron(NeuronParams{-2, 1, 0.0});
  net.add_synapse(a, sink, 1, 1);   // first fire at t=1 (reset voltage was 0? no)
  net.add_synapse(b, sink, 2, 4);
  Simulator sim(net);
  // sink starts at v_reset = -2: a's single unit at t=1 leaves it at -1.
  sim.inject_spike(a, 0);
  sim.inject_spike(b, 0);
  sim.run();
  // -2 +1 = -1 at t=1 (no fire); +2 at t=4 → 1 ≥ 1 fires.
  EXPECT_EQ(sim.first_spike(sink), 4);
}

TEST(SimInvariants, WatchedNeuronsFilterTheLog) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  const NeuronId c = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 1);
  net.add_synapse(b, c, 1, 1);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  SimConfig cfg;
  cfg.record_spike_log = true;
  cfg.watched_neurons = {c};
  sim.run(cfg);
  ASSERT_EQ(sim.spike_log().size(), 1u);
  EXPECT_EQ(sim.spike_log()[0], (std::pair<Time, NeuronId>{2, c}));
  EXPECT_EQ(sim.spike_count(a), 1u);  // counters still track everything
}

TEST(SimInvariants, DecayFastPathsMatchGeneralFormula) {
  // decay_potential short-circuits dt == 0, τ = 0, and τ = 1 before paying
  // for std::pow; every fast path must be EXACTLY the general closed form
  // (pow(1, dt) = 1 and pow(0, dt>0) = 0 are exact in IEEE double, so the
  // equality is bitwise, not approximate).
  Rng rng(0x0DECA1);
  const double taus[] = {0.0, 1.0, 0.5, 0.25, 0.875};
  for (int trial = 0; trial < 2000; ++trial) {
    const double tau = taus[rng.uniform_int(0, 4)];
    const auto v = static_cast<Voltage>(rng.uniform_int(-8, 8)) * 0.5;
    const auto v_reset = static_cast<Voltage>(rng.uniform_int(-4, 4)) * 0.5;
    const Time dt = rng.uniform_int(0, 64);
    EXPECT_EQ(decay_potential(v, v_reset, tau, dt),
              decay_potential_general(v, v_reset, tau, dt))
        << "v " << v << " v_reset " << v_reset << " tau " << tau << " dt "
        << dt;
  }
}

TEST(SimInvariants, FiredInBinarySearchesLargeSpikeLogs) {
  // Regression for the fired_in() log consult: two self-oscillating neurons
  // interleave a multi-thousand-entry spike log (a fires at even times, b at
  // odd times), and every mid-run query lands on the "fired both before t0
  // and after t1" path that must binary-search the log instead of scanning
  // it from the front.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, a, 1, 2);
  net.add_synapse(b, b, 1, 2);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  sim.inject_spike(b, 1);
  SimConfig cfg;
  cfg.max_time = 6000;
  cfg.record_spike_log = true;
  const SimStats stats = sim.run(cfg);
  ASSERT_GE(stats.spikes, 6000u);
  ASSERT_GE(sim.spike_log().size(), 6000u);

  for (Time t = 500; t < 5500; ++t) {
    EXPECT_EQ(sim.fired_in(a, t, t), t % 2 == 0) << "t " << t;
    EXPECT_EQ(sim.fired_in(b, t, t), t % 2 == 1) << "t " << t;
  }
  // Width-1 windows cover one even and one odd time, so both always fired;
  // inverted windows are a precondition violation.
  EXPECT_TRUE(sim.fired_in(a, 1001, 1002));
  EXPECT_TRUE(sim.fired_in(b, 1001, 1002));
  EXPECT_THROW(sim.fired_in(a, 1002, 1001), InvalidArgument);
}

TEST(SimInvariants, SteadyStateRunsAreAllocationFreeAfterReset) {
  // The bucket-storage pool contract (ARCHITECTURE.md §1.6): every bucket
  // drained or reset donates its SoA vectors back to the pool, so a second
  // identical run never allocates bucket storage — pool_misses stays 0 and
  // every activation is a pool hit. The far-future injection drives the
  // spill map, whose nodes must participate in the same recycling.
  const Network net = random_network(0x600D, 30, 150);
  Simulator sim(net);
  auto inject = [&](Simulator& s) {
    Rng rng(0x600D ^ 0x5EED);
    for (int i = 0; i < 5; ++i) {
      s.inject_spike(
          static_cast<NeuronId>(rng.uniform_int(
              0, static_cast<std::int64_t>(net.num_neurons()) - 1)),
          rng.uniform_int(0, 3));
    }
    s.inject_spike(0, 450);
  };
  SimConfig cfg;
  cfg.max_time = 500;
  cfg.record_spike_log = true;

  inject(sim);
  const SimStats first = sim.run(cfg);
  ASSERT_GT(first.spikes, 0u);
  EXPECT_GT(first.fanout_segments, 0u);
  EXPECT_GT(first.bulk_appends, 0u);
  EXPECT_GT(first.pool_misses, 0u);  // cold start: pool is empty

  sim.reset();
  inject(sim);
  const SimStats second = sim.run(cfg);
  EXPECT_EQ(second.spikes, first.spikes);
  EXPECT_EQ(second.fanout_segments, first.fanout_segments);
  EXPECT_EQ(second.bulk_appends, first.bulk_appends);
  EXPECT_EQ(second.pool_misses, 0u) << "steady-state run allocated buckets";
  EXPECT_GT(second.pool_hits, 0u);
  EXPECT_EQ(second.pool_hits, first.pool_hits + first.pool_misses);
}

/// Reuse-lifecycle regression (docs/SERVICE.md): before the high-watermark
/// trim, the bucket pool grew to the ALL-TIME peak concurrent bucket
/// demand and never shrank — one oversized request pinned its footprint
/// for the rest of a pooled worker's life. reset() now keeps only the
/// larger of the last two runs' peaks, so (a) a same-shaped rerun stays
/// allocation-free, (b) alternating big/small serve-many cycles stay
/// allocation-free too, and (c) once the big workload stops arriving the
/// pool shrinks to the small workload's demand within two resets.
/// `make(net)` builds the engine under test.
template <typename MakeEngine>
void check_mixed_size_reuse_bounds_pool(MakeEngine make) {
  const Network net = random_network(0xB16, 40, 200);
  auto sim = make(net);

  // "Big" request: many injections spread over time -> many live buckets.
  auto inject_big = [&] {
    Rng rng(0xB16 ^ 0x5EED);
    for (int i = 0; i < 40; ++i) {
      sim.inject_spike(
          static_cast<NeuronId>(rng.uniform_int(
              0, static_cast<std::int64_t>(net.num_neurons()) - 1)),
          rng.uniform_int(0, 60));
    }
  };
  // "Small" request: one source, short horizon -> few live buckets.
  SimConfig small_cfg;
  small_cfg.max_time = 8;
  // Recurrent random networks need a horizon; the big one still drives far
  // more concurrent buckets than the small one.
  SimConfig big_cfg;
  big_cfg.max_time = 150;

  inject_big();
  sim.run(big_cfg);
  sim.reset();
  const std::size_t big_resident = sim.pool_resident_buckets();
  ASSERT_GT(big_resident, 0u);

  // Mixed steady state: alternating big/small requests never allocate
  // after their own first occurrence (the pool keeps the bigger of the
  // last two peaks, which covers both shapes).
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim.inject_spike(0, 0);
    const SimStats small = sim.run(small_cfg);
    sim.reset();
    EXPECT_EQ(small.pool_misses, 0u) << "cycle " << cycle;
    inject_big();
    const SimStats big = sim.run(big_cfg);
    sim.reset();
    EXPECT_EQ(big.pool_misses, 0u) << "cycle " << cycle;
    EXPECT_LE(sim.pool_resident_buckets(), big_resident) << "cycle " << cycle;
  }

  // What the small workload needs on its own: run it on a fresh simulator
  // (same network, same deterministic event stream).
  auto fresh = make(net);
  fresh.inject_spike(0, 0);
  fresh.run(small_cfg);
  fresh.reset();
  const std::size_t small_resident = fresh.pool_resident_buckets();
  ASSERT_LT(small_resident, big_resident);

  // Big workload stops: two small-only cycles later the resident storage
  // has dropped to the small workload's own demand (the big peak has aged
  // out of the two-run window).
  for (int i = 0; i < 2; ++i) {
    sim.inject_spike(0, 0);
    sim.run(small_cfg);
    sim.reset();
  }
  EXPECT_EQ(sim.pool_resident_buckets(), small_resident)
      << "pool retained the big workload's footprint after it stopped";

  // And the small steady state is still allocation-free after the shrink.
  sim.inject_spike(0, 0);
  const SimStats after = sim.run(small_cfg);
  EXPECT_EQ(after.pool_misses, 0u);
}

TEST(SimInvariants, MixedSizeReuseBoundsPoolStorage) {
  check_mixed_size_reuse_bounds_pool(
      [](const Network& net) { return Simulator(net); });
  // Every shard's core trims its own pool; the engine reports the sum.
  SCOPED_TRACE("2 shards");
  check_mixed_size_reuse_bounds_pool(
      [](const Network& net) { return ParallelSimulator(net, sharded(2)); });
}

}  // namespace
}  // namespace sga::snn
