// Golden-trace determinism: one small fixed network, fixed input, and the
// exact spike trace checked in as a literal. Every engine — the serial
// simulator, the reference interpreter, and the sharded parallel simulator
// at several shard/thread counts — must reproduce it byte for byte, run
// after run, machine after machine. A failure here means an engine's event
// ORDER semantics drifted, which the statistical fuzz suites could mask.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "snn/network.h"
#include "snn/parallel_sim.h"
#include "snn/reference_sim.h"
#include "snn/simulator.h"

namespace sga {
namespace {

/// Fixed 7-neuron network: an excitation chain, a coincidence gate, a
/// leaky integrator, a slow accumulator, a long-delay feedback loop, and
/// inhibition — one of everything the engines must order identically.
snn::Network golden_network() {
  snn::Network net;
  net.add_neuron({0, 1, 0.0});   // 0: relay
  net.add_neuron({0, 2, 0.0});   // 1: coincidence (needs 2 units)
  net.add_neuron({-1, 1, 0.5});  // 2: leaky integrator
  net.add_neuron({0, 1, 1.0});   // 3: full-decay gate
  net.add_neuron({0, 3, 0.0});   // 4: slow accumulator
  net.add_neuron({0, 1, 0.0});   // 5: relay with self-inhibition
  net.add_neuron({0, 2, 0.0});   // 6: sink
  net.add_synapse(0, 1, 1, 2);
  net.add_synapse(0, 2, 1, 3);
  net.add_synapse(0, 4, 1, 1);
  net.add_synapse(1, 3, 1, 1);
  net.add_synapse(2, 1, 1, 1);
  net.add_synapse(2, 4, 2, 5);
  net.add_synapse(3, 6, 2, 4);
  net.add_synapse(4, 5, 1, 2);
  net.add_synapse(5, 0, 1, 70);  // long feedback re-fires the chain head
  net.add_synapse(5, 5, -3, 1);
  net.add_synapse(6, 2, -2, 1);
  return net;
}

constexpr Time kGoldenMaxTime = 300;

/// The exact canonical (time, neuron) spike trace of golden_network()
/// under inject(0 @ 0), inject(2 @ 4). CHECKED-IN CONTRACT: regenerate
/// only for a deliberate, documented semantics change.
const std::vector<std::pair<Time, NeuronId>>& golden_trace() {
  static const std::vector<std::pair<Time, NeuronId>> kTrace = {
      {0, 0}, {4, 2}, {5, 1}, {6, 3}, {9, 4}, {10, 6}, {11, 5}, {81, 0},
  };
  return kTrace;
}

const std::vector<Time>& golden_first_spikes() {
  static const std::vector<Time> kFirst = {0, 5, 4, 6, 9, 11, 10};
  return kFirst;
}

const std::vector<NeuronId>& golden_causes() {
  static const std::vector<NeuronId> kCauses = {
      kNoNeuron, 2, kNoNeuron, 1, 2, 4, 3,
  };
  return kCauses;
}

snn::SimConfig golden_config() {
  snn::SimConfig cfg;
  cfg.max_time = kGoldenMaxTime;
  cfg.record_spike_log = true;
  cfg.record_causes = true;
  return cfg;
}

template <typename Sim>
snn::SimStats drive(Sim& sim) {
  sim.inject_spike(0, 0);
  sim.inject_spike(2, 4);
  return sim.run(golden_config());
}

void expect_golden(const std::vector<std::pair<Time, NeuronId>>& log,
                   const std::vector<Time>& first,
                   const snn::SimStats& stats) {
  EXPECT_EQ(log, golden_trace());
  EXPECT_EQ(first, golden_first_spikes());
  EXPECT_EQ(stats.spikes, 8u);
  EXPECT_EQ(stats.deliveries, 14u);
  EXPECT_EQ(stats.event_times, 15u);
  EXPECT_EQ(stats.end_time, 84);
}

TEST(GoldenTrace, SerialCalendarQueue) {
  snn::Simulator sim(golden_network());
  const snn::SimStats stats = drive(sim);
  auto log = sim.spike_log();
  std::sort(log.begin(), log.end());  // canonical order
  expect_golden(log, sim.first_spikes(), stats);
  for (NeuronId id = 0; id < 7; ++id) {
    EXPECT_EQ(sim.first_spike_cause(id), golden_causes()[id])
        << "neuron " << id;
  }
}

TEST(GoldenTrace, ReferenceInterpreter) {
  const snn::Network net = golden_network();
  snn::ReferenceSimulator sim(net);
  sim.inject_spike(0, 0);
  sim.inject_spike(2, 4);
  snn::SimConfig cfg = golden_config();
  cfg.record_causes = false;  // the reference doesn't implement causes
  const snn::SimStats stats = sim.run(cfg);
  auto log = sim.spike_log();
  std::sort(log.begin(), log.end());
  expect_golden(log, sim.first_spikes(), stats);
}

TEST(GoldenTrace, ParallelAtEveryShardCount) {
  const snn::CompiledNetwork compiled = golden_network().compile();
  for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "S " << shards << " threads "
                                        << threads);
      snn::ParallelConfig pcfg;
      pcfg.num_shards = shards;
      pcfg.num_threads = threads;
      snn::ParallelSimulator sim(compiled, pcfg);
      const snn::SimStats stats = drive(sim);
      expect_golden(sim.spike_log(), sim.first_spikes(), stats);
      for (NeuronId id = 0; id < 7; ++id) {
        EXPECT_EQ(sim.first_spike_cause(id), golden_causes()[id])
            << "neuron " << id;
      }
    }
  }
}

TEST(GoldenTrace, ParallelResetReproducesTheTrace) {
  // Determinism across reset() reuse: the second and third runs replay
  // the identical trace.
  snn::ParallelConfig pcfg;
  pcfg.num_shards = 3;
  pcfg.num_threads = 2;
  snn::ParallelSimulator sim(golden_network(), pcfg);
  for (int round = 0; round < 3; ++round) {
    if (round > 0) sim.reset();
    const snn::SimStats stats = drive(sim);
    expect_golden(sim.spike_log(), sim.first_spikes(), stats);
  }
}

/// Skewed 4-neuron instance for the multiplexing golden test: neuron i
/// lives on shard i under kLpt at S = 4 (equal out-degrees round-robin),
/// each neuron carries a self-inhibition loop (delay 1) and a long-delay
/// ring edge i → (i+1) mod 4 (delay 100, so δ = 100 windows). Injection
/// bursts land on shards 0 and 2 — both owned by worker 0 of 2 under the
/// static round-robin map — so one worker runs 30 of the first window's 32
/// events, each of its two shards in turn.
snn::Network skewed_network() {
  snn::Network net;
  for (int i = 0; i < 4; ++i) net.add_neuron({0, 1, 0.0});
  for (NeuronId i = 0; i < 4; ++i) {
    net.add_synapse(i, i, -3, 1);                // self-inhibition
    net.add_synapse(i, (i + 1) % 4, 1, 100);     // slow ring
  }
  return net;
}

template <typename Sim>
snn::SimStats drive_skewed(Sim& sim) {
  for (Time t = 0; t < 15; ++t) {
    sim.inject_spike(0, t);
    sim.inject_spike(2, t);
  }
  sim.inject_spike(1, 0);
  sim.inject_spike(3, 0);
  snn::SimConfig cfg;
  cfg.max_time = 250;
  cfg.record_spike_log = true;
  return sim.run(cfg);
}

/// The exact canonical trace of skewed_network() under drive_skewed().
/// CHECKED-IN CONTRACT, like golden_trace(): the injection bursts fire 0
/// and 2 every tick through t = 14, the slow ring then wakes 1 and 3 at
/// 103/107/111 (three +1 arrivals against one −3 self-inhibition) and
/// finally re-fires 0 and 2 at 211.
const std::vector<std::pair<Time, NeuronId>>& skewed_trace() {
  static const std::vector<std::pair<Time, NeuronId>> kTrace = [] {
    std::vector<std::pair<Time, NeuronId>> t;
    for (Time tick = 0; tick < 15; ++tick) {
      t.push_back({tick, 0});
      t.push_back({tick, 2});
    }
    t.insert(t.begin() + 2, {{0, 1}, {0, 3}});
    for (const Time tick : {103, 107, 111}) {
      t.push_back({tick, 1});
      t.push_back({tick, 3});
    }
    t.push_back({211, 0});
    t.push_back({211, 2});
    std::sort(t.begin(), t.end());
    return t;
  }();
  return kTrace;
}

void expect_skewed(const std::vector<std::pair<Time, NeuronId>>& log,
                   const snn::SimStats& stats) {
  EXPECT_EQ(log, skewed_trace());
  EXPECT_EQ(stats.spikes, 40u);
  EXPECT_EQ(stats.deliveries, 78u);
  EXPECT_EQ(stats.event_times, 35u);
  EXPECT_EQ(stats.end_time, 212);
}

TEST(GoldenTrace, SerialReproducesTheSkewedTrace) {
  snn::Simulator sim(skewed_network());
  const snn::SimStats stats = drive_skewed(sim);
  auto log = sim.spike_log();
  std::sort(log.begin(), log.end());
  expect_skewed(log, stats);
}

TEST(GoldenTrace, RoundRobinMultiplexingPreservesTheSkewedTrace) {
  // Four shards on two workers: each worker runs two shards per window,
  // one after the other, with all the load on worker 0. The trace must not
  // depend on that schedule — run after run, with and across reset() reuse.
  snn::ParallelConfig pcfg;
  pcfg.num_shards = 4;
  pcfg.num_threads = 2;
  pcfg.partition = snn::PartitionKind::kLpt;  // pins neuron i → shard i
  snn::ParallelSimulator sim(skewed_network(), pcfg);
  ASSERT_EQ(sim.num_threads(), 2u);
  for (NeuronId i = 0; i < 4; ++i) ASSERT_EQ(sim.partition().shard_of[i], i);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    if (round > 0) sim.reset();
    const snn::SimStats stats = drive_skewed(sim);
    expect_skewed(sim.spike_log(), stats);
  }
}

}  // namespace
}  // namespace sga
