// Unit tests for the LIF network and event-driven simulator: the dynamics of
// Definitions 1–3 (decay, threshold, reset, delays, inhibition, termination)
// and the simulator's observability surface.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <type_traits>
#include <vector>

#include "snn/network.h"
#include "snn/probe.h"
#include "snn/simulator.h"

namespace sga::snn {
namespace {

TEST(Network, AddNeuronAndSynapse) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(2);
  net.add_synapse(a, b, 1.5, 3);
  EXPECT_EQ(net.num_neurons(), 2u);
  EXPECT_EQ(net.num_synapses(), 1u);
  EXPECT_EQ(net.params(b).v_threshold, 2);
  ASSERT_EQ(net.out_synapses(a).size(), 1u);
  EXPECT_EQ(net.out_synapses(a)[0].target, b);
  EXPECT_EQ(net.out_synapses(a)[0].delay, 3);
}

TEST(Network, RejectsZeroDelay) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  EXPECT_THROW(net.add_synapse(a, a, 1, 0), InvalidArgument);
}

TEST(Network, RejectsBadDecay) {
  Network net;
  EXPECT_THROW(net.add_neuron(NeuronParams{0, 1, 1.5}), InvalidArgument);
  EXPECT_THROW(net.add_neuron(NeuronParams{0, 1, -0.1}), InvalidArgument);
}

TEST(Network, PositiveInWeightSizesFireOnceGuards) {
  // The helper behind fire-once constructions: the total excitatory drive a
  // neuron can receive if every presynaptic neuron fires once.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_threshold_neuron(1);
  net.add_synapse(a, sink, 2.5, 1);
  net.add_synapse(b, sink, 1, 3);
  net.add_synapse(a, sink, -4, 6);  // inhibition does not count
  net.add_synapse(a, b, 7, 1);      // different target does not count
  EXPECT_DOUBLE_EQ(net.positive_in_weight(sink), 3.5);
  EXPECT_DOUBLE_EQ(net.positive_in_weight(a), 0.0);

  // A self-inhibition stronger than that bound makes the neuron fire-once.
  net.add_synapse(sink, sink, -4, 1);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  sim.inject_spike(b, 0);
  SimConfig cfg;
  cfg.max_time = 10;
  sim.run(cfg);
  EXPECT_EQ(sim.spike_count(sink), 1u);  // fires at t=1, b's spike at t=3
                                         // cannot overcome the -4 guard
}

TEST(Network, Groups) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.define_group("inputs", {a, b});
  EXPECT_TRUE(net.has_group("inputs"));
  EXPECT_EQ(net.group("inputs").size(), 2u);
  EXPECT_THROW(net.group("nope"), InvalidArgument);
  EXPECT_THROW(net.define_group("bad", {99}), InvalidArgument);
}

TEST(CompiledNetwork, PacksCsrInSourceOrderSortedByDelay) {
  // CSR packing groups each neuron's synapses contiguously and sorts each
  // row by delay (stably), even when sources were interleaved at build time.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(2);
  const NeuronId c = net.add_neuron(NeuronParams{-1, 3, 0.5});
  net.add_synapse(b, a, 1, 2);
  net.add_synapse(a, b, 2, 3);
  net.add_synapse(b, c, -1, 5);
  net.add_synapse(a, c, 4, 1);

  const CompiledNetwork cn = net.compile();
  EXPECT_EQ(cn.num_neurons(), 3u);
  EXPECT_EQ(cn.num_synapses(), 4u);
  EXPECT_EQ(cn.max_delay(), 5);

  // Row extents: a has 2, b has 2, c has 0.
  EXPECT_EQ(cn.out_begin(a), 0u);
  EXPECT_EQ(cn.out_end(a), 2u);
  EXPECT_EQ(cn.out_degree(b), 2u);
  EXPECT_EQ(cn.out_degree(c), 0u);

  // a's row sorted by delay: a→c (w4 d1) before a→b (w2 d3), regardless of
  // the insertion order above.
  EXPECT_EQ(cn.syn_target(cn.out_begin(a)), c);
  EXPECT_EQ(cn.syn_delay(cn.out_begin(a)), 1);
  EXPECT_DOUBLE_EQ(cn.syn_weight(cn.out_begin(a)), 4);
  EXPECT_EQ(cn.syn_target(cn.out_begin(a) + 1), b);
  EXPECT_EQ(cn.syn_delay(cn.out_begin(a) + 1), 3);

  // The row walk yields the same synapses (b's row was already sorted).
  std::vector<Synapse> row;
  cn.for_each_out_synapse(
      b, [&](std::size_t, NeuronId tgt, SynWeight w, Delay d) {
        row.push_back(Synapse{tgt, w, d});
      });
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].target, a);
  EXPECT_EQ(row[1].target, c);
  EXPECT_EQ(row[1].delay, 5);

  // SoA params match the builder's AoS view.
  EXPECT_DOUBLE_EQ(cn.v_reset(c), -1);
  EXPECT_DOUBLE_EQ(cn.v_threshold(c), 3);
  EXPECT_DOUBLE_EQ(cn.tau(c), 0.5);
  EXPECT_DOUBLE_EQ(cn.params(c).tau, net.params(c).tau);
}

TEST(CompiledNetwork, DelaySegmentsPartitionEachRow) {
  // Freeze-time contract of the segment CSR: per row, segment synapse
  // ranges exactly tile [out_begin, out_end), segment delays are strictly
  // increasing, every synapse in a segment carries the segment's delay, and
  // equal-delay synapses keep their builder insertion order (stable sort).
  std::mt19937 rng(20260807);
  Network net;
  const std::size_t n = 37;
  for (std::size_t i = 0; i < n; ++i) net.add_threshold_neuron(1);
  // Interleaved insertion with heavy delay collisions to create real runs.
  std::vector<std::vector<Synapse>> inserted(n);
  for (int e = 0; e < 600; ++e) {
    const auto src = static_cast<NeuronId>(rng() % n);
    const auto dst = static_cast<NeuronId>(rng() % n);
    const auto d = static_cast<Delay>(1 + rng() % 5);
    const auto w = static_cast<SynWeight>(1 + e % 7);
    net.add_synapse(src, dst, w, d);
    inserted[src].push_back(Synapse{dst, w, d});
  }

  const CompiledNetwork cn = net.compile();
  std::size_t total_segments = 0;
  for (NeuronId i = 0; i < n; ++i) {
    std::size_t expect_next = cn.out_begin(i);
    Delay prev_delay = 0;
    for (std::size_t s = cn.seg_begin(i); s < cn.seg_end(i); ++s) {
      EXPECT_EQ(cn.seg_syn_begin(s), expect_next);
      EXPECT_LT(cn.seg_syn_begin(s), cn.seg_syn_end(s));  // runs are non-empty
      EXPECT_GT(cn.seg_delay(s), prev_delay);  // strictly increasing delays
      prev_delay = cn.seg_delay(s);
      for (std::size_t k = cn.seg_syn_begin(s); k < cn.seg_syn_end(s); ++k) {
        EXPECT_EQ(cn.syn_delay(k), cn.seg_delay(s));
      }
      expect_next = cn.seg_syn_end(s);
      ++total_segments;
    }
    EXPECT_EQ(expect_next, cn.out_end(i));  // segments tile the row exactly

    // Stability: the row equals the insertion sequence stably sorted by
    // delay — filtering the insertion sequence by one delay must reproduce
    // the corresponding run element-for-element.
    std::size_t k = cn.out_begin(i);
    for (Delay d = 1; d <= 5; ++d) {
      for (const Synapse& s : inserted[i]) {
        if (s.delay != d) continue;
        ASSERT_LT(k, cn.out_end(i));
        EXPECT_EQ(cn.syn_target(k), s.target);
        EXPECT_DOUBLE_EQ(cn.syn_weight(k), s.weight);
        ++k;
      }
    }
    EXPECT_EQ(k, cn.out_end(i));
  }
  EXPECT_EQ(total_segments, cn.num_delay_segments());
}

TEST(CompiledNetwork, PositiveInWeightIsMaintainedIncrementally) {
  // The builder keeps the positive in-weight table up to date on every
  // add_synapse (no O(m) rescan), and compile() carries it over verbatim.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_threshold_neuron(1);
  EXPECT_DOUBLE_EQ(net.positive_in_weight(sink), 0.0);
  net.add_synapse(a, sink, 2.5, 1);
  EXPECT_DOUBLE_EQ(net.positive_in_weight(sink), 2.5);
  net.add_synapse(a, sink, -4, 1);  // inhibition does not count
  EXPECT_DOUBLE_EQ(net.positive_in_weight(sink), 2.5);
  net.add_synapse(sink, sink, 1, 1);  // self-excitation does
  EXPECT_DOUBLE_EQ(net.positive_in_weight(sink), 3.5);

  const CompiledNetwork cn = net.compile();
  EXPECT_DOUBLE_EQ(cn.positive_in_weight(sink), 3.5);
  EXPECT_DOUBLE_EQ(cn.positive_in_weight(a), 0.0);
}

TEST(CompiledNetwork, CarriesGroupsOver) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.define_group("inputs", {a, b});
  net.define_group("outputs", {b});

  const CompiledNetwork cn = net.compile();
  EXPECT_TRUE(cn.has_group("inputs"));
  EXPECT_FALSE(cn.has_group("nope"));
  EXPECT_EQ(cn.group("inputs"), (std::vector<NeuronId>{a, b}));
  EXPECT_EQ(cn.group_names(), (std::vector<std::string>{"inputs", "outputs"}));
  EXPECT_THROW(cn.group("nope"), InvalidArgument);
}

TEST(CompiledNetwork, FreezeIsASnapshot) {
  // Mutating the builder after compile() must not affect the frozen copy.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const CompiledNetwork before = net.compile();
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 4);
  EXPECT_EQ(before.num_neurons(), 1u);
  EXPECT_EQ(before.num_synapses(), 0u);
  const CompiledNetwork after = net.compile();
  EXPECT_EQ(after.num_neurons(), 2u);
  EXPECT_EQ(after.max_delay(), 4);
}

TEST(Simulator, InjectedSpikeFiresAndPropagates) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 5);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  const SimStats st = sim.run();
  EXPECT_EQ(sim.first_spike(a), 0);
  EXPECT_EQ(sim.first_spike(b), 5);  // arrival at s + d fires at s + d
  EXPECT_EQ(st.spikes, 2u);
}

TEST(Simulator, SubthresholdInputAccumulatesWithoutDecay) {
  Network net;
  const NeuronId src1 = net.add_threshold_neuron(1);
  const NeuronId src2 = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_threshold_neuron(2);  // needs 2 units
  net.add_synapse(src1, sink, 1, 1);
  net.add_synapse(src2, sink, 1, 4);
  Simulator sim(net);
  sim.inject_spike(src1, 0);
  sim.inject_spike(src2, 0);
  sim.run();
  // τ = 0: the unit from src1 (arrives t=1) persists until src2's unit
  // arrives at t=4 and pushes the potential to threshold.
  EXPECT_EQ(sim.first_spike(sink), 4);
}

TEST(Simulator, FullDecayMakesGateMemoryless) {
  Network net;
  const NeuronId src1 = net.add_threshold_neuron(1);
  const NeuronId src2 = net.add_threshold_neuron(1);
  const NeuronId gate = net.add_neuron(NeuronParams{0, 2, 1.0});  // τ = 1
  net.add_synapse(src1, gate, 1, 1);
  net.add_synapse(src2, gate, 1, 4);
  Simulator sim(net);
  sim.inject_spike(src1, 0);
  sim.inject_spike(src2, 0);
  sim.run();
  // With τ = 1 the early unit decays away before the late one arrives.
  EXPECT_EQ(sim.first_spike(gate), kNever);
}

TEST(Simulator, FractionalDecayFollowsClosedForm) {
  Network net;
  const NeuronId src = net.add_threshold_neuron(1);
  const NeuronId probe = net.add_neuron(NeuronParams{0, 100, 0.5});
  const NeuronId late = net.add_threshold_neuron(1);
  net.add_synapse(src, probe, 8, 1);
  net.add_synapse(late, probe, 0.0, 4);  // zero-weight touch forces an update
  Simulator sim(net);
  sim.inject_spike(src, 0);
  sim.inject_spike(late, 0);
  sim.run();
  // v = 8 at t=1; after 3 more steps of τ=0.5 decay: 8 * (1/2)^3 = 1.
  EXPECT_DOUBLE_EQ(sim.potential(probe), 1.0);
}

TEST(Simulator, ThresholdTestIsGreaterOrEqual) {
  Network net;
  const NeuronId src = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_threshold_neuron(1);
  net.add_synapse(src, sink, 1, 1);  // exactly threshold
  Simulator sim(net);
  sim.inject_spike(src, 0);
  sim.run();
  EXPECT_EQ(sim.first_spike(sink), 1);
}

TEST(Simulator, ResetVoltageAfterFire) {
  Network net;
  const NeuronId src = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_neuron(NeuronParams{-3, 1, 0.0});
  net.add_synapse(src, sink, 5, 1);
  Simulator sim(net);
  sim.inject_spike(src, 0);
  sim.run();
  EXPECT_EQ(sim.first_spike(sink), 1);
  EXPECT_DOUBLE_EQ(sim.potential(sink), -3.0);  // Eq. (3): reset to v_reset
}

TEST(Simulator, InhibitionCancelsSameStepExcitation) {
  Network net;
  const NeuronId exc = net.add_threshold_neuron(1);
  const NeuronId inh = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_threshold_neuron(1);
  net.add_synapse(exc, sink, 1, 2);
  net.add_synapse(inh, sink, -1, 2);
  Simulator sim(net);
  sim.inject_spike(exc, 0);
  sim.inject_spike(inh, 0);
  sim.run();
  EXPECT_EQ(sim.first_spike(sink), kNever);
}

TEST(Simulator, SelfLoopLatchFiresIndefinitelyUntilHorizon) {
  Network net;
  const NeuronId m = net.add_threshold_neuron(1);
  net.add_synapse(m, m, 1, 1);
  Simulator sim(net);
  sim.inject_spike(m, 0);
  SimConfig cfg;
  cfg.max_time = 10;
  const SimStats st = sim.run(cfg);
  EXPECT_EQ(sim.spike_count(m), 11u);  // t = 0..10
  EXPECT_EQ(st.spikes, 11u);
}

TEST(Simulator, TerminalNeuronStopsComputation) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  const NeuronId c = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 3);
  net.add_synapse(b, c, 1, 10);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  SimConfig cfg;
  cfg.terminal_neurons = {b};
  const SimStats st = sim.run(cfg);
  EXPECT_TRUE(st.hit_terminal);
  EXPECT_EQ(st.execution_time, 3);  // Definition 3's T
  EXPECT_EQ(sim.first_spike(c), kNever);
}

TEST(Simulator, EventDrivenSkipsIdleTime) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 1000000);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  const SimStats st = sim.run();
  EXPECT_EQ(sim.first_spike(b), 1000000);
  EXPECT_EQ(st.event_times, 2u);  // only t = 0 and t = 10^6 touched
}

TEST(Simulator, RecordsFirstSpikeCause) {
  Network net;
  const NeuronId near = net.add_threshold_neuron(1);
  const NeuronId far = net.add_threshold_neuron(1);
  const NeuronId sink = net.add_threshold_neuron(1);
  net.add_synapse(near, sink, 1, 2);
  net.add_synapse(far, sink, 1, 7);
  Simulator sim(net);
  sim.inject_spike(near, 0);
  sim.inject_spike(far, 0);
  SimConfig cfg;
  cfg.record_causes = true;
  sim.run(cfg);
  EXPECT_EQ(sim.first_spike(sink), 2);
  EXPECT_EQ(sim.first_spike_cause(sink), near);
}

TEST(Simulator, SpikeLogIsOrderedAndComplete) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 2);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  SimConfig cfg;
  cfg.record_spike_log = true;
  sim.run(cfg);
  ASSERT_EQ(sim.spike_log().size(), 2u);
  EXPECT_EQ(sim.spike_log()[0], (std::pair<Time, NeuronId>{0, a}));
  EXPECT_EQ(sim.spike_log()[1], (std::pair<Time, NeuronId>{2, b}));
}

TEST(Simulator, RunIsOneShot) {
  Network net;
  net.add_threshold_neuron(1);
  Simulator sim(net);
  sim.run();
  EXPECT_THROW(sim.run(), InvalidArgument);
}

TEST(Simulator, TimeLimitReported) {
  Network net;
  const NeuronId m = net.add_threshold_neuron(1);
  net.add_synapse(m, m, 1, 1);
  Simulator sim(net);
  sim.inject_spike(m, 0);
  SimConfig cfg;
  cfg.max_time = 5;
  const SimStats st = sim.run(cfg);
  EXPECT_EQ(st.end_time, 5);
  EXPECT_FALSE(st.hit_terminal);
}

TEST(Simulator, ForcedAndSynapticSpikeSameStepFiresOnce) {
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, 1);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  sim.inject_spike(b, 1);  // collides with a's delivery at t = 1
  sim.run();
  EXPECT_EQ(sim.spike_count(b), 1u);
}

static_assert(!std::is_copy_constructible_v<Simulator>);
static_assert(!std::is_copy_assignable_v<Simulator>);
static_assert(std::is_move_constructible_v<Simulator>);

TEST(Simulator, MovedOwningSimulatorOutlivesItsSource) {
  // A Simulator built from a Network owns its frozen copy. Moving it must
  // carry that copy along: after the source is destroyed, the moved-to
  // simulator still runs the original network (under ASan, a dangling
  // network pointer here is a use-after-scope report).
  auto source = std::make_unique<Simulator>([] {
    Network net;
    const NeuronId a = net.add_threshold_neuron(1);
    const NeuronId b = net.add_threshold_neuron(1);
    const NeuronId c = net.add_threshold_neuron(2);
    net.add_synapse(a, b, 1, 3);
    net.add_synapse(b, c, 2, 4);
    return net;
  }());
  Simulator moved(std::move(*source));
  source.reset();
  ASSERT_EQ(moved.network().num_neurons(), 3u);
  EXPECT_EQ(moved.network().num_synapses(), 2u);
  moved.inject_spike(0, 0);
  const SimStats st = moved.run();
  EXPECT_EQ(st.spikes, 3u);
  EXPECT_EQ(moved.first_spike(1), 3);
  EXPECT_EQ(moved.first_spike(2), 7);
  moved.reset();
  moved.inject_spike(1, 2);
  moved.run();
  EXPECT_EQ(moved.first_spike(0), kNever);
  EXPECT_EQ(moved.first_spike(2), 6);
}

TEST(Probe, InjectAndDecodeBinary) {
  Network net;
  std::vector<NeuronId> bus;
  for (int i = 0; i < 6; ++i) bus.push_back(net.add_threshold_neuron(1));
  Simulator sim(net);
  inject_binary(sim, bus, 0b101101, 0);
  sim.run();
  EXPECT_EQ(decode_binary_at(sim, bus, 0), 0b101101u);
  EXPECT_EQ(decode_binary_window(sim, bus, 0, 5), 0b101101u);
}

TEST(Probe, InjectBinaryRejectsOverflow) {
  Network net;
  std::vector<NeuronId> bus{net.add_threshold_neuron(1)};
  Simulator sim(net);
  EXPECT_THROW(inject_binary(sim, bus, 2, 0), InvalidArgument);
}

TEST(Probe, WindowDecodeSeesMidWindowSpike) {
  // Regression: a bit spiking at 0, 5, and 10 fired inside [4, 6], but the
  // old first/last-spike-only decode reported it silent (first < t0 and
  // last > t1). The fix resolves such bits from the spike log.
  Network net;
  const NeuronId inside = net.add_threshold_neuron(1);
  const NeuronId outside = net.add_threshold_neuron(1);
  Simulator sim(net);
  for (const Time t : {0, 5, 10}) sim.inject_spike(inside, t);
  for (const Time t : {0, 10}) sim.inject_spike(outside, t);
  SimConfig cfg;
  cfg.record_spike_log = true;
  sim.run(cfg);
  const std::vector<NeuronId> bus{inside, outside};
  EXPECT_EQ(decode_binary_window(sim, bus, 4, 6), 0b01u);
  EXPECT_EQ(decode_binary_window(sim, bus, 0, 10), 0b11u);
  EXPECT_EQ(decode_binary_window(sim, bus, 6, 9), 0b00u);
  EXPECT_TRUE(sim.fired_in(inside, 5, 5));
  EXPECT_FALSE(sim.fired_in(inside, 4, 4));
}

TEST(Probe, WindowDecodeAmbiguousWithoutLogThrows) {
  // Without a spike log the mid-window question is undecidable; the decoder
  // must say so instead of guessing.
  Network net;
  const NeuronId n = net.add_threshold_neuron(1);
  Simulator sim(net);
  for (const Time t : {0, 5, 10}) sim.inject_spike(n, t);
  sim.run();
  const std::vector<NeuronId> bus{n};
  EXPECT_THROW(decode_binary_window(sim, bus, 4, 6), InvalidArgument);
  // Conclusive windows still work without the log.
  EXPECT_EQ(decode_binary_window(sim, bus, 0, 3), 1u);
  EXPECT_EQ(decode_binary_window(sim, bus, 11, 12), 0u);
}

TEST(Probe, InjectBinaryValidates63BitBoundary) {
  // Regression: at bits.size() == 63 the old check skipped range validation
  // entirely, silently dropping bit 63 of oversized values.
  Network net;
  std::vector<NeuronId> bus;
  for (int i = 0; i < 63; ++i) bus.push_back(net.add_threshold_neuron(1));
  Simulator sim(net);
  EXPECT_THROW(inject_binary(sim, bus, 1ULL << 63, 0), InvalidArgument);
  const std::uint64_t max63 = (1ULL << 63) - 1;  // largest representable
  inject_binary(sim, bus, max63, 0);
  sim.run();
  EXPECT_EQ(decode_binary_at(sim, bus, 0), max63);
}

TEST(Simulator, PseudopolynomialDelayPastHorizonIsDroppedNotOverflowed) {
  // Regression: with the kNever horizon, t + delay could overflow Time
  // (signed UB) for pseudopolynomial delays. The subtraction-form guard
  // drops the event and reports hit_time_limit instead.
  Network net;
  const NeuronId a = net.add_threshold_neuron(1);
  const NeuronId b = net.add_threshold_neuron(1);
  const NeuronId c = net.add_threshold_neuron(1);
  net.add_synapse(a, b, 1, kNever / 2);
  net.add_synapse(b, c, 1, std::numeric_limits<Delay>::max() - 10);
  Simulator sim(net);
  sim.inject_spike(a, 0);
  const SimStats st = sim.run();  // default horizon: max_time = kNever
  EXPECT_EQ(sim.first_spike(b), kNever / 2);
  EXPECT_EQ(sim.spike_count(c), 0u);  // dropped, not wrapped around
  EXPECT_TRUE(st.hit_time_limit);
  EXPECT_EQ(st.end_time, kNever / 2);
}

TEST(Simulator, BothBeyondHorizonDropPathsReportTimeLimit) {
  // Consistency: work pruned at fire() time and injected spikes past the
  // horizon both surface as hit_time_limit.
  {
    Network net;
    const NeuronId a = net.add_threshold_neuron(1);
    const NeuronId b = net.add_threshold_neuron(1);
    net.add_synapse(a, b, 1, 10);
    Simulator sim(net);
    sim.inject_spike(a, 0);
    SimConfig cfg;
    cfg.max_time = 5;
    EXPECT_TRUE(sim.run(cfg).hit_time_limit);
    EXPECT_EQ(sim.spike_count(b), 0u);
  }
  {
    Network net;
    const NeuronId a = net.add_threshold_neuron(1);
    Simulator sim(net);
    sim.inject_spike(a, 10);
    SimConfig cfg;
    cfg.max_time = 5;
    EXPECT_TRUE(sim.run(cfg).hit_time_limit);
    EXPECT_EQ(sim.spike_count(a), 0u);
  }
}

}  // namespace
}  // namespace sga::snn
