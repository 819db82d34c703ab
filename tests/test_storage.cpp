// Freeze-time width-narrowed CSR storage (ARCHITECTURE.md §1.8): width
// selection rules, the kWide escape hatch, streamed generator-to-CSR
// builds matching the builder freeze bit-for-bit, the freeze-time
// validation messages that name the offending neuron/synapse, a hash pin
// of every public column for each storage layout through both freeze
// sources, and each layout's serial and sharded runs against
// ReferenceSimulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "core/random.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "obs/probe.h"
#include "snn/network.h"
#include "snn/parallel_sim.h"
#include "snn/reference_sim.h"
#include "snn/simulator.h"
#include "snn/storage.h"

namespace sga {
namespace {

using snn::CompiledNetwork;
using snn::Network;
using snn::StoragePolicy;
using snn::StorageWidths;

Network tiny_net(Delay max_delay, SynWeight w = 1.0) {
  Network net;
  for (int i = 0; i < 3; ++i) net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  net.add_synapse(0, 1, w, 1);
  net.add_synapse(1, 2, w, max_delay);
  return net;
}

TEST(StorageWidthsTest, SmallNetworkNarrowsToTheFloor) {
  const CompiledNetwork c = tiny_net(5).compile();
  const StorageWidths& w = c.storage_widths();
  EXPECT_TRUE(w.narrow);
  EXPECT_EQ(w.target_bytes, 2u);   // n = 3 fits u16
  EXPECT_EQ(w.delay_bytes, 2u);    // the one narrow delay width
  EXPECT_EQ(w.weight_bytes, 4u);   // 1.0 round-trips f32
  EXPECT_EQ(w.seg_index_bytes, 4u);
}

TEST(StorageWidthsTest, DelaysUpToTheU16CapShareOneNarrowLayout) {
  const StorageWidths small = tiny_net(5).compile().storage_widths();
  for (const Delay d : {Delay{300}, snn::kNarrowDelayCap}) {
    const CompiledNetwork c = tiny_net(d).compile();
    EXPECT_TRUE(c.storage_widths().narrow) << d;
    EXPECT_EQ(c.storage_widths(), small) << d;
    EXPECT_EQ(c.max_delay(), d);
    c.verify_invariants();
  }
}

TEST(StorageWidthsTest, DelayPastU16ForcesWide) {
  for (const Delay d : {snn::kNarrowDelayCap + 1, Delay{70000}}) {
    const CompiledNetwork c = tiny_net(d).compile();
    EXPECT_FALSE(c.storage_widths().narrow) << d;
    EXPECT_EQ(c.storage_widths().delay_bytes, sizeof(Delay));
  }
}

TEST(StorageWidthsTest, ManyNeuronsWidenTargetsToU32) {
  Network net;
  const std::size_t n = (1u << 16) + 5;
  for (std::size_t i = 0; i < n; ++i) net.add_threshold_neuron(1);
  net.add_synapse(0, static_cast<NeuronId>(n - 1), 1, 2);
  const CompiledNetwork c = net.compile();
  EXPECT_TRUE(c.storage_widths().narrow);
  EXPECT_EQ(c.storage_widths().target_bytes, 4u);
  EXPECT_EQ(c.storage_widths().delay_bytes, 2u);
}

TEST(StorageWidthsTest, WidePolicyIsAnEscapeHatch) {
  const CompiledNetwork c = tiny_net(5).compile(StoragePolicy::kWide);
  EXPECT_FALSE(c.storage_widths().narrow);
  EXPECT_EQ(c.storage_widths().target_bytes, sizeof(NeuronId));
  EXPECT_EQ(c.storage_widths().weight_bytes, sizeof(SynWeight));
  c.verify_invariants();
}

TEST(StorageWidthsTest, NarrowFreezeIsSubstantiallySmaller) {
  // The acceptance bar: on a real SSSP fabric the narrow freeze must be at
  // least 30% smaller than the wide oracle layout.
  Rng rng(0x51AE);
  const Graph g = make_random_graph(500, 4000, {1, 12}, rng);
  const Network net = nga::build_sssp_network(g);
  const CompiledNetwork narrow = net.compile();
  const CompiledNetwork wide = net.compile(StoragePolicy::kWide);
  ASSERT_TRUE(narrow.storage_widths().narrow);
  ASSERT_FALSE(wide.storage_widths().narrow);
  EXPECT_LE(static_cast<double>(narrow.csr_storage_bytes()),
            0.7 * static_cast<double>(wide.csr_storage_bytes()))
      << "narrow " << narrow.csr_storage_bytes() << " wide "
      << wide.csr_storage_bytes();
  EXPECT_GT(narrow.bytes_per_synapse(), 0.0);
  EXPECT_LT(narrow.bytes_per_synapse(), wide.bytes_per_synapse());
}

TEST(StorageWidthsTest, SimStatsReportTheFrozenFootprint) {
  const CompiledNetwork c = tiny_net(5).compile();
  snn::Simulator sim(c);
  sim.inject_spike(0, 0);
  const snn::SimStats stats = sim.run();
  EXPECT_EQ(stats.csr_bytes, c.csr_storage_bytes());
  sim.reset();
  sim.inject_spike(0, 0);
  EXPECT_EQ(sim.run().csr_bytes, c.csr_storage_bytes());
}

TEST(StorageWidthsTest, RowWalkMatchesThePerSynapseAccessors) {
  // for_each_out_synapse walks each row's segments, while syn_delay finds
  // a synapse's segment by binary search over the begin column: both must
  // give every synapse the same target, weight and delay, in flat order.
  Rng rng(0xD7);
  Network net;
  for (int i = 0; i < 120; ++i) net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  for (int k = 0; k < 3000; ++k) {
    net.add_synapse(static_cast<NeuronId>(rng.uniform_int(0, 119)),
                    static_cast<NeuronId>(rng.uniform_int(0, 119)),
                    static_cast<SynWeight>(rng.uniform_int(-3, 3)),
                    rng.uniform_int(1, 12));
  }
  for (const StoragePolicy policy :
       {StoragePolicy::kAuto, StoragePolicy::kWide}) {
    const CompiledNetwork c = net.compile(policy);
    std::size_t walked = 0;
    for (NeuronId id = 0; id < c.num_neurons(); ++id) {
      std::size_t expect_k = c.out_begin(id);
      c.for_each_out_synapse(
          id, [&](std::size_t k, NeuronId tgt, SynWeight wt, Delay d) {
            ASSERT_EQ(k, expect_k++);
            EXPECT_EQ(tgt, c.syn_target(k)) << "syn " << k;
            EXPECT_EQ(wt, c.syn_weight(k)) << "syn " << k;
            EXPECT_EQ(d, c.syn_delay(k)) << "syn " << k;
            ++walked;
          });
      EXPECT_EQ(expect_k, c.out_end(id));
    }
    EXPECT_EQ(walked, c.num_synapses())
        << snn::encoding_name(c.storage_widths());
  }
}

// ---- Streamed builds ----------------------------------------------------

TEST(StreamCompileTest, StreamedFreezeMatchesBuilderFreezeExactly) {
  // The same relay-chain edges through both paths: compile_sssp_streamed
  // must reproduce the builder freeze synapse-for-synapse (same CSR
  // packing) and event-for-event (same SSSP run).
  const std::size_t n = 200;
  const std::uint64_t seed = 0xBEE5;
  auto edges = [&](const EdgeStream& emit) {
    stream_relay_chain(n, 3, 20, {1, 9}, seed, emit);
  };

  // Builder path: materialize the same edges into a Graph.
  Graph g(n);
  edges([&](VertexId u, VertexId v, Weight w) { g.add_edge(u, v, w); });
  const CompiledNetwork built = nga::build_sssp_network(g).compile();

  snn::StreamBuildStats bs;
  const CompiledNetwork streamed =
      nga::compile_sssp_streamed(n, edges, StoragePolicy::kAuto, &bs);
  streamed.verify_invariants();

  EXPECT_EQ(bs.num_neurons, n);
  EXPECT_EQ(bs.num_synapses, streamed.num_synapses());
  EXPECT_EQ(bs.csr_bytes, streamed.csr_storage_bytes());
  EXPECT_GE(bs.peak_resident_bytes, bs.csr_bytes);

  ASSERT_EQ(streamed.num_neurons(), built.num_neurons());
  ASSERT_EQ(streamed.num_synapses(), built.num_synapses());
  EXPECT_EQ(streamed.max_delay(), built.max_delay());
  EXPECT_EQ(streamed.storage_widths(), built.storage_widths());
  for (NeuronId i = 0; i < n; ++i) {
    ASSERT_EQ(streamed.out_begin(i), built.out_begin(i)) << "neuron " << i;
    ASSERT_EQ(streamed.seg_begin(i), built.seg_begin(i)) << "neuron " << i;
    EXPECT_DOUBLE_EQ(streamed.positive_in_weight(i),
                     built.positive_in_weight(i))
        << "neuron " << i;
  }
  for (std::size_t k = 0; k < built.num_synapses(); ++k) {
    ASSERT_EQ(streamed.syn_target(k), built.syn_target(k)) << "syn " << k;
    ASSERT_EQ(streamed.syn_weight(k), built.syn_weight(k)) << "syn " << k;
    ASSERT_EQ(streamed.syn_delay(k), built.syn_delay(k)) << "syn " << k;
  }

  auto run = [](const CompiledNetwork& net) {
    snn::Simulator sim(net);
    sim.inject_spike(0, 0);
    snn::SimConfig cfg;
    cfg.record_spike_log = true;
    sim.run(cfg);
    return sim.spike_log();
  };
  EXPECT_EQ(run(streamed), run(built));

  // And the run solves SSSP: first-spike times equal Dijkstra distances.
  const auto ref = dijkstra(g, 0);
  snn::Simulator sim(streamed);
  sim.inject_spike(0, 0);
  sim.run();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(sim.first_spike(v), static_cast<Time>(ref.dist[v]))
        << "vertex " << v;
  }
}

TEST(StreamCompileTest, GridAndRmatStreamsFreezeAndVerify) {
  {
    snn::StreamBuildStats bs;
    auto edges = [](const EdgeStream& emit) {
      stream_grid(12, 17, {1, 4}, 0x60D, emit);
    };
    const CompiledNetwork c =
        nga::compile_sssp_streamed(12 * 17, edges, StoragePolicy::kAuto, &bs);
    c.verify_invariants();
    EXPECT_EQ(bs.num_synapses, 2u * 12 * 17 + 12 * 17);  // edges + guards
    EXPECT_TRUE(c.storage_widths().narrow);
  }
  {
    auto edges = [](const EdgeStream& emit) {
      stream_rmat(8, 1500, 0.57, 0.19, 0.19, {1, 7}, 0x42A7, emit);
    };
    const CompiledNetwork c = nga::compile_sssp_streamed(1u << 8, edges);
    c.verify_invariants();
    EXPECT_EQ(c.num_synapses(), 1500u + (1u << 8));
    EXPECT_TRUE(c.storage_widths().narrow);
  }
}

TEST(StreamCompileTest, StreamedGeneratorsReplayDeterministically) {
  // The two-pass freeze hinges on the stream_* contract: same seed, same
  // edge sequence, every invocation.
  auto collect = [](auto&& gen) {
    std::vector<std::tuple<VertexId, VertexId, Weight>> out;
    gen([&](VertexId u, VertexId v, Weight w) { out.emplace_back(u, v, w); });
    return out;
  };
  auto relay = [](const EdgeStream& e) {
    stream_relay_chain(100, 2, 10, {1, 5}, 7, e);
  };
  auto rmat = [](const EdgeStream& e) {
    stream_rmat(6, 300, 0.5, 0.2, 0.2, {1, 3}, 9, e);
  };
  EXPECT_EQ(collect(relay), collect(relay));
  EXPECT_EQ(collect(rmat), collect(rmat));
}

// ---- Freeze-time validation messages (what failed, and where) -----------

std::string message_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument";
  return {};
}

TEST(FreezeValidationTest, MessagesNameTheOffendingNeuronAndValue) {
  {
    // τ out of range: names the neuron ordinal and the bad value.
    Network net;
    net.add_neuron();
    const std::string msg = message_of(
        [&] { net.add_neuron(snn::NeuronParams{0, 1, 1.5}); });
    EXPECT_NE(msg.find("neuron 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1.5"), std::string::npos) << msg;
  }
  {
    // Non-finite threshold caught at freeze time, with the neuron id and
    // both parameter values in the message.
    Network net;
    net.add_neuron();
    net.add_neuron(
        snn::NeuronParams{0, std::numeric_limits<Voltage>::infinity(), 0.0});
    const std::string msg = message_of([&] { net.compile(); });
    EXPECT_NE(msg.find("neuron 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
  }
  {
    // Non-finite weight: names the synapse ordinal and its source neuron.
    Network net;
    net.add_neuron();
    net.add_neuron();
    net.add_synapse(0, 1, 1, 1);
    net.add_synapse(1, 0, std::numeric_limits<SynWeight>::quiet_NaN(), 1);
    const std::string msg = message_of([&] { net.compile(); });
    EXPECT_NE(msg.find("synapse 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("from neuron 1"), std::string::npos) << msg;
  }
}

TEST(FreezeValidationTest, StreamedMessagesNameTheOffendingSynapse) {
  auto params = [](NeuronId) { return snn::NeuronParams{0, 1, 0.0}; };
  {
    // Out-of-range target, with the synapse ordinal and both endpoints.
    const std::string msg = message_of([&] {
      snn::CompiledNetwork::compile_streamed(
          3, params, [](const snn::SynapseSink& sink) {
            sink(0, 1, 1, 1);
            sink(1, 9, 1, 1);
          });
    });
    EXPECT_NE(msg.find("synapse 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("neuron 9"), std::string::npos) << msg;
  }
  {
    // Sub-δ delay names the ordinal, the source, and the bad delay.
    const std::string msg = message_of([&] {
      snn::CompiledNetwork::compile_streamed(
          3, params, [](const snn::SynapseSink& sink) {
            sink(2, 1, 1, 0);
          });
    });
    EXPECT_NE(msg.find("synapse 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("from neuron 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("delay 0"), std::string::npos) << msg;
  }
  {
    // Bad τ from the params callback names the neuron and the value.
    const std::string msg = message_of([&] {
      snn::CompiledNetwork::compile_streamed(
          2, [](NeuronId id) { return snn::NeuronParams{0, 1, id * 2.0}; },
          [](const snn::SynapseSink&) {});
    });
    EXPECT_NE(msg.find("neuron 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("τ = 2"), std::string::npos) << msg;
  }
}

TEST(FreezeValidationTest, NonDeterministicEmitterFailsLoudly) {
  auto params = [](NeuronId) { return snn::NeuronParams{0, 1, 0.0}; };
  {
    // Extra synapse in pass 2.
    int calls = 0;
    const std::string msg = message_of([&] {
      snn::CompiledNetwork::compile_streamed(
          3, params, [&](const snn::SynapseSink& sink) {
            sink(0, 1, 1, 1);
            if (++calls > 1) sink(1, 2, 1, 1);
          });
    });
    EXPECT_NE(msg.find("must be deterministic"), std::string::npos) << msg;
  }
  {
    // Missing synapse in pass 2.
    int calls = 0;
    const std::string msg = message_of([&] {
      snn::CompiledNetwork::compile_streamed(
          3, params, [&](const snn::SynapseSink& sink) {
            if (++calls == 1) sink(0, 1, 1, 1);
          });
    });
    EXPECT_NE(msg.find("must be deterministic"), std::string::npos) << msg;
  }
  {
    // Same count, different source: overflows that row's degree.
    int calls = 0;
    const std::string msg = message_of([&] {
      snn::CompiledNetwork::compile_streamed(
          3, params, [&](const snn::SynapseSink& sink) {
            sink(++calls == 1 ? 0 : 1, 2, 1, 1);
            sink(1, 2, 1, 1);
          });
    });
    EXPECT_NE(msg.find("must be deterministic"), std::string::npos) << msg;
  }
}

// ---- Freeze identity pin --------------------------------------------------

/// One FNV-1a step: fold the 8 bytes of `v` into `h`.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over every public column of a frozen network: row and segment
/// pointers, the per-synapse and per-segment columns, the positive
/// in-weight table and the widths. A 0 stands where the retired packed
/// flag was hashed, so the pins below keep their values.
std::uint64_t freeze_hash(const CompiledNetwork& c) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) { h = fnv_mix(h, v); };
  auto mix_double = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  const std::size_t n = c.num_neurons();
  mix(n);
  for (NeuronId i = 0; i <= n; ++i) {
    mix(i < n ? c.out_begin(i) : c.num_synapses());
    mix(i < n ? c.seg_begin(i) : c.num_delay_segments());
  }
  for (std::size_t k = 0; k < c.num_synapses(); ++k) {
    mix(c.syn_target(k));
    mix_double(c.syn_weight(k));
    mix(static_cast<std::uint64_t>(c.syn_delay(k)));
  }
  for (std::size_t s = 0; s < c.num_delay_segments(); ++s) {
    mix(static_cast<std::uint64_t>(c.seg_delay(s)));
    mix(c.seg_syn_begin(s));
    mix(c.seg_syn_end(s));
  }
  for (NeuronId i = 0; i < n; ++i) mix_double(c.positive_in_weight(i));
  const StorageWidths& w = c.storage_widths();
  mix(w.narrow);
  mix(0);
  mix(w.target_bytes);
  mix(w.delay_bytes);
  mix(w.weight_bytes);
  mix(w.seg_index_bytes);
  return h;
}

struct PinCase {
  std::size_t n;
  Delay max_delay;  ///< 9 or 300: both fit the one narrow delay width (u16)
  bool f32;         ///< weights that round-trip float32, or ones that do not
  StoragePolicy policy;
  std::size_t variant;  ///< the SynStoreVariant alternative it must land in
  /// The pinned hash: freeze_hash continued with bytes_then.
  std::uint64_t hash;
  /// The resident byte count the same network had while stores kept a
  /// per-synapse delay column and a segment end column, and held max delay
  /// 9 in u8 delays.
  std::size_t bytes_then;
  std::size_t bytes;  ///< csr_storage_bytes() of the freeze
};

static_assert(std::variant_size_v<snn::SynStoreVariant> == 5);

/// At least one network per SynStoreVariant alternative. The max delay 9
/// cases froze to u8 delays until narrow stores got one delay width; their
/// hashes differ from the pins of that time only in the delay width byte.
const PinCase kPinCases[] = {
    {40, 9, true, StoragePolicy::kWide, 0, 0x6eeec56e2c413673, 17144, 10856},
    {40, 9, true, StoragePolicy::kAuto, 1, 0xd3e72d123bf44464, 6539, 5382},
    {40, 9, false, StoragePolicy::kAuto, 2, 0xfe79b2ab209ee468, 8939, 7782},
    {40, 300, true, StoragePolicy::kAuto, 1, 0x86266af8339e7f07, 7276, 5352},
    {40, 300, false, StoragePolicy::kAuto, 2, 0xc9368befd8b4fa64, 9676, 7752},
    {70000, 9, true, StoragePolicy::kAuto, 3, 0x791d1b501d26ebf1, 1129574,
     1127592},
    {70000, 9, false, StoragePolicy::kAuto, 4, 0x3065ff8b3826eea6, 1131974,
     1129992},
    {70000, 300, true, StoragePolicy::kAuto, 3, 0x11065d8c8bb0bee0, 1131086,
     1127862},
    {70000, 300, false, StoragePolicy::kAuto, 4, 0x3400c4d1a97a1f8b, 1133486,
     1130262},
};

struct PinSyn {
  NeuronId from, to;
  SynWeight w;
  Delay d;
};

/// A case's deterministic synapse list: a quarter of the synapses land on 8
/// dense rows, the rest spread over all neurons; the first synapse carries
/// max_delay so the delay width is decided by the case. Rows come out of
/// delay order with repeated delays.
std::vector<PinSyn> pin_synapses(const PinCase& pc) {
  std::vector<PinSyn> syns;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL ^ pc.n ^ (pc.max_delay << 20);
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  for (std::size_t k = 0; k < 600; ++k) {
    const NeuronId from = static_cast<NeuronId>(
        next() % 4 == 0 ? next() % 8 : next() % pc.n);
    const auto to = static_cast<NeuronId>(next() % pc.n);
    const auto step = static_cast<SynWeight>(static_cast<int>(next() % 9) - 4);
    const SynWeight w = pc.f32 ? step * 0.5 : step * 0.1 + 0.05;
    const Delay d = k == 0 ? pc.max_delay
                           : 1 + static_cast<Delay>(next() % 5) *
                                     (pc.max_delay / 5);
    syns.push_back({from, to, w, d});
  }
  return syns;
}

snn::NeuronParams pin_params(NeuronId i) {
  return snn::NeuronParams{0.25 * (i % 3), 1.0 + i % 7, 0.25 * (i % 5)};
}

/// Livelier parameters for the drain test: thresholds at least 0.02 away
/// from every sum of the inexact weights (odd multiples of 0.05), and
/// τ ∈ {0, 1}, so no threshold test depends on summation order.
snn::NeuronParams drain_params(NeuronId i) {
  return snn::NeuronParams{0, 0.33 + 0.25 * (i % 3), 1.0 * (i % 2)};
}

Network pin_network(const PinCase& pc, const std::vector<PinSyn>& syns,
                    snn::NeuronParams (*params)(NeuronId) = pin_params) {
  Network net;
  for (NeuronId i = 0; i < pc.n; ++i) net.add_neuron(params(i));
  for (const PinSyn& s : syns) net.add_synapse(s.from, s.to, s.w, s.d);
  return net;
}

TEST(FreezeIdentityTest, EveryLayoutMatchesItsPinnedHash) {
  // Fixed small networks frozen into each of the 5 SynStoreVariant
  // alternatives, through the builder and through an edge stream carrying
  // the same synapse sequence. The stable per-row sort and the delay runs
  // are exercised; the hashes pin every public column, so any change to
  // what a freeze produces shows here. The resident bytes are pinned
  // apart.
  std::vector<bool> seen(std::variant_size_v<snn::SynStoreVariant>, false);
  for (const PinCase& pc : kPinCases) {
    SCOPED_TRACE(testing::Message() << "n " << pc.n << ", max delay "
                                    << pc.max_delay << ", f32 " << pc.f32
                                    << ", variant " << pc.variant);
    const std::vector<PinSyn> syns = pin_synapses(pc);
    Network net = pin_network(pc, syns);
    net.define_group("out", {0, 1, 2});
    const CompiledNetwork built = net.compile(pc.policy);
    const CompiledNetwork streamed = CompiledNetwork::compile_streamed(
        pc.n, pin_params,
        [&syns](const snn::SynapseSink& sink) {
          for (const PinSyn& s : syns) sink(s.from, s.to, s.w, s.d);
        },
        pc.policy);

    EXPECT_EQ(built.synapse_store().index(), pc.variant);
    EXPECT_EQ(streamed.synapse_store().index(), pc.variant);
    seen[built.synapse_store().index()] = true;
    for (const CompiledNetwork* c : {&built, &streamed}) {
      const std::uint64_t h = fnv_mix(freeze_hash(*c), pc.bytes_then);
      EXPECT_EQ(h, pc.hash) << std::hex << "0x" << h;
      EXPECT_EQ(c->csr_storage_bytes(), pc.bytes);
    }
    EXPECT_EQ(built.group("out"), (std::vector<NeuronId>{0, 1, 2}));
  }
  for (std::size_t v = 0; v < seen.size(); ++v) {
    EXPECT_TRUE(seen[v]) << "no case lands in variant alternative " << v;
  }
}

// ---- Every layout's drain against the oracle -----------------------------

/// What a run reports, in the form every engine can give it.
struct DrainRun {
  snn::SimStats stats;
  std::vector<std::pair<Time, NeuronId>> log;
  std::vector<Time> first;
  std::vector<NeuronId> causes;
  std::vector<std::uint64_t> deliveries;  ///< per target (probe counts)
};

/// The reference's view of the same run. ReferenceSimulator records no
/// causes and takes no probe, so both are derived from its watch-all log:
/// a delivery is a logged spike's synapse arriving at or before the last
/// processed step, and a first fire's cause is the source of the largest
/// positive weight arriving at that step (ties to the smallest source id),
/// kNoNeuron for an injected first fire.
DrainRun reference_run(const Network& net, const std::vector<PinSyn>& syns,
                       const std::vector<std::pair<NeuronId, Time>>& inputs,
                       const snn::SimConfig& cfg) {
  auto drive = [&](snn::SimConfig c, DrainRun* r) {
    c.record_causes = false;
    snn::ReferenceSimulator ref(net);
    for (const auto& [id, t] : inputs) ref.inject_spike(id, t);
    r->stats = ref.run(c);
    r->log = ref.spike_log();
    r->first = ref.first_spikes();
  };
  DrainRun want;
  drive(cfg, &want);
  snn::SimConfig all = cfg;
  all.watched_neurons.clear();
  DrainRun full;
  drive(all, &full);

  const std::size_t n = net.num_neurons();
  std::vector<std::vector<const PinSyn*>> out(n);
  for (const PinSyn& s : syns) out[s.from].push_back(&s);
  want.deliveries.assign(n, 0);
  struct Best {
    SynWeight w = 0;
    NeuronId source = kNoNeuron;
  };
  std::vector<Best> best(n);
  for (const auto& [t, src] : full.log) {
    for (const PinSyn* s : out[src]) {
      const Time at = t + s->d;
      if (at > full.stats.end_time) continue;
      ++want.deliveries[s->to];
      if (at != full.first[s->to]) continue;
      Best& b = best[s->to];
      if (s->w > b.w || (s->w == b.w && b.source != kNoNeuron &&
                         src < b.source)) {
        b = Best{s->w, src};
      }
    }
  }
  for (NeuronId id = 0; id < n; ++id) {
    const bool injected = std::any_of(
        inputs.begin(), inputs.end(),
        [&](const auto& in) { return in == std::pair{id, want.first[id]}; });
    want.causes.push_back(injected ? kNoNeuron : best[id].source);
  }
  return want;
}

template <typename Sim>
DrainRun engine_run(Sim& sim, std::size_t n,
                    const std::vector<std::pair<NeuronId, Time>>& inputs,
                    const snn::SimConfig& cfg) {
  obs::ProbeOptions po;
  po.count_deliveries = true;
  obs::Probe probe(po);
  sim.attach_probe(probe);
  for (const auto& [id, t] : inputs) sim.inject_spike(id, t);
  DrainRun r;
  r.stats = sim.run(cfg);
  r.log = sim.spike_log();
  r.first = sim.first_spikes();
  for (NeuronId id = 0; id < n; ++id) {
    r.causes.push_back(sim.first_spike_cause(id));
  }
  r.deliveries = probe.delivery_counts();
  return r;
}

TEST(StorageDrainTest, EveryLayoutRunsLikeTheReferenceSerialAndSharded) {
  // The drain loop, fire and the fan-out kernel are instantiated once per
  // store layout. Each pinned layout's network runs serially and on 2
  // shards with causes, a watched spike log, one terminal and a
  // delivery-counting probe, and must reproduce ReferenceSimulator's
  // spikes, first spikes, causes, deliveries and log.
  for (const PinCase& pc : kPinCases) {
    SCOPED_TRACE(testing::Message() << "variant " << pc.variant);
    const std::vector<PinSyn> syns = pin_synapses(pc);
    const Network net = pin_network(pc, syns, drain_params);
    const CompiledNetwork c = net.compile(pc.policy);
    ASSERT_EQ(c.synapse_store().index(), pc.variant);

    // The dense rows fire one per step, then a second volley.
    std::vector<std::pair<NeuronId, Time>> inputs;
    for (NeuronId i = 0; i < 8; ++i) {
      inputs.emplace_back(i, i);
      inputs.emplace_back(i, 2 * pc.max_delay + i);
    }
    snn::SimConfig cfg;
    cfg.max_time = 20 * pc.max_delay;
    cfg.record_spike_log = true;
    cfg.record_causes = true;

    // Terminal and watch list from a free run: the terminal is the neuron
    // whose first fire is the upper quartile of the uninjected first fires,
    // and every second neuron that fires is watched.
    const DrainRun free_run = reference_run(net, syns, inputs, cfg);
    std::vector<std::pair<Time, NeuronId>> firsts;
    std::vector<NeuronId> fired;
    for (NeuronId id = 0; id < pc.n; ++id) {
      if (free_run.first[id] == kNever) continue;
      fired.push_back(id);
      if (id >= 8) firsts.emplace_back(free_run.first[id], id);
    }
    ASSERT_GE(firsts.size(), 3u);
    std::sort(firsts.begin(), firsts.end());
    const NeuronId terminal = firsts[3 * firsts.size() / 4].second;
    cfg.terminal_neurons = {terminal};
    for (std::size_t k = 0; k < fired.size(); k += 2) {
      cfg.watched_neurons.push_back(fired[k]);
    }

    const DrainRun want = reference_run(net, syns, inputs, cfg);
    ASSERT_TRUE(want.stats.hit_terminal);
    std::uint64_t derived = 0;
    for (const std::uint64_t d : want.deliveries) derived += d;
    ASSERT_EQ(derived, want.stats.deliveries);
    ASSERT_TRUE(std::any_of(want.causes.begin(), want.causes.end(),
                            [](NeuronId s) { return s != kNoNeuron; }));

    snn::Simulator serial(c);
    snn::ParallelConfig pcfg;
    pcfg.num_shards = 2;
    pcfg.num_threads = 1;
    snn::ParallelSimulator sharded(c, pcfg);
    std::vector<std::pair<Time, NeuronId>> want_sorted = want.log;
    std::sort(want_sorted.begin(), want_sorted.end());
    for (const bool shard : {false, true}) {
      SCOPED_TRACE(shard ? "2 shards" : "serial");
      const DrainRun got =
          shard ? engine_run(sharded, pc.n, inputs, cfg)
                : engine_run(serial, pc.n, inputs, cfg);
      // The sharded engine logs in (time, id) order.
      EXPECT_EQ(got.log, shard ? want_sorted : want.log);
      EXPECT_EQ(got.first, want.first);
      EXPECT_EQ(got.causes, want.causes);
      EXPECT_EQ(got.deliveries, want.deliveries);
      EXPECT_EQ(got.stats.spikes, want.stats.spikes);
      EXPECT_EQ(got.stats.deliveries, want.stats.deliveries);
      EXPECT_EQ(got.stats.end_time, want.stats.end_time);
      EXPECT_EQ(got.stats.execution_time, want.stats.execution_time);
      EXPECT_EQ(got.stats.hit_terminal, want.stats.hit_terminal);
    }
  }
}

}  // namespace
}  // namespace sga
