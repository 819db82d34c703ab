// Tests for SNN serialization (round trips, behavioural equivalence of the
// reloaded network, malformed-input rejection) and the one-hot encoder
// circuit.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "circuits/encoder.h"
#include "circuits/max_circuits.h"
#include "core/random.h"
#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "snn/io.h"
#include "snn/probe.h"
#include "snn/simulator.h"

namespace sga::snn {
namespace {

TEST(SnnIo, RoundTripPreservesStructure) {
  Network net;
  const NeuronId a = net.add_neuron(NeuronParams{-1.5, 2, 0.25});
  const NeuronId b = net.add_neuron(NeuronParams{0, 1, 1.0});
  net.add_synapse(a, b, 0.75, 3);
  net.add_synapse(b, a, -2, 1);
  net.add_synapse(b, b, 1, 7);
  net.define_group("inputs", {a});
  net.define_group("outputs", {b, a});

  std::stringstream ss;
  write_network(ss, net);
  const Network copy = read_network(ss);

  ASSERT_EQ(copy.num_neurons(), 2u);
  ASSERT_EQ(copy.num_synapses(), 3u);
  EXPECT_DOUBLE_EQ(copy.params(a).v_reset, -1.5);
  EXPECT_DOUBLE_EQ(copy.params(a).tau, 0.25);
  EXPECT_EQ(copy.params(b).v_threshold, 1);
  ASSERT_EQ(copy.out_synapses(b).size(), 2u);
  EXPECT_EQ(copy.out_synapses(b)[1].delay, 7);
  EXPECT_DOUBLE_EQ(copy.out_synapses(a)[0].weight, 0.75);
  EXPECT_EQ(copy.group("outputs"), (std::vector<NeuronId>{b, a}));
}

TEST(SnnIo, ReloadedNetworkBehavesIdentically) {
  // Serialize a compiled SSSP network, reload it, and get the same
  // distances out of the reloaded copy.
  Rng rng(0x10A);
  const Graph g = make_random_graph(15, 50, {1, 8}, rng);
  const Network original = nga::build_sssp_network(g);
  std::stringstream ss;
  write_network(ss, original);
  const Network reloaded = read_network(ss);

  auto run = [&](const Network& net) {
    Simulator sim(net);
    sim.inject_spike(0, 0);
    SimConfig cfg;
    cfg.record_spike_log = true;
    sim.run(cfg);
    return sim.spike_log();
  };
  EXPECT_EQ(run(original), run(reloaded));
}

TEST(SnnIo, CompiledFormRoundTrips) {
  // write(compiled) → read_compiled_network must reproduce the exact CSR
  // image: same packing, same aggregates, same behaviour.
  Rng rng(0x10B);
  const Graph g = make_random_graph(12, 40, {1, 6}, rng);
  const CompiledNetwork original = nga::build_sssp_network(g).compile();

  std::stringstream ss;
  write_network(ss, original);
  const CompiledNetwork reloaded = read_compiled_network(ss);

  ASSERT_EQ(reloaded.num_neurons(), original.num_neurons());
  ASSERT_EQ(reloaded.num_synapses(), original.num_synapses());
  EXPECT_EQ(reloaded.max_delay(), original.max_delay());
  for (NeuronId i = 0; i < original.num_neurons(); ++i) {
    EXPECT_EQ(reloaded.out_begin(i), original.out_begin(i)) << "neuron " << i;
    EXPECT_DOUBLE_EQ(reloaded.positive_in_weight(i),
                     original.positive_in_weight(i))
        << "neuron " << i;
  }
  for (std::size_t k = 0; k < original.num_synapses(); ++k) {
    EXPECT_EQ(reloaded.syn_target(k), original.syn_target(k)) << "syn " << k;
    EXPECT_DOUBLE_EQ(reloaded.syn_weight(k), original.syn_weight(k))
        << "syn " << k;
    EXPECT_EQ(reloaded.syn_delay(k), original.syn_delay(k)) << "syn " << k;
  }
  EXPECT_EQ(reloaded.group_names(), original.group_names());

  auto run = [](const CompiledNetwork& net) {
    Simulator sim(net);
    sim.inject_spike(0, 0);
    SimConfig cfg;
    cfg.record_spike_log = true;
    sim.run(cfg);
    return sim.spike_log();
  };
  EXPECT_EQ(run(original), run(reloaded));
}

TEST(SnnIo, RejectsMalformedInput) {
  {
    std::stringstream ss("nope 1\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    // Version 2 without its mandatory storage line is truncated.
    std::stringstream ss("snn 2\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    std::stringstream ss("snn 3\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);  // unknown version
  }
  {
    // Unknown width tag in the storage line.
    std::stringstream ss(
        "snn 2\nstorage narrow target u64 delay u8 weight f32\nneurons 0\n"
        "synapses 0\ngroups 0\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    std::stringstream ss("snn 1\nneurons 1\nn 0 1 0\nsynapses 1\ns 0 5 1 1\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);  // endpoint out of range
  }
  {
    std::stringstream ss("snn 1\nneurons 1\nn 0 1 0\nsynapses 1\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);  // truncated
  }
  {
    // Synapse line cut off mid-record: "s 0" with no target/weight/delay.
    std::stringstream ss("snn 1\nneurons 1\nn 0 1 0\nsynapses 1\ns 0\n");
    EXPECT_THROW(read_compiled_network(ss), InvalidArgument);
  }
  {
    // Delay below the minimum synaptic delay δ = 1.
    std::stringstream ss(
        "snn 1\nneurons 2\nn 0 1 0\nn 0 1 0\nsynapses 1\ns 0 1 1 0\n");
    EXPECT_THROW(read_compiled_network(ss), InvalidArgument);
  }
  {
    // Group member id out of range (only neuron 0 exists).
    std::stringstream ss(
        "snn 1\nneurons 1\nn 0 1 0\nsynapses 0\ngroups 1\ng out 1 5\n");
    EXPECT_THROW(read_compiled_network(ss), InvalidArgument);
  }
}

TEST(SnnIo, RejectsHostileCacheInput) {
  // Untrusted-cache hardening (docs/SERVICE.md): a hostile or corrupt file
  // must be rejected at parse time, BEFORE any implausible allocation and
  // before the simulator's unchecked hot-path accessors can see it.
  {
    // Negative count: parsing into an unsigned would wrap to 2^64 - 1 and
    // attempt a galactic vector resize.
    std::stringstream ss("snn 1\nneurons -1\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    // Implausibly huge count (beyond the 2^30 ceiling).
    std::stringstream ss("snn 1\nneurons 999999999999999999\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    std::stringstream ss("snn 1\nneurons 0\nsynapses 99999999999\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    // NaN decay: operator>> accepts "nan" since C++11, and a NaN τ would
    // make every threshold comparison silently false.
    std::stringstream ss("snn 1\nneurons 1\nn 0 1 nan\nsynapses 0\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    // Infinite threshold.
    std::stringstream ss("snn 1\nneurons 1\nn 0 inf 0\nsynapses 0\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    // Non-finite synapse weight.
    std::stringstream ss(
        "snn 1\nneurons 2\nn 0 1 0\nn 0 1 0\nsynapses 1\ns 0 1 inf 1\n");
    EXPECT_THROW(read_compiled_network(ss), InvalidArgument);
  }
  {
    // Duplicate group name: define_group would silently overwrite the
    // first (validated) definition with the second.
    std::stringstream ss(
        "snn 1\nneurons 2\nn 0 1 0\nn 0 1 0\nsynapses 0\n"
        "groups 2\ng out 1 0\ng out 1 1\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
  {
    // Group claiming more members than the network has neurons.
    std::stringstream ss(
        "snn 1\nneurons 1\nn 0 1 0\nsynapses 0\ngroups 1\ng out 7 0\n");
    EXPECT_THROW(read_network(ss), InvalidArgument);
  }
}

TEST(SnnIo, V2HeaderDeclaresTheFrozenWidths) {
  // The writer emits version 2 with a storage line reflecting the frozen
  // widths, and the reader re-freezes under the declared policy: a wide
  // artifact reloads wide, a narrow one re-narrows.
  Rng rng(0x10D);
  const Graph g = make_random_graph(10, 30, {1, 5}, rng);
  const Network net = nga::build_sssp_network(g);
  {
    std::stringstream ss;
    write_network(ss, net.compile());
    EXPECT_NE(ss.str().find("snn 2\nstorage narrow target u16 delay u16 "
                            "weight f32\n"),
              std::string::npos)
        << ss.str().substr(0, 80);
    const CompiledNetwork reloaded = read_compiled_network(ss);
    EXPECT_TRUE(reloaded.storage_widths().narrow);
  }
  {
    std::stringstream ss;
    write_network(ss, net.compile(StoragePolicy::kWide));
    EXPECT_NE(ss.str().find("storage wide target u32 delay i64 weight f64"),
              std::string::npos)
        << ss.str().substr(0, 80);
    const CompiledNetwork reloaded = read_compiled_network(ss);
    EXPECT_FALSE(reloaded.storage_widths().narrow);
  }
}

TEST(SnnIo, V2U8DelayHeaderReadsAndWritesBackU16) {
  // Narrow stores had u8 delays when every delay fit 255, and files of that
  // time declare "delay u8". They still read, freeze at the one narrow
  // delay width (u16) like any kAuto freeze of their graph, and write back
  // as "delay u16".
  const char* text =
      "snn 2\nstorage narrow target u16 delay u8 weight f32\n"
      "neurons 3\nn 0 1 0\nn 0 1 0\nn 0 1 0\n"
      "synapses 3\ns 0 1 1 3\ns 0 2 1 1\ns 1 2 0.5 200\n"
      "groups 1\ng out 1 2\n";
  std::stringstream ss(text);
  const CompiledNetwork net = read_compiled_network(ss);
  std::stringstream ss2(text);
  const CompiledNetwork want = read_network(ss2).compile();
  EXPECT_TRUE(net.storage_widths().narrow);
  EXPECT_EQ(net.storage_widths().delay_bytes, 2u);
  EXPECT_EQ(net.storage_widths(), want.storage_widths());
  EXPECT_EQ(net.max_delay(), 200);
  ASSERT_EQ(net.num_synapses(), 3u);
  for (std::size_t k = 0; k < net.num_synapses(); ++k) {
    EXPECT_EQ(net.syn_target(k), want.syn_target(k)) << k;
    EXPECT_EQ(net.syn_weight(k), want.syn_weight(k)) << k;
    EXPECT_EQ(net.syn_delay(k), want.syn_delay(k)) << k;
  }
  net.verify_invariants();

  std::stringstream out;
  write_network(out, net);
  EXPECT_NE(out.str().find("snn 2\nstorage narrow target u16 delay u16 "
                           "weight f32\n"),
            std::string::npos)
      << out.str().substr(0, 80);
}

TEST(SnnIo, V1FilesRemainReadable) {
  // A pre-§1.8 file (no storage line) parses under the legacy rules and
  // freezes under the default policy.
  std::stringstream ss(
      "snn 1\nneurons 2\nn 0 1 0\nn 0 1 0\nsynapses 1\ns 0 1 1 3\n"
      "groups 1\ng out 1 1\n");
  const CompiledNetwork net = read_compiled_network(ss);
  EXPECT_EQ(net.num_neurons(), 2u);
  EXPECT_EQ(net.num_synapses(), 1u);
  EXPECT_EQ(net.max_delay(), 3);
  EXPECT_TRUE(net.storage_widths().narrow);  // default kAuto
  EXPECT_EQ(net.group("out"), (std::vector<NeuronId>{1}));
}

TEST(SnnIo, CountCeilingsDeriveFromTheDeclaredWidth) {
  {
    // A u16-target file cannot address 70000 neurons: rejected as a typed
    // CountLimitError naming the offending count, before the parse loop.
    std::stringstream ss(
        "snn 2\nstorage narrow target u16 delay u8 weight f32\n"
        "neurons 70000\n");
    try {
      read_network(ss);
      FAIL() << "expected CountLimitError";
    } catch (const CountLimitError& e) {
      EXPECT_EQ(e.field(), "neuron count");
      EXPECT_EQ(e.value(), 70000);
      EXPECT_EQ(e.limit(), 1LL << 16);
      EXPECT_NE(std::string(e.what()).find("70000"), std::string::npos);
    }
  }
  {
    // The same count under a u32 target is fine (the file is then
    // truncated, which is a different, later error).
    std::stringstream ss(
        "snn 2\nstorage narrow target u32 delay u8 weight f32\n"
        "neurons 70000\n");
    try {
      read_network(ss);
      FAIL() << "expected truncation failure";
    } catch (const CountLimitError&) {
      FAIL() << "count within the declared ceiling must not be rejected";
    } catch (const InvalidArgument&) {
      // truncated input — expected
    }
  }
  {
    // Synapse counts are capped by the u32 segment-index width.
    std::stringstream ss(
        "snn 2\nstorage narrow target u32 delay u8 weight f32\n"
        "neurons 0\nsynapses 4294967296\n");
    try {
      read_network(ss);
      FAIL() << "expected CountLimitError";
    } catch (const CountLimitError& e) {
      EXPECT_EQ(e.field(), "synapse count");
      EXPECT_EQ(e.value(), 4294967296LL);
    }
  }
  {
    // CountLimitError is still an InvalidArgument: v1 hostile headers keep
    // failing for existing catch sites.
    std::stringstream ss("snn 1\nneurons 9999999999\n");
    EXPECT_THROW(read_network(ss), CountLimitError);
    std::stringstream ss2("snn 1\nneurons 9999999999\n");
    EXPECT_THROW(read_network(ss2), InvalidArgument);
  }
}

TEST(SnnIo, VerifyInvariantsAcceptsHealthyNetworks) {
  // verify_invariants() is the read_compiled_network defense-in-depth pass;
  // it must accept everything compile() produces — including the empty
  // placeholder network — or the service cache could never load a valid
  // artifact.
  CompiledNetwork{}.verify_invariants();

  Rng rng(0x10C);
  const Graph g = make_random_graph(20, 80, {1, 9}, rng);
  const CompiledNetwork net = nga::build_sssp_network(g).compile();
  net.verify_invariants();

  std::stringstream ss;
  write_network(ss, net);
  const CompiledNetwork reloaded = read_compiled_network(ss);  // verifies too
  EXPECT_EQ(reloaded.num_synapses(), net.num_synapses());
}

// ---- io text v3 (read-only) --------------------------------------------
//
// Nothing writes version 3 any more; files the retired packed encoding
// wrote must still read. The fixtures below are what its writer emitted for
// v3_fixture_graph, captured before the writer was deleted.

/// 12 neurons; rows 0, 1 and 3 hold 64, 64 and 3 synapses, so the packed
/// target column has three blocks, at 5, 0 and 3 bits per delta. With
/// `u16_f64`, row 0's delays reach 301 and one weight is 0.1, which
/// float32 cannot hold.
Network v3_fixture_graph(bool u16_f64) {
  Network net;
  for (NeuronId i = 0; i < 12; ++i) {
    net.add_neuron(NeuronParams{0.25 * (i % 3), 1.0 + i % 4,
                                i % 2 != 0 ? 1.0 : 0.0});
  }
  for (int k = 0; k < 64; ++k) {
    const SynWeight w =
        u16_f64 && k == 0 ? 0.1 : static_cast<SynWeight>(k % 5 - 2);
    const Delay d = 1 + (k % 3) * (u16_f64 ? 150 : 2);
    net.add_synapse(0, static_cast<NeuronId>(k * 5 % 12), w, d);
  }
  for (int k = 0; k < 64; ++k) net.add_synapse(1, 5, 1.0 + k % 2, 2);
  net.add_synapse(3, 9, -1.0, 3);
  net.add_synapse(3, 8, 2.0, 1);
  net.add_synapse(3, 10, 0.5, 1);
  net.define_group("io", {0, 3});
  return net;
}

/// v3_fixture_graph(false): u8 delays, f32 weights.
constexpr const char* kV3U8F32 = R"(snn 3
storage packed target u32 delay u8 weight f32
neurons 12
n 0 1 0
n 0.25 2 1
n 0.5 3 0
n 0 4 1
n 0.25 1 0
n 0.5 2 1
n 0 3 0
n 0.25 4 1
n 0.5 1 0
n 0 2 1
n 0.25 3 0
n 0.5 4 1
synapses 131
segments 6
rows
r 64 3
r 64 1
r 0 0
r 3 2
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
t 1 0
t 3 22
t 5 43
t 2 64
t 1 128
t 3 130
blocks 3
b 0 5
b 5 0
b 8 3
words 11
2355665094 1754842761 2563148172 3509684328 831329048 2366838993 1755894065 2563148172
3330903144 25979032 12
weights
-2 1 -1 2 0 -2 1 -1
2 0 -2 1 -1 2 0 -2
1 -1 2 0 -2 1 -1 2
0 -2 1 -1 2 0 -2 1
-1 2 0 -2 1 -1 2 0
-2 1 -1 0 -2 1 -1 2
0 -2 1 -1 2 0 -2 1
-1 2 0 -2 1 -1 2 0
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
2 0.5 -1
groups 1
g io 2 0 3
)";

/// v3_fixture_graph(true): u16 delays, f64 weights.
constexpr const char* kV3U16F64 = R"(snn 3
storage packed target u32 delay u16 weight f64
neurons 12
n 0 1 0
n 0.25 2 1
n 0.5 3 0
n 0 4 1
n 0.25 1 0
n 0.5 2 1
n 0 3 0
n 0.25 4 1
n 0.5 1 0
n 0 2 1
n 0.25 3 0
n 0.5 4 1
synapses 131
segments 6
rows
r 64 3
r 64 1
r 0 0
r 3 2
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
r 0 0
t 1 0
t 151 22
t 301 43
t 2 64
t 1 128
t 3 130
blocks 3
b 0 5
b 5 0
b 8 3
words 11
2355665094 1754842761 2563148172 3509684328 831329048 2366838993 1755894065 2563148172
3330903144 25979032 12
weights
0.10000000000000001 1 -1 2 0 -2 1 -1
2 0 -2 1 -1 2 0 -2
1 -1 2 0 -2 1 -1 2
0 -2 1 -1 2 0 -2 1
-1 2 0 -2 1 -1 2 0
-2 1 -1 0 -2 1 -1 2
0 -2 1 -1 2 0 -2 1
-1 2 0 -2 1 -1 2 0
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
1 2 1 2 1 2 1 2
2 0.5 -1
groups 1
g io 2 0 3
)";

/// Every public column of `got` equals that of `want`.
void expect_same_columns(const CompiledNetwork& got,
                         const CompiledNetwork& want) {
  ASSERT_EQ(got.num_neurons(), want.num_neurons());
  ASSERT_EQ(got.num_synapses(), want.num_synapses());
  ASSERT_EQ(got.num_delay_segments(), want.num_delay_segments());
  EXPECT_EQ(got.storage_widths(), want.storage_widths());
  EXPECT_EQ(got.csr_storage_bytes(), want.csr_storage_bytes());
  EXPECT_EQ(got.max_delay(), want.max_delay());
  for (NeuronId i = 0; i < want.num_neurons(); ++i) {
    EXPECT_EQ(got.params(i).v_reset, want.params(i).v_reset) << i;
    EXPECT_EQ(got.params(i).v_threshold, want.params(i).v_threshold) << i;
    EXPECT_EQ(got.params(i).tau, want.params(i).tau) << i;
    EXPECT_EQ(got.out_begin(i), want.out_begin(i)) << i;
    EXPECT_EQ(got.out_end(i), want.out_end(i)) << i;
    EXPECT_EQ(got.seg_begin(i), want.seg_begin(i)) << i;
    EXPECT_EQ(got.seg_end(i), want.seg_end(i)) << i;
    EXPECT_EQ(got.positive_in_weight(i), want.positive_in_weight(i)) << i;
  }
  for (std::size_t k = 0; k < want.num_synapses(); ++k) {
    EXPECT_EQ(got.syn_target(k), want.syn_target(k)) << "syn " << k;
    EXPECT_EQ(got.syn_weight(k), want.syn_weight(k)) << "syn " << k;
    EXPECT_EQ(got.syn_delay(k), want.syn_delay(k)) << "syn " << k;
  }
  for (std::size_t s = 0; s < want.num_delay_segments(); ++s) {
    EXPECT_EQ(got.seg_delay(s), want.seg_delay(s)) << "seg " << s;
    EXPECT_EQ(got.seg_syn_begin(s), want.seg_syn_begin(s)) << "seg " << s;
    EXPECT_EQ(got.seg_syn_end(s), want.seg_syn_end(s)) << "seg " << s;
  }
  ASSERT_EQ(got.group_names(), want.group_names());
  for (const std::string& name : want.group_names()) {
    EXPECT_EQ(got.group(name), want.group(name)) << name;
  }
}

TEST(SnnIo, V3FixturesReadAsTheAutoFreezeOfTheirGraph) {
  for (const bool u16_f64 : {false, true}) {
    SCOPED_TRACE(u16_f64 ? "u16 delays, f64 weights" : "u8 delays, f32 weights");
    const char* text = u16_f64 ? kV3U16F64 : kV3U8F32;
    const CompiledNetwork want = v3_fixture_graph(u16_f64).compile();
    EXPECT_EQ(want.storage_widths().delay_bytes, 2u);  // either fixture
    EXPECT_EQ(want.storage_widths().weight_bytes, u16_f64 ? 8u : 4u);

    std::istringstream is(text);
    expect_same_columns(read_compiled_network(is), want);
    // The builder form freezes to the same network.
    std::istringstream is2(text);
    expect_same_columns(read_network(is2).compile(), want);
  }
}

std::vector<std::string> split_tokens(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

std::string join_tokens(const std::vector<std::string>& toks) {
  std::string out;
  for (const auto& t : toks) {
    out += t;
    out += ' ';
  }
  return out;
}

std::size_t find_token(const std::vector<std::string>& toks,
                       const std::string& want, std::size_t from = 0) {
  for (std::size_t i = from; i < toks.size(); ++i) {
    if (toks[i] == want) return i;
  }
  ADD_FAILURE() << "token '" << want << "' not found";
  return toks.size();
}

CompiledNetwork parse_text(const std::string& text) {
  std::istringstream is(text);
  return read_compiled_network(is);
}

TEST(SnnIo, HostileV3InputsDieInValidation) {
  const std::vector<std::string> good = split_tokens(kV3U8F32);
  ASSERT_NO_THROW(parse_text(join_tokens(good)));  // surgery baseline

  const std::size_t words_at = find_token(good, "words");
  const std::size_t nwords = std::stoul(good[words_at + 1]);
  ASSERT_GE(nwords, 1u) << "the fixture must hold at least one pack word";
  const std::size_t blocks_at = find_token(good, "blocks");

  // (1) Truncated block words: one word shaved off (header adjusted so the
  // token stream still parses) — the exact per-block word sum catches it.
  {
    std::vector<std::string> t = good;
    t[words_at + 1] = std::to_string(nwords - 1);
    t.erase(t.begin() + static_cast<std::ptrdiff_t>(words_at + 1 + nwords));
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }

  // (2) A block's bit width edited to 0: legal value, wrong word sum.
  {
    std::vector<std::string> t = good;
    std::size_t b = find_token(t, "b", blocks_at);
    while (b < t.size() && t[b + 2] == "0") b = find_token(t, "b", b + 1);
    ASSERT_LT(b, t.size());
    t[b + 2] = "0";
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }

  // (3) Bit width above 32: rejected outright, before anything decodes.
  {
    std::vector<std::string> t = good;
    const std::size_t b = find_token(t, "b", blocks_at);
    t[b + 2] = "33";
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }

  // (4) A block base pushed past the neuron count: every decoded target is
  // range-checked before the network is handed out.
  {
    std::vector<std::string> t = good;
    const std::size_t b = find_token(t, "b", blocks_at);
    t[b + 1] = "12";
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }
}

TEST(Encoder, EncodesSingleHotLines) {
  for (int d : {1, 2, 5, 8, 11}) {
    for (int hot = 0; hot < d; ++hot) {
      Network net;
      circuits::CircuitBuilder cb(net);
      const auto e = circuits::build_encoder(cb, d);
      Simulator sim(net);
      sim.inject_spike(e.inputs[static_cast<std::size_t>(hot)], 0);
      SimConfig cfg;
      cfg.max_time = e.depth;
      sim.run(cfg);
      EXPECT_EQ(decode_binary_at(sim, e.index, e.depth),
                static_cast<std::uint64_t>(hot))
          << "d=" << d << " hot=" << hot;
      EXPECT_TRUE(sim.fired_at(e.any, e.depth));
    }
  }
}

TEST(Encoder, SilentInputsGiveSilentOutput) {
  Network net;
  circuits::CircuitBuilder cb(net);
  const auto e = circuits::build_encoder(cb, 6);
  Simulator sim(net);
  sim.run();
  EXPECT_EQ(sim.first_spike(e.any), kNever);
}

TEST(Encoder, EncodesBruteForceMaxWinnerIndex) {
  // Compose: brute-force max (unique winner) -> encoder = argmax circuit.
  Network net;
  circuits::CircuitBuilder cb(net);
  const auto mc = circuits::build_max_brute_force(cb, 5, 4);
  const auto e = circuits::build_encoder(cb, 5);
  for (int i = 0; i < 5; ++i) {
    net.add_synapse(mc.winners[static_cast<std::size_t>(i)],
                    e.inputs[static_cast<std::size_t>(i)], 1, 1);
  }
  Simulator sim(net);
  sim.inject_spike(mc.enable, 0);
  const std::vector<std::uint64_t> vals{3, 9, 2, 15, 8};
  for (std::size_t i = 0; i < vals.size(); ++i) {
    inject_binary(sim, mc.inputs[i], vals[i], 0);
  }
  SimConfig cfg;
  cfg.max_time = mc.winner_level + 1 + e.depth;
  sim.run(cfg);
  EXPECT_EQ(decode_binary_at(sim, e.index, mc.winner_level + 1 + e.depth), 3u);
}

}  // namespace
}  // namespace sga::snn
