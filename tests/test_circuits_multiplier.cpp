// Property tests for the constant multiplier and adder tree, and the
// gate-level matrix-vector round built from them (Section 2.2's
// "techniques carry over to matrix-vector multiplication").
#include <gtest/gtest.h>

#include "circuits/builder.h"
#include "circuits/multiplier.h"
#include "core/bitops.h"
#include "core/random.h"
#include "graph/generators.h"
#include "nga/matvec.h"
#include "nga/matvec_gate.h"
#include "snn/probe.h"
#include "snn/simulator.h"

namespace sga::circuits {
namespace {

std::uint64_t eval_multiplier(const snn::Network& net, const ConstMultiplier& m,
                              std::uint64_t x) {
  snn::Simulator sim(net);
  sim.inject_spike(m.enable, 0);
  snn::inject_binary(sim, m.x, x, 0);
  snn::SimConfig cfg;
  cfg.max_time = m.depth;
  sim.run(cfg);
  return snn::decode_binary_at(sim, m.product, m.depth);
}

// No padding: gtest prints the parameter's raw bytes into the test name,
// and padding after a 4-byte field would be uninitialized, so the name
// would change from run to run.
struct MulParam {
  std::int64_t in_bits;
  std::uint64_t constant;
};

class ConstMultiplierSweep : public ::testing::TestWithParam<MulParam> {};

TEST_P(ConstMultiplierSweep, MultipliesRandomInputs) {
  const auto& p = GetParam();
  const int in_bits = static_cast<int>(p.in_bits);
  Rng rng(0x301 + p.constant * 31 + static_cast<std::uint64_t>(p.in_bits));
  for (int trial = 0; trial < 8; ++trial) {
    snn::Network net;
    CircuitBuilder cb(net);
    const ConstMultiplier m =
        build_const_multiplier(cb, in_bits, p.constant);
    const auto x = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mask_bits(in_bits))));
    EXPECT_EQ(eval_multiplier(net, m, x), p.constant * x)
        << p.constant << " * " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConstMultiplierSweep,
    ::testing::Values(MulParam{4, 1}, MulParam{4, 2}, MulParam{4, 3},
                      MulParam{4, 8}, MulParam{6, 5}, MulParam{6, 13},
                      MulParam{8, 100}, MulParam{8, 255}, MulParam{5, 21}));

TEST(ConstMultiplier, ExhaustiveSmallCase) {
  for (std::uint64_t c = 1; c <= 7; ++c) {
    for (std::uint64_t x = 0; x < 8; ++x) {
      snn::Network net;
      CircuitBuilder cb(net);
      const ConstMultiplier m = build_const_multiplier(cb, 3, c);
      EXPECT_EQ(eval_multiplier(net, m, x), c * x) << c << " * " << x;
    }
  }
}

TEST(ConstMultiplier, SizeGrowsWithPopcount) {
  // Shift-and-add: one adder per set bit beyond the first.
  snn::Network n1, n2;
  CircuitBuilder c1(n1), c2(n2);
  const auto sparse = build_const_multiplier(c1, 8, 0b10000000);  // 1 bit
  const auto dense = build_const_multiplier(c2, 8, 0b11111111);   // 8 bits
  EXPECT_LT(sparse.stats.neurons, dense.stats.neurons / 3);
  EXPECT_LT(sparse.depth, dense.depth);
}

TEST(ConstMultiplier, RejectsZeroConstant) {
  snn::Network net;
  CircuitBuilder cb(net);
  EXPECT_THROW(build_const_multiplier(cb, 4, 0), InvalidArgument);
}

class AdderTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdderTreeSweep, SumsOperandsExactly) {
  const int d = GetParam();
  Rng rng(0xADD7 + static_cast<std::uint64_t>(d));
  snn::Network net;
  CircuitBuilder cb(net);
  const AdderTree t = build_adder_tree(cb, d, 5);
  snn::Simulator sim(net);
  sim.inject_spike(t.enable, 0);
  std::uint64_t expected = 0;
  for (int i = 0; i < d; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.uniform_int(0, 31));
    snn::inject_binary(sim, t.inputs[static_cast<std::size_t>(i)], v, 0);
    expected += v;
  }
  snn::SimConfig cfg;
  cfg.max_time = t.depth;
  sim.run(cfg);
  EXPECT_EQ(snn::decode_binary_at(sim, t.sum, t.depth), expected);
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderTreeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13));

TEST(AdderTree, AllMaxOperandsDoNotOverflow) {
  snn::Network net;
  CircuitBuilder cb(net);
  const AdderTree t = build_adder_tree(cb, 6, 4);
  snn::Simulator sim(net);
  for (int i = 0; i < 6; ++i) {
    snn::inject_binary(sim, t.inputs[static_cast<std::size_t>(i)], 15, 0);
  }
  snn::SimConfig cfg;
  cfg.max_time = t.depth;
  sim.run(cfg);
  EXPECT_EQ(snn::decode_binary_at(sim, t.sum, t.depth), 90u);
}

class GateMatvecSweep : public ::testing::TestWithParam<int> {};

TEST_P(GateMatvecSweep, MatchesReferenceNga) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(0x3A7E + seed);
  const Graph g = make_random_graph(8, 24, {1, 7}, rng);
  std::vector<std::uint64_t> x(8);
  for (auto& v : x) v = static_cast<std::uint64_t>(rng.uniform_int(0, 15));

  const auto ref = nga::matvec_power(g, x, 1);
  const auto got = nga::matvec_gate_level(g, x, 4);
  for (VertexId v = 0; v < 8; ++v) {
    if (g.in_degree(v) == 0) continue;  // gate-level leaves these at 0
    EXPECT_EQ(got.y[v], ref[v]) << "seed " << seed << " vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateMatvecSweep, ::testing::Range(0, 8));

TEST(GateMatvec, RamosAdderVariantAgrees) {
  Rng rng(0x3A7F);
  const Graph g = make_random_graph(6, 18, {1, 5}, rng);
  std::vector<std::uint64_t> x{3, 0, 7, 1, 5, 2};
  const auto a = nga::matvec_gate_level(g, x, 3, AdderKind::kRipple);
  const auto b = nga::matvec_gate_level(g, x, 3, AdderKind::kRamosBohorquez);
  EXPECT_EQ(a.y, b.y);
  EXPECT_LT(b.execution_time, a.execution_time);  // depth-2 adders are faster
}

TEST(GateMatvec, RejectsOversizedEntries) {
  Graph g(2);
  g.add_edge(0, 1, 2);
  EXPECT_THROW(nga::matvec_gate_level(g, {16, 0}, 4), InvalidArgument);
}

}  // namespace
}  // namespace sga::circuits
