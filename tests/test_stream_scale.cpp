// Million-neuron streamed end-to-end test (ARCHITECTURE.md §1.8;
// `ctest -L scale`): a relay chain with n = 10^6 vertices and m ≥ 8·10^6
// edges is frozen straight from its generator into the narrow CSR, solves
// SSSP to completion, and the narrow freeze is verifiably ≥ 30% smaller
// than the wide oracle layout while running event-for-event identically to
// it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "snn/simulator.h"
#include "snn/storage.h"

namespace sga {
namespace {

constexpr std::size_t kN = 1000000;
constexpr std::size_t kExtraPerVertex = 8;
constexpr std::size_t kMaxSkip = 1000;
constexpr std::uint64_t kSeed = 0x5CA1E;
constexpr WeightRange kWeights{1, 16};

void relay_edges(const EdgeStream& emit) {
  stream_relay_chain(kN, kExtraPerVertex, kMaxSkip, kWeights, kSeed, emit);
}

TEST(ScaleStreamed, MillionNeuronRelayChainEndToEnd) {
  // Freeze the narrow CSR directly from the stream (kAuto picks it).
  snn::StreamBuildStats bs;
  const snn::CompiledNetwork narrow = nga::compile_sssp_streamed(
      kN, relay_edges, snn::StoragePolicy::kAuto, &bs);
  ASSERT_EQ(bs.num_neurons, kN);
  ASSERT_GE(bs.num_synapses, 8000000u + kN);  // m edges + n fire-once guards
  ASSERT_EQ(bs.csr_bytes, narrow.csr_storage_bytes());
  ASSERT_GE(bs.peak_resident_bytes, bs.csr_bytes);

  // The widths the instance's ranges imply: u32 targets (n > 2^16), u8
  // delays (max length 16), f32 weights (integers 1 and -(indeg+1)).
  const snn::StorageWidths& w = narrow.storage_widths();
  ASSERT_TRUE(w.narrow);
  EXPECT_EQ(w.target_bytes, 4u);
  EXPECT_EQ(w.delay_bytes, 1u);
  EXPECT_EQ(w.weight_bytes, 4u);

  // ≥ 30% smaller than the wide oracle freeze of the same stream.
  const snn::CompiledNetwork wide = nga::compile_sssp_streamed(
      kN, relay_edges, snn::StoragePolicy::kWide);
  ASSERT_FALSE(wide.storage_widths().narrow);
  EXPECT_LE(static_cast<double>(narrow.csr_storage_bytes()),
            0.7 * static_cast<double>(wide.csr_storage_bytes()))
      << "narrow " << narrow.csr_storage_bytes() << " wide "
      << wide.csr_storage_bytes();

  // SSSP to completion on the narrow freeze: every relay fires exactly
  // once (the backbone reaches all n vertices; the guard keeps it at one).
  auto solve = [](const snn::CompiledNetwork& net) {
    snn::Simulator sim(net);
    sim.inject_spike(0, 0);
    const snn::SimStats stats = sim.run();
    return std::pair(stats, sim.first_spikes());
  };
  const auto [nstats, nfirst] = solve(narrow);
  EXPECT_EQ(nstats.spikes, kN);
  EXPECT_EQ(nstats.csr_bytes, narrow.csr_storage_bytes());
  EXPECT_EQ(nfirst[0], 0);

  // Distance anchors: d(0) = 0, every vertex reached, and each distance is
  // bounded by the backbone prefix sum (skip edges can only shorten).
  std::vector<Time> backbone_prefix(kN, 0);
  relay_edges([&](VertexId u, VertexId v, Weight len) {
    if (v == u + 1) backbone_prefix[v] = backbone_prefix[u] + len;
  });
  for (VertexId v = 0; v < kN; ++v) {
    ASSERT_NE(nfirst[v], kNever) << "vertex " << v << " unreached";
    ASSERT_LE(nfirst[v], backbone_prefix[v]) << "vertex " << v;
    if (v > 0) {
      ASSERT_GT(nfirst[v], 0) << "vertex " << v;
    }
  }

  // Narrow and wide agree event-for-event at this scale too.
  const auto [wstats, wfirst] = solve(wide);
  EXPECT_EQ(nfirst, wfirst);
  EXPECT_EQ(nstats.spikes, wstats.spikes);
  EXPECT_EQ(nstats.deliveries, wstats.deliveries);
  EXPECT_EQ(nstats.event_times, wstats.event_times);
  EXPECT_EQ(nstats.end_time, wstats.end_time);
  EXPECT_LT(narrow.bytes_per_synapse(), wide.bytes_per_synapse());
}

}  // namespace
}  // namespace sga
