// Property tests for the deterministic degree-balanced partitioner and the
// shard-aware CSR split (snn/partition.h) the parallel simulator runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "snn/compiled_network.h"
#include "snn/network.h"
#include "snn/partition.h"

namespace sga {
namespace {

snn::Network random_net(std::uint64_t seed) {
  Rng rng(0xBEEF + seed * 0x9E3779B97F4A7C15ULL);
  snn::Network net;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 50));
  for (std::size_t i = 0; i < n; ++i) {
    net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  }
  const auto syn = static_cast<std::size_t>(rng.uniform_int(0, 6 * n));
  for (std::size_t s = 0; s < syn; ++s) {
    net.add_synapse(static_cast<NeuronId>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
                    static_cast<NeuronId>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
                    1, rng.uniform_int(1, 20));
  }
  return net;
}

class PartitionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PartitionFuzz, EveryNeuronAssignedExactlyOnceWithConsistentIndices) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x5EED + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition p = make_partition(net, s);
  ASSERT_EQ(p.num_shards, s);
  ASSERT_EQ(p.shard_of.size(), net.num_neurons());
  ASSERT_EQ(p.local_index.size(), net.num_neurons());
  ASSERT_EQ(p.shard_neurons.size(), s);
  ASSERT_EQ(p.shard_load.size(), s);

  // Exactly-once: shard membership lists tile [0, n), and the inverse
  // (shard_of, local_index) maps agree with them.
  std::set<NeuronId> seen;
  for (std::size_t sh = 0; sh < s; ++sh) {
    ASSERT_TRUE(std::is_sorted(p.shard_neurons[sh].begin(),
                               p.shard_neurons[sh].end()));
    for (std::size_t k = 0; k < p.shard_neurons[sh].size(); ++k) {
      const NeuronId id = p.shard_neurons[sh][k];
      ASSERT_TRUE(seen.insert(id).second) << "neuron " << id << " twice";
      ASSERT_EQ(p.shard_of[id], sh);
      ASSERT_EQ(p.local_index[id], k);
    }
  }
  ASSERT_EQ(seen.size(), net.num_neurons());

  // Load bookkeeping matches the documented weight model.
  for (std::size_t sh = 0; sh < s; ++sh) {
    std::uint64_t load = 0;
    for (const NeuronId id : p.shard_neurons[sh]) {
      load += 1 + net.out_degree(id);
    }
    EXPECT_EQ(p.shard_load[sh], load) << "shard " << sh;
  }
}

TEST_P(PartitionFuzz, LoadStaysWithinTheDocumentedBalanceBound) {
  // LPT guarantee stated in partition.h: when a neuron lands on the
  // lightest shard, that shard held ≤ total/S, so every final load is
  // ≤ total/S + w_max.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x10AD + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::Partition p = make_partition(net, s);

  std::uint64_t total = 0;
  std::uint64_t w_max = 0;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    const std::uint64_t w = 1 + net.out_degree(id);
    total += w;
    w_max = std::max(w_max, w);
  }
  for (std::size_t sh = 0; sh < s; ++sh) {
    EXPECT_LE(p.shard_load[sh], total / s + w_max)
        << "seed " << seed << " shard " << sh << "/" << s;
  }
}

TEST_P(PartitionFuzz, DeterministicForANetworkAndShardCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0xDE7E + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition a = make_partition(net, s);
  const snn::Partition b = make_partition(net, s);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.local_index, b.local_index);
  EXPECT_EQ(a.shard_neurons, b.shard_neurons);
  EXPECT_EQ(a.shard_load, b.shard_load);
}

TEST_P(PartitionFuzz, ShardSplitPreservesEverySynapseExactlyOnce) {
  // Round-trip: reconstruct (source, target, weight, delay) tuples from
  // the intra + cross families and compare against the CSR — same
  // multiset, and per-source insertion order preserved within families.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x59117 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::ShardSplit split = net.shard_split(make_partition(net, s));

  using Syn = std::tuple<NeuronId, NeuronId, SynWeight, Delay>;
  std::vector<Syn> expect;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    for (std::size_t k = net.out_begin(id); k < net.out_end(id); ++k) {
      expect.emplace_back(id, net.syn_target(k), net.syn_weight(k),
                          net.syn_delay(k));
    }
  }
  std::vector<Syn> got;
  std::size_t cross_count = 0;
  Delay min_cross = 0;
  for (std::size_t sh = 0; sh < split.shards.size(); ++sh) {
    const snn::ShardCsr& c = split.shards[sh];
    for (std::size_t k = 0; k < c.num_neurons(); ++k) {
      const NeuronId src = c.global_ids[k];
      split.intra[sh].for_each_out_synapse(
          static_cast<NeuronId>(k),
          [&](std::size_t, NeuronId tgt, SynWeight w, Delay d) {
            got.emplace_back(src, split.partition.shard_neurons[sh][tgt], w,
                             d);
          });
      // Each cross synapse's shard and delay are its covering segment's.
      for (std::size_t g = c.cross_seg_offsets[k];
           g < c.cross_seg_offsets[k + 1]; ++g) {
        const std::uint32_t dst = c.cross_seg_shard[g];
        const Delay d = c.cross_seg_delay[g];
        ASSERT_NE(dst, sh) << "cross synapse stayed home";
        for (std::size_t j = c.cross_seg_begin[g]; j < c.cross_seg_begin[g + 1];
             ++j) {
          const NeuronId tgt =
              split.partition.shard_neurons[dst][c.cross_local[j]];
          got.emplace_back(src, tgt, c.cross_weight[j], d);
          ++cross_count;
          min_cross = min_cross == 0 ? d : std::min(min_cross, d);
        }
      }
    }
  }
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect) << "seed " << seed << " S " << s;
  EXPECT_EQ(split.num_cross_synapses, cross_count);
  EXPECT_EQ(split.min_cross_delay, min_cross);
}

TEST_P(PartitionFuzz, SegmentCsrsTileBothFamiliesWithSortedRuns) {
  // The segmented layout (ARCHITECTURE.md §1.6): every member neuron's
  // intra family must be tiled by delay runs with strictly increasing
  // delays, and its cross family by (shard, delay) runs in strictly
  // increasing lexicographic order — non-empty, contiguous, gap-free, and
  // every covered synapse carrying its segment's key. That exact structure
  // is what lets a shard's fire do one queue lookup (or one mailbox
  // append) per run. The intra family is a frozen network of its own, so
  // its segments are those of any freeze: verify_invariants checks them.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x59117 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::ShardSplit split = net.shard_split(make_partition(net, s));

  for (std::size_t sh = 0; sh < split.shards.size(); ++sh) {
    const snn::ShardCsr& c = split.shards[sh];
    const snn::CompiledNetwork& intra = split.intra[sh];
    ASSERT_EQ(intra.num_neurons(), c.num_neurons());
    EXPECT_NO_THROW(intra.verify_invariants());
    ASSERT_EQ(c.cross_seg_offsets.size(), c.num_neurons() + 1);
    // One begin per segment plus the end sentinel, which closes the
    // payload: segments tile the shard's cross synapses gap-free.
    ASSERT_EQ(c.cross_seg_begin.size(), c.cross_seg_delay.size() + 1);
    ASSERT_EQ(c.cross_seg_shard.size(), c.cross_seg_delay.size());
    EXPECT_EQ(c.cross_seg_offsets.front(), 0u);
    EXPECT_EQ(c.cross_seg_offsets.back(), c.cross_seg_delay.size());
    EXPECT_EQ(c.cross_seg_begin.front(), 0u);
    EXPECT_EQ(c.cross_seg_begin.back(), c.cross_local.size());
    ASSERT_EQ(c.cross_weight.size(), c.cross_local.size());
    for (std::size_t k = 0; k < c.num_neurons(); ++k) {
      const auto id = static_cast<NeuronId>(k);
      for (std::size_t g = intra.seg_begin(id) + 1; g < intra.seg_end(id);
           ++g) {
        EXPECT_LT(intra.seg_delay(g - 1), intra.seg_delay(g))
            << "intra delays not strictly increasing";
      }
      for (std::size_t g = c.cross_seg_offsets[k];
           g < c.cross_seg_offsets[k + 1]; ++g) {
        EXPECT_LT(c.cross_seg_begin[g], c.cross_seg_begin[g + 1])
            << "empty run";
        if (g > c.cross_seg_offsets[k]) {
          const bool increasing =
              c.cross_seg_shard[g - 1] < c.cross_seg_shard[g] ||
              (c.cross_seg_shard[g - 1] == c.cross_seg_shard[g] &&
               c.cross_seg_delay[g - 1] < c.cross_seg_delay[g]);
          EXPECT_TRUE(increasing)
              << "cross (shard, delay) keys not strictly increasing";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFuzz, ::testing::Range(0, 20));

// --- kCutRefined property suite (ISSUE 9) ------------------------------
//
// The refinement contract from partition.h: lexicographic objective that
// never decreases min cross delay (0 = "no cross" orders above every real
// delay), only accepts strictly-improving cut moves, respects the LPT
// balance cap, and is a pure function of (network, S).

// Orders min-cross-delay values with the 0 = +∞ ("no cross") convention.
std::uint64_t min_cross_rank(Delay d) {
  return d == 0 ? std::numeric_limits<std::uint64_t>::max()
                : static_cast<std::uint64_t>(d);
}

class CutRefinedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CutRefinedFuzz, NeverWorseThanTheLptSeedOnEitherObjective) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0xC07 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition lpt =
      make_partition(net, s, snn::PartitionKind::kLpt);
  const snn::Partition ref =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  ASSERT_EQ(lpt.kind, snn::PartitionKind::kLpt);
  ASSERT_EQ(ref.kind, snn::PartitionKind::kCutRefined);
  EXPECT_TRUE(lpt.pass_cut_weight.empty());

  EXPECT_LE(partition_cut_weight(net, ref),
            partition_cut_weight(net, lpt) + 1e-9)
      << "seed " << seed << " S " << s;
  EXPECT_GE(min_cross_rank(partition_min_cross_delay(net, ref)),
            min_cross_rank(partition_min_cross_delay(net, lpt)))
      << "refinement shrank the lookahead window, seed " << seed;
}

TEST_P(CutRefinedFuzz, TelemetryIsMonotoneAndMatchesTheHelpers) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x7E1E + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(2, 12));

  const snn::Partition lpt =
      make_partition(net, s, snn::PartitionKind::kLpt);
  const snn::Partition ref =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  ASSERT_FALSE(ref.pass_cut_weight.empty());
  ASSERT_EQ(ref.pass_cut_weight.size(), ref.pass_min_cross_delay.size());

  // Entry 0 describes the LPT seed; the last entry the final partition.
  EXPECT_NEAR(ref.pass_cut_weight.front(), partition_cut_weight(net, lpt),
              1e-9);
  EXPECT_EQ(ref.pass_min_cross_delay.front(),
            partition_min_cross_delay(net, lpt));
  EXPECT_NEAR(ref.pass_cut_weight.back(), partition_cut_weight(net, ref),
              1e-9);
  EXPECT_EQ(ref.pass_min_cross_delay.back(),
            partition_min_cross_delay(net, ref));

  for (std::size_t i = 1; i < ref.pass_cut_weight.size(); ++i) {
    EXPECT_LE(ref.pass_cut_weight[i], ref.pass_cut_weight[i - 1])
        << "cut weight rose in pass " << i << ", seed " << seed;
    EXPECT_GE(min_cross_rank(ref.pass_min_cross_delay[i]),
              min_cross_rank(ref.pass_min_cross_delay[i - 1]))
        << "min cross delay fell in pass " << i << ", seed " << seed;
  }
}

TEST_P(CutRefinedFuzz, KeepsEveryStructuralInvariantOfThePartition) {
  // Refinement moves neurons around, so re-check exactly-once, load
  // bookkeeping, the balance cap, and determinism on the refined result.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x17BA + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition p =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  std::set<NeuronId> seen;
  for (std::size_t sh = 0; sh < s; ++sh) {
    ASSERT_TRUE(std::is_sorted(p.shard_neurons[sh].begin(),
                               p.shard_neurons[sh].end()));
    std::uint64_t load = 0;
    for (std::size_t k = 0; k < p.shard_neurons[sh].size(); ++k) {
      const NeuronId id = p.shard_neurons[sh][k];
      ASSERT_TRUE(seen.insert(id).second) << "neuron " << id << " twice";
      ASSERT_EQ(p.shard_of[id], sh);
      ASSERT_EQ(p.local_index[id], k);
      load += 1 + net.out_degree(id);
    }
    EXPECT_EQ(p.shard_load[sh], load) << "shard " << sh;
  }
  ASSERT_EQ(seen.size(), net.num_neurons());

  std::uint64_t total = 0;
  std::uint64_t w_max = 0;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    const std::uint64_t w = 1 + net.out_degree(id);
    total += w;
    w_max = std::max(w_max, w);
  }
  for (std::size_t sh = 0; sh < s; ++sh) {
    EXPECT_LE(p.shard_load[sh], total / s + w_max)
        << "refined move broke the balance cap, seed " << seed;
  }

  const snn::Partition q =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  EXPECT_EQ(p.shard_of, q.shard_of);
  EXPECT_EQ(p.shard_neurons, q.shard_neurons);
  EXPECT_EQ(p.pass_cut_weight, q.pass_cut_weight);
  EXPECT_EQ(p.pass_min_cross_delay, q.pass_min_cross_delay);
}

TEST_P(CutRefinedFuzz, ShardSplitRoundTripsTheRefinedPartition) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x5B117 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::ShardSplit split =
      net.shard_split(make_partition(net, s, snn::PartitionKind::kCutRefined));

  using Syn = std::tuple<NeuronId, NeuronId, SynWeight, Delay>;
  std::vector<Syn> expect;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    for (std::size_t k = net.out_begin(id); k < net.out_end(id); ++k) {
      expect.emplace_back(id, net.syn_target(k), net.syn_weight(k),
                          net.syn_delay(k));
    }
  }
  std::vector<Syn> got;
  for (std::size_t sh = 0; sh < split.shards.size(); ++sh) {
    const snn::ShardCsr& c = split.shards[sh];
    for (std::size_t k = 0; k < c.num_neurons(); ++k) {
      const NeuronId src = c.global_ids[k];
      split.intra[sh].for_each_out_synapse(
          static_cast<NeuronId>(k),
          [&](std::size_t, NeuronId tgt, SynWeight w, Delay d) {
            got.emplace_back(src, split.partition.shard_neurons[sh][tgt], w,
                             d);
          });
      for (std::size_t g = c.cross_seg_offsets[k];
           g < c.cross_seg_offsets[k + 1]; ++g) {
        for (std::size_t j = c.cross_seg_begin[g]; j < c.cross_seg_begin[g + 1];
             ++j) {
          got.emplace_back(src,
                           split.partition
                               .shard_neurons[c.cross_seg_shard[g]]
                                             [c.cross_local[j]],
                           c.cross_weight[j], c.cross_seg_delay[g]);
        }
      }
    }
  }
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect) << "seed " << seed << " S " << s;
  EXPECT_EQ(split.min_cross_delay,
            partition_min_cross_delay(net, split.partition));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutRefinedFuzz, ::testing::Range(0, 20));

TEST(CutRefined, LocalChainBeatsLptOnCutAndKeepsIsolatedNeurons) {
  // A chain 0→1→…→9 (delay 1) plus two isolated neurons: LPT scatters by
  // degree and cuts the chain many times; refinement must strictly reduce
  // the cut, and the isolated neurons must stay assigned exactly once.
  snn::Network net;
  for (int i = 0; i < 12; ++i) net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  for (NeuronId i = 0; i + 1 < 10; ++i) net.add_synapse(i, i + 1, 1, 1);
  const snn::CompiledNetwork compiled = net.compile();

  const snn::Partition lpt =
      make_partition(compiled, 2, snn::PartitionKind::kLpt);
  const snn::Partition ref =
      make_partition(compiled, 2, snn::PartitionKind::kCutRefined);
  EXPECT_LT(partition_cut_weight(compiled, ref),
            partition_cut_weight(compiled, lpt))
      << "refinement found no improvement on a cut-heavy chain";

  std::set<NeuronId> seen;
  for (const auto& members : ref.shard_neurons) {
    for (const NeuronId id : members) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), compiled.num_neurons());
}

TEST(CutRefined, SingleShardAndEmptyNetworkAreNoOps) {
  const snn::CompiledNetwork one = random_net(3).compile();
  const snn::Partition p1 =
      make_partition(one, 1, snn::PartitionKind::kCutRefined);
  for (NeuronId id = 0; id < one.num_neurons(); ++id) {
    EXPECT_EQ(p1.shard_of[id], 0u);
    EXPECT_EQ(p1.local_index[id], id);
  }

  snn::Network empty;
  const snn::CompiledNetwork compiled = empty.compile();
  const snn::Partition p0 =
      make_partition(compiled, 4, snn::PartitionKind::kCutRefined);
  EXPECT_TRUE(p0.shard_of.empty());
  EXPECT_EQ(p0.num_shards, 4u);
}

TEST(Partition, SingleShardIsTheIdentityLayout) {
  const snn::CompiledNetwork net = random_net(3).compile();
  const snn::Partition p = make_partition(net, 1);
  ASSERT_EQ(p.shard_neurons.size(), 1u);
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    EXPECT_EQ(p.shard_of[id], 0u);
    EXPECT_EQ(p.local_index[id], id);
    EXPECT_EQ(p.shard_neurons[0][id], id);
  }
  // With one shard nothing crosses: the split is the whole CSR, local.
  const snn::ShardSplit split = net.shard_split(p);
  EXPECT_EQ(split.num_cross_synapses, 0u);
  EXPECT_EQ(split.min_cross_delay, 0u);
  EXPECT_EQ(split.intra[0].num_synapses(), net.num_synapses());
}

TEST(Partition, EmptyNetwork) {
  snn::Network net;
  const snn::CompiledNetwork compiled = net.compile();
  const snn::Partition p = make_partition(compiled, 4);
  EXPECT_EQ(p.num_shards, 4u);
  EXPECT_TRUE(p.shard_of.empty());
  for (const auto& members : p.shard_neurons) EXPECT_TRUE(members.empty());
  const snn::ShardSplit split = compiled.shard_split(p);
  EXPECT_EQ(split.shards.size(), 4u);
  EXPECT_EQ(split.num_cross_synapses, 0u);
}

TEST(Partition, SingleNeuronWithSelfLoop) {
  snn::Network net;
  net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  net.add_synapse(0, 0, 1, 5);
  const snn::CompiledNetwork compiled = net.compile();
  const snn::Partition p = make_partition(compiled, 3);
  EXPECT_EQ(p.shard_of[0], 0u);  // lightest-shard tie breaks low
  const snn::ShardSplit split = compiled.shard_split(p);
  // The self-loop is intra-shard wherever the neuron lands.
  EXPECT_EQ(split.num_cross_synapses, 0u);
  EXPECT_EQ(split.intra[0].num_synapses(), 1u);
  EXPECT_EQ(split.intra[0].syn_target(0), 0u);
}

TEST(Partition, CrossBytesCountTheU32IndexColumns) {
  // Shard 0 = {0, 1}, shard 1 = {2, 3}. Neuron 0 sends two cross runs to
  // shard 1 ((1, 3) with 2 synapses, (1, 5) with 1), neuron 2 one run to
  // shard 0; 1 -> 0 stays intra.
  snn::Network net;
  for (int i = 0; i < 4; ++i) net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  net.add_synapse(0, 2, 1, 3);
  net.add_synapse(0, 3, 1, 3);
  net.add_synapse(0, 3, 1, 5);
  net.add_synapse(1, 0, 1, 1);
  net.add_synapse(2, 0, 1, 2);
  const snn::CompiledNetwork compiled = net.compile();
  snn::Partition p;
  p.num_shards = 2;
  p.shard_of = {0, 0, 1, 1};
  p.local_index = {0, 1, 0, 1};
  p.shard_neurons = {{0, 1}, {2, 3}};
  p.shard_load = {0, 0};
  const snn::ShardSplit split = compiled.shard_split(p);
  ASSERT_EQ(split.num_cross_synapses, 4u);
  const snn::ShardCsr& s0 = split.shards[0];
  const snn::ShardCsr& s1 = split.shards[1];
  EXPECT_EQ(s0.cross_seg_offsets, (std::vector<std::uint32_t>{0, 2, 2}));
  EXPECT_EQ(s0.cross_seg_begin, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(s1.cross_seg_offsets, (std::vector<std::uint32_t>{0, 1, 1}));
  EXPECT_EQ(s1.cross_seg_begin, (std::vector<std::uint32_t>{0, 1}));
  // Per shard: 4 B per offset (n + 1), per segment begin (S + 1) and per
  // segment shard; 4 B per cross target, 8 B per weight and per segment
  // delay.
  static_assert(sizeof(NeuronId) == 4 && sizeof(SynWeight) == 8 &&
                sizeof(Delay) == 8);
  EXPECT_EQ(s0.cross_bytes(), 4u * (3 + 3 + 2) + 4 * 3 + 8 * 3 + 8 * 2);
  EXPECT_EQ(s1.cross_bytes(), 4u * (3 + 2 + 1) + 4 * 1 + 8 * 1 + 8 * 1);
  EXPECT_EQ(split.storage_bytes(), split.intra[0].csr_storage_bytes() +
                                       split.intra[1].csr_storage_bytes() +
                                       84 + 44);
}

TEST(Partition, RejectsMismatchedPartition) {
  const snn::CompiledNetwork a = random_net(1).compile();
  const snn::CompiledNetwork b = random_net(2).compile();
  if (a.num_neurons() == b.num_neurons()) GTEST_SKIP();
  EXPECT_THROW(b.shard_split(make_partition(a, 2)), std::runtime_error);
}

}  // namespace
}  // namespace sga
