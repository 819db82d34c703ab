#include "snn/partition.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/error.h"
#include "snn/compiled_network.h"

namespace sga::snn {

namespace {

/// Refinement passes are bounded: greedy label propagation converges fast
/// and each pass is O(m + n·S), so a hard cap keeps partitioning cheap on
/// the million-neuron instances while letting small graphs converge fully.
constexpr std::size_t kMaxRefinePasses = 8;

/// Order min-cross-delay with 0 ("no cross synapses") as +infinity: a
/// partition with no cross edges has an unbounded lookahead window and
/// must never be degraded.
std::int64_t encode_min_cross(Delay d) {
  return d == 0 ? std::numeric_limits<std::int64_t>::max() : d;
}

/// Cut-minimizing refinement over an LPT seed (see partition.h file
/// comment). Deterministic: neurons are visited in id order, candidate
/// shards in (affinity desc, index asc) order, and the first candidate
/// passing the balance cap and the min-cross-delay filter wins.
void refine_partition(const CompiledNetwork& net, Partition& p) {
  const std::size_t n = net.num_neurons();
  const std::size_t S = p.num_shards;
  const Delay max_delay = net.max_delay();

  // Cross-delay histogram + cut weight of the seed. The histogram is what
  // makes the lexicographic filter cheap: a move's delta touches only the
  // delays of edges incident to the moved neuron, and the partition's
  // min-cross-delay is the smallest delay with a nonzero count.
  std::vector<std::int64_t> hist(static_cast<std::size_t>(max_delay) + 1, 0);
  double cut = 0.0;
  for (NeuronId id = 0; id < n; ++id) {
    net.for_each_out_synapse(
        id, [&](std::size_t, NeuronId tgt, SynWeight, Delay d) {
          if (p.shard_of[tgt] != p.shard_of[id]) {
            ++hist[static_cast<std::size_t>(d)];
            cut += 1.0 / static_cast<double>(d);
          }
        });
  }
  Delay cur_min = 0;
  for (std::size_t d = 1; d < hist.size(); ++d) {
    if (hist[d] > 0) {
      cur_min = static_cast<Delay>(d);
      break;
    }
  }
  p.pass_min_cross_delay.push_back(cur_min);
  p.pass_cut_weight.push_back(cut);
  if (S < 2 || n == 0) return;

  // Transpose adjacency (counting sort): refinement needs a neuron's IN
  // edges too — moving `id` changes the cut status of both edge
  // directions, and the CompiledNetwork CSR only stores out-rows.
  std::vector<std::size_t> in_off(n + 1, 0);
  for (NeuronId id = 0; id < n; ++id) {
    net.for_each_out_synapse(
        id, [&](std::size_t, NeuronId tgt, SynWeight, Delay) {
          ++in_off[tgt + 1];
        });
  }
  for (std::size_t i = 1; i <= n; ++i) in_off[i] += in_off[i - 1];
  std::vector<NeuronId> in_src(net.num_synapses());
  std::vector<Delay> in_delay(net.num_synapses());
  {
    std::vector<std::size_t> cursor(in_off.begin(), in_off.end() - 1);
    for (NeuronId id = 0; id < n; ++id) {
      net.for_each_out_synapse(
          id, [&](std::size_t, NeuronId tgt, SynWeight, Delay d) {
            const std::size_t w = cursor[tgt]++;
            in_src[w] = id;
            in_delay[w] = d;
          });
    }
  }

  // Same balance cap the LPT bound guarantees (integer arithmetic matches
  // the property test), so refinement preserves the documented bound.
  std::uint64_t total = 0;
  std::uint64_t w_max = 0;
  for (NeuronId id = 0; id < n; ++id) {
    const std::uint64_t w = 1 + net.out_degree(id);
    total += w;
    w_max = std::max(w_max, w);
  }
  const std::uint64_t cap = total / S + w_max;

  std::vector<double> affinity(S, 0.0);
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> candidates;
  // (delay, delta) pairs of the move under evaluation, for revert.
  std::vector<std::pair<std::size_t, std::int64_t>> deltas;

  for (std::size_t pass = 0; pass < kMaxRefinePasses; ++pass) {
    std::size_t moved = 0;
    for (NeuronId id = 0; id < n; ++id) {
      const std::uint32_t s0 = p.shard_of[id];
      // Affinity of `id` to each neighboring shard: Σ 1/delay over both
      // edge directions. Self-loops move with the neuron and never change
      // cut status, so they are excluded.
      touched.clear();
      net.for_each_out_synapse(
          id, [&](std::size_t, NeuronId tgt, SynWeight, Delay d) {
            if (tgt == id) return;
            const std::uint32_t ts = p.shard_of[tgt];
            if (affinity[ts] == 0.0) touched.push_back(ts);
            affinity[ts] += 1.0 / static_cast<double>(d);
          });
      for (std::size_t j = in_off[id]; j < in_off[id + 1]; ++j) {
        const NeuronId src = in_src[j];
        if (src == id) continue;
        const std::uint32_t ss = p.shard_of[src];
        if (affinity[ss] == 0.0) touched.push_back(ss);
        affinity[ss] += 1.0 / static_cast<double>(in_delay[j]);
      }

      // Candidates: shards with strictly more affinity than home (the cut
      // gain of moving there), best-first, ties to the lowest index.
      candidates.clear();
      for (const std::uint32_t s : touched) {
        if (s != s0 && affinity[s] > affinity[s0]) candidates.push_back(s);
      }
      std::sort(candidates.begin(), candidates.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (affinity[a] != affinity[b]) {
                    return affinity[a] > affinity[b];
                  }
                  return a < b;
                });

      const std::uint64_t w_id = 1 + net.out_degree(id);
      for (const std::uint32_t s1 : candidates) {
        if (p.shard_load[s1] + w_id > cap) continue;
        // Lexicographic filter: apply the move's cross-delay histogram
        // delta and reject (revert) if the minimum cross delay shrinks.
        deltas.clear();
        const auto add_delta = [&](std::uint32_t other_shard, Delay d) {
          if (other_shard == s0) {
            deltas.emplace_back(static_cast<std::size_t>(d), +1);
          } else if (other_shard == s1) {
            deltas.emplace_back(static_cast<std::size_t>(d), -1);
          }
        };
        net.for_each_out_synapse(
            id, [&](std::size_t, NeuronId tgt, SynWeight, Delay d) {
              if (tgt != id) add_delta(p.shard_of[tgt], d);
            });
        for (std::size_t j = in_off[id]; j < in_off[id + 1]; ++j) {
          if (in_src[j] != id) add_delta(p.shard_of[in_src[j]], in_delay[j]);
        }
        for (const auto& [d, delta] : deltas) hist[d] += delta;
        Delay new_min = 0;
        for (std::size_t d = 1; d < hist.size(); ++d) {
          if (hist[d] > 0) {
            new_min = static_cast<Delay>(d);
            break;
          }
        }
        if (encode_min_cross(new_min) < encode_min_cross(cur_min)) {
          for (const auto& [d, delta] : deltas) hist[d] -= delta;
          continue;
        }
        // Accept. The cut decreases by the (strictly positive) gain, so
        // pass_cut_weight is non-increasing even under FP rounding.
        cut += affinity[s0] - affinity[s1];
        cur_min = new_min;
        p.shard_of[id] = s1;
        p.shard_load[s0] -= w_id;
        p.shard_load[s1] += w_id;
        ++moved;
        break;
      }
      for (const std::uint32_t s : touched) affinity[s] = 0.0;
    }
    p.pass_min_cross_delay.push_back(cur_min);
    p.pass_cut_weight.push_back(cut);
    if (moved == 0) break;
  }
}

}  // namespace

Partition make_partition(const CompiledNetwork& net, std::size_t num_shards,
                         PartitionKind kind) {
  SGA_REQUIRE(num_shards >= 1, "make_partition: need at least one shard");
  const std::size_t n = net.num_neurons();

  Partition p;
  p.num_shards = num_shards;
  p.kind = kind;
  p.shard_of.assign(n, 0);
  p.local_index.assign(n, 0);
  p.shard_neurons.resize(num_shards);
  p.shard_load.assign(num_shards, 0);

  // LPT greedy: heaviest neuron first onto the lightest shard. Weight is
  // 1 + out_degree (state update + fan-out per fire). All ties are broken
  // by id (ordering) and by shard index (placement), so the result is a
  // pure function of (network, num_shards).
  std::vector<NeuronId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](NeuronId a, NeuronId b) {
    return net.out_degree(a) > net.out_degree(b);
  });
  for (const NeuronId id : order) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < num_shards; ++s) {
      if (p.shard_load[s] < p.shard_load[best]) best = s;
    }
    p.shard_of[id] = static_cast<std::uint32_t>(best);
    p.shard_load[best] += 1 + net.out_degree(id);
  }

  if (kind == PartitionKind::kCutRefined) refine_partition(net, p);

  // Local indices follow ascending neuron id within a shard: partitioning
  // over S = 1 is then exactly the identity layout.
  for (NeuronId id = 0; id < n; ++id) {
    auto& members = p.shard_neurons[p.shard_of[id]];
    p.local_index[id] = static_cast<NeuronId>(members.size());
    members.push_back(id);
  }
  return p;
}

double partition_cut_weight(const CompiledNetwork& net, const Partition& p) {
  double cut = 0.0;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    net.for_each_out_synapse(
        id, [&](std::size_t, NeuronId tgt, SynWeight, Delay d) {
          if (p.shard_of[tgt] != p.shard_of[id]) {
            cut += 1.0 / static_cast<double>(d);
          }
        });
  }
  return cut;
}

Delay partition_min_cross_delay(const CompiledNetwork& net,
                                const Partition& p) {
  Delay min_cross = 0;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    net.for_each_out_synapse(
        id, [&](std::size_t, NeuronId tgt, SynWeight, Delay d) {
          if (p.shard_of[tgt] != p.shard_of[id]) {
            min_cross = min_cross == 0 ? d : std::min(min_cross, d);
          }
        });
  }
  return min_cross;
}

std::size_t ShardCsr::cross_bytes() const {
  return (cross_seg_offsets.size() + cross_seg_begin.size() +
          cross_seg_shard.size()) *
             sizeof(std::uint32_t) +
         cross_local.size() * sizeof(NeuronId) +
         cross_weight.size() * sizeof(SynWeight) +
         cross_seg_delay.size() * sizeof(Delay);
}

std::size_t ShardSplit::storage_bytes() const {
  std::size_t bytes = 0;
  for (const CompiledNetwork& net : intra) bytes += net.csr_storage_bytes();
  for (const ShardCsr& shard : shards) bytes += shard.cross_bytes();
  return bytes;
}

ShardSplit CompiledNetwork::shard_split(Partition partition) const {
  const std::size_t n = num_neurons();
  SGA_REQUIRE(partition.shard_of.size() == n,
              "shard_split: partition covers " << partition.shard_of.size()
                                               << " neurons, network has "
                                               << n);

  ShardSplit split;
  split.shards.resize(partition.num_shards);
  split.intra.reserve(partition.num_shards);
  Delay min_cross = 0;

  // One walk per row sorts each synapse into its family. Rows are delay-
  // sorted, so the intra family arrives delay-sorted with each delay run
  // in builder insertion order, which the streamed freeze's stable sort
  // keeps. The cross slice is stably re-sorted by destination shard, which
  // leaves it sorted by (shard, delay) with insertion order within a run.
  struct Syn {
    NeuronId from;  ///< local source (intra) / destination shard (cross)
    NeuronId to;    ///< local target
    SynWeight weight;
    Delay delay;
  };
  std::vector<Syn> intra;
  std::vector<Syn> cross;
  for (std::size_t s = 0; s < partition.num_shards; ++s) {
    const std::vector<NeuronId>& members = partition.shard_neurons[s];
    ShardCsr& shard = split.shards[s];
    shard.global_ids = members;
    shard.cross_seg_offsets.assign(members.size() + 1, 0);
    intra.clear();
    for (NeuronId k = 0; k < members.size(); ++k) {
      cross.clear();
      for_each_out_synapse(members[k], [&](std::size_t, NeuronId tgt,
                                           SynWeight w, Delay d) {
        const std::uint32_t ts = partition.shard_of[tgt];
        if (ts == s) {
          intra.push_back(Syn{k, partition.local_index[tgt], w, d});
        } else {
          cross.push_back(Syn{ts, partition.local_index[tgt], w, d});
          min_cross = min_cross == 0 ? d : std::min(min_cross, d);
        }
      });
      std::stable_sort(cross.begin(), cross.end(),
                       [](const Syn& a, const Syn& b) {
                         return a.from < b.from;
                       });
      for (std::size_t j = 0; j < cross.size(); ++j) {
        const Syn& e = cross[j];
        // A (shard, delay) run starts wherever the key changes.
        if (j == 0 || e.from != cross[j - 1].from ||
            e.delay != cross[j - 1].delay) {
          shard.cross_seg_shard.push_back(e.from);
          shard.cross_seg_delay.push_back(e.delay);
          shard.cross_seg_begin.push_back(
              static_cast<std::uint32_t>(shard.cross_local.size()));
        }
        shard.cross_local.push_back(e.to);
        shard.cross_weight.push_back(e.weight);
      }
      // The count only grows and every segment holds a synapse, so one
      // check per row bounds every u32 index written above (a row that
      // overflows throws before the split is returned).
      SGA_REQUIRE(shard.cross_local.size() < (std::size_t{1} << 32),
                  "shard_split: shard " << s << " has more than 2^32 - 1 "
                                        << "cross synapses; the cross "
                                           "family indexes them in u32");
      shard.cross_seg_offsets[k + 1] =
          static_cast<std::uint32_t>(shard.cross_seg_delay.size());
    }
    // Segments tile the shard's cross synapses in order, so each one ends
    // where the next begins; the sentinel ends the last.
    shard.cross_seg_begin.push_back(
        static_cast<std::uint32_t>(shard.cross_local.size()));
    split.num_cross_synapses += shard.cross_local.size();
    split.intra.push_back(compile_streamed(
        members.size(), [&](NeuronId k) { return params(members[k]); },
        [&](const SynapseSink& sink) {
          for (const Syn& e : intra) sink(e.from, e.to, e.weight, e.delay);
        }));
  }
  split.min_cross_delay = min_cross;
  split.partition = std::move(partition);
  return split;
}

}  // namespace sga::snn
