#include "snn/compiled_network.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

namespace sga::snn {

namespace {

/// Move `src` into `dst` when the element types match, otherwise narrow
/// element-wise. The caller has already validated every value against the
/// chosen width's range.
template <typename T, typename U>
void narrow_into(std::vector<T>& dst, std::vector<U>&& src) {
  if constexpr (std::is_same_v<T, U>) {
    dst = std::move(src);
  } else {
    dst.reserve(src.size());
    for (const U v : src) dst.push_back(static_cast<T>(v));
    src.clear();
    src.shrink_to_fit();  // the wide temporary dies here, not at scope end
  }
}

}  // namespace

void CompiledNetwork::verify_invariants() const {
  const std::size_t n = num_neurons();
  SGA_REQUIRE(v_threshold_.size() == n && tau_.size() == n &&
                  pos_in_weight_.size() == n,
              "verify: neuron SoA arrays disagree on the neuron count ("
                  << n << " resets, " << v_threshold_.size()
                  << " thresholds, " << tau_.size() << " taus, "
                  << pos_in_weight_.size() << " in-weight entries)");
  for (NeuronId i = 0; i < n; ++i) {
    SGA_REQUIRE(std::isfinite(v_reset_[i]) && std::isfinite(v_threshold_[i]),
                "verify: neuron " << i << " has non-finite parameters "
                                  << "(v_reset = " << v_reset_[i]
                                  << ", v_threshold = " << v_threshold_[i]
                                  << ")");
    SGA_REQUIRE(tau_[i] >= 0.0 && tau_[i] <= 1.0,
                "verify: neuron " << i << " has decay τ = " << tau_[i]
                                  << " outside [0, 1]");
  }

  SGA_REQUIRE(offsets_.size() == n + 1 && !offsets_.empty() &&
                  offsets_[0] == 0,
              "verify: malformed CSR row pointers (" << offsets_.size()
                                                     << " entries for " << n
                                                     << " neurons)");
  const std::size_t m = offsets_[n];
  const auto [tgt_n, wgt_n, dly_n] = std::visit(
      [](const auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          // The packed layout has no per-synapse delay column; the target
          // and (implied) delay counts are both num_targets.
          return std::make_tuple(st.num_targets, st.weights.size(),
                                 st.num_targets);
        } else {
          return std::make_tuple(st.targets.size(), st.weights.size(),
                                 st.delays.size());
        }
      },
      store_);
  SGA_REQUIRE(tgt_n == m && wgt_n == m && dly_n == m,
              "verify: synapse SoA arrays disagree on the synapse count ("
                  << m << " per row pointers vs " << tgt_n << " targets, "
                  << wgt_n << " weights, " << dly_n << " delays)");

  // The width tag and the live variant alternative must agree — a tag that
  // lies about the encoding would desynchronize snapshots, io headers, and
  // the stats the trajectory keys on.
  const StorageWidths store_w =
      std::visit([](const auto& st) { return st.widths(); }, store_);
  SGA_REQUIRE(store_w == widths_,
              "verify: storage width tag claims the "
                  << encoding_name(widths_) << " encoding but the payload is "
                  << encoding_name(store_w));

  // Packed structural pre-checks (ARCHITECTURE.md §1.11): every index the
  // block decoder and the segment accessors will follow must be proven
  // in-bounds BEFORE the generic per-synapse loops below decode anything.
  std::visit(
      [m](const auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          const std::size_t nb =
              (m + kPackedBlockSize - 1) / kPackedBlockSize;
          SGA_REQUIRE(st.block_base.size() == nb &&
                          st.block_bits.size() == nb &&
                          st.block_word.size() == nb,
                      "verify: packed block tables disagree on the block "
                      "count (" << nb << " blocks for " << m
                                << " synapses vs " << st.block_base.size()
                                << " bases, " << st.block_bits.size()
                                << " bit-widths, " << st.block_word.size()
                                << " word offsets)");
          std::size_t words = 0;
          for (std::size_t j = 0; j < nb; ++j) {
            const unsigned bits = st.block_bits[j];
            SGA_REQUIRE(bits <= 32, "verify: packed block "
                                        << j << " declares " << bits
                                        << "-bit deltas (max 32)");
            SGA_REQUIRE(st.block_word[j] == words,
                        "verify: packed block "
                            << j << " claims word offset " << st.block_word[j]
                            << " but the preceding blocks occupy " << words
                            << " words");
            const std::size_t count =
                std::min(kPackedBlockSize, m - j * kPackedBlockSize);
            words += packed_block_words(count, bits);
          }
          SGA_REQUIRE(st.pack_words.size() == words,
                      "verify: packed delta array has "
                          << st.pack_words.size()
                          << " words but the block headers account for "
                          << words);
          const std::size_t segs = st.seg_delays.size();
          SGA_REQUIRE(st.seg_syn_begin.size() == segs + 1 &&
                          st.seg_syn_begin.front() == 0 &&
                          st.seg_syn_begin.back() == m,
                      "verify: packed segment begin column must hold "
                          << segs + 1
                          << " entries from 0 to the synapse sentinel " << m);
          for (std::size_t s = 0; s < segs; ++s) {
            SGA_REQUIRE(st.seg_syn_begin[s] < st.seg_syn_begin[s + 1],
                        "verify: packed segment begin column not strictly "
                        "increasing at run " << s);
          }
        }
      },
      store_);

  // Storage-width consistency: a narrow payload must be able to represent
  // every value the structural checks below will read out of it (a width
  // tag that lies about its ranges would have silently truncated).
  if (widths_.narrow) {
    SGA_REQUIRE(widths_.target_bytes != 2 || n <= (1ULL << 16),
                "verify: u16 target storage cannot address " << n
                                                             << " neurons");
    const Delay delay_cap = widths_.delay_bytes == 1 ? 255 : 65535;
    SGA_REQUIRE(max_delay_ <= delay_cap,
                "verify: stored max delay " << max_delay_
                                            << " exceeds the "
                                            << int{widths_.delay_bytes}
                                            << "-byte delay storage cap "
                                            << delay_cap);
    SGA_REQUIRE(m < (1ULL << 32),
                "verify: u32 segment bounds cannot index " << m
                                                           << " synapses");
  }

  for (NeuronId i = 0; i < n; ++i) {
    SGA_REQUIRE(offsets_[i] <= offsets_[i + 1],
                "verify: CSR row pointers not monotone at neuron "
                    << i << " (" << offsets_[i] << " > " << offsets_[i + 1]
                    << ")");
  }

  // Segment CSR (ARCHITECTURE.md §1.6): the fan-out kernel indexes these
  // arrays unchecked, so every bound and the delay-run monotonicity the
  // horizon break relies on must hold. Checked BEFORE the synapse walk
  // below, which takes its delays from the segments and needs them to tile
  // each row.
  const auto [sd_n, sb_n, se_n] = std::visit(
      [](const auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          // Sentinel-terminated begin column (size checked above) doubles
          // as the end column: both bounds count seg_delays entries.
          return std::make_tuple(st.seg_delays.size(), st.seg_delays.size(),
                                 st.seg_delays.size());
        } else {
          return std::make_tuple(st.seg_delays.size(),
                                 st.seg_syn_begin.size(),
                                 st.seg_syn_end.size());
        }
      },
      store_);
  SGA_REQUIRE(seg_offsets_.size() == n + 1 && seg_offsets_[0] == 0 &&
                  seg_offsets_[n] == sd_n && sb_n == sd_n && se_n == sd_n,
              "verify: malformed segment CSR ("
                  << seg_offsets_.size() << " row pointers covering "
                  << seg_offsets_[n] << " segments vs " << sd_n
                  << " delays, " << sb_n << " begins, " << se_n << " ends)");
  for (NeuronId i = 0; i < n; ++i) {
    SGA_REQUIRE(seg_offsets_[i] <= seg_offsets_[i + 1],
                "verify: segment row pointers not monotone at neuron "
                    << i << " (" << seg_offsets_[i] << " > "
                    << seg_offsets_[i + 1] << ")");
    std::size_t expect = offsets_[i];
    Delay prev = 0;  // below kMinDelay, so the strict check covers run 0
    for (std::size_t s = seg_offsets_[i]; s < seg_offsets_[i + 1]; ++s) {
      SGA_REQUIRE(seg_syn_begin(s) == expect,
                  "verify: segment " << s << " does not tile neuron " << i
                                     << "'s row (begins at "
                                     << seg_syn_begin(s) << ", expected "
                                     << expect << ")");
      SGA_REQUIRE(seg_syn_end(s) > seg_syn_begin(s) &&
                      seg_syn_end(s) <= offsets_[i + 1],
                  "verify: segment " << s << " has bad synapse range ["
                                     << seg_syn_begin(s) << ", "
                                     << seg_syn_end(s) << ") in a row ending "
                                     << "at " << offsets_[i + 1]);
      SGA_REQUIRE(seg_delay(s) > prev,
                  "verify: delay runs not strictly increasing at segment "
                      << s << " of neuron " << i << " (" << seg_delay(s)
                      << " after " << prev << ")");
      // The flat layouts also keep a per-synapse delay column (the width
      // tag was matched to the store above); the packed one stores delays
      // only as these runs.
      if (!widths_.packed) {
        for (std::size_t k = seg_syn_begin(s); k < seg_syn_end(s); ++k) {
          SGA_REQUIRE(syn_delay(k) == seg_delay(s),
                      "verify: synapse " << k << " (delay " << syn_delay(k)
                                         << ") disagrees with its segment "
                                         << s << " on delay " << seg_delay(s));
        }
      }
      prev = seg_delay(s);
      expect = seg_syn_end(s);
    }
    SGA_REQUIRE(expect == offsets_[i + 1],
                "verify: segments leave a tail of neuron "
                    << i << "'s row uncovered (tiled to " << expect
                    << " of " << offsets_[i + 1] << ")");
  }

  Delay max_delay = 0;
  std::vector<SynWeight> pos_in(n, 0);
  for (NeuronId i = 0; i < n; ++i) {
    for_each_out_synapse(i, [&](std::size_t k, NeuronId tgt, SynWeight w,
                                Delay d) {
      SGA_REQUIRE(tgt < n, "verify: synapse " << k
                                              << " targets out-of-range "
                                                 "neuron "
                                              << tgt);
      SGA_REQUIRE(d >= kMinDelay, "verify: synapse "
                                      << k << " has delay " << d
                                      << " below minimum δ = " << kMinDelay);
      SGA_REQUIRE(std::isfinite(w), "verify: synapse "
                                        << k << " has non-finite weight "
                                        << w);
      if (w > 0) pos_in[tgt] += w;
      max_delay = std::max(max_delay, d);
    });
  }
  SGA_REQUIRE(max_delay_ == max_delay,
              "verify: stored max delay " << max_delay_
                                          << " != payload max delay "
                                          << max_delay);
  for (NeuronId i = 0; i < n; ++i) {
    SGA_REQUIRE(pos_in_weight_[i] == pos_in[i],
                "verify: positive in-weight table stale at neuron "
                    << i << " (stored " << pos_in_weight_[i]
                    << ", payload sums to " << pos_in[i] << ")");
  }

  for (const auto& [name, ids] : groups_) {
    SGA_REQUIRE(!name.empty(), "verify: empty group name");
    for (const NeuronId id : ids) {
      SGA_REQUIRE(id < n, "verify: group '" << name
                                            << "' contains out-of-range "
                                               "neuron id "
                                            << id);
    }
  }
}

std::size_t CompiledNetwork::out_chunk(std::size_t k, std::size_t row_end,
                                       std::size_t& seg, NeuronId* tgt,
                                       SynWeight* wgt, Delay* dly) const {
  const std::size_t ce =
      std::min(row_end, (k / kPackedBlockSize + 1) * kPackedBlockSize);
  std::visit(
      [&](const auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          st.decode_range(k, ce, tgt);
        } else {
          for (std::size_t j = k; j < ce; ++j) {
            tgt[j - k] = static_cast<NeuronId>(st.targets[j]);
          }
        }
        for (std::size_t j = k; j < ce; ++j) {
          while (st.seg_syn_end_at(seg) <= j) ++seg;
          wgt[j - k] = static_cast<SynWeight>(st.weights[j]);
          dly[j - k] = st.seg_delay_at(seg);
        }
      },
      store_);
  return ce;
}

void CompiledNetwork::recompute_pos_in_weight() {
  pos_in_weight_.assign(num_neurons(), 0);
  std::visit(
      [this](const auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          // One sequential decode sweep, a block per decode_range call —
          // same flat-index accumulation order as the non-packed branch,
          // so the table stays bit-exact across encodings.
          std::uint32_t tmp[kPackedBlockSize];
          for (std::size_t b = 0; b < st.num_targets; b += kPackedBlockSize) {
            const std::size_t e =
                std::min(st.num_targets, b + kPackedBlockSize);
            st.decode_range(b, e, tmp);
            for (std::size_t k = b; k < e; ++k) {
              const auto w = static_cast<SynWeight>(st.weights[k]);
              if (w > 0) pos_in_weight_[tmp[k - b]] += w;
            }
          }
        } else {
          for (std::size_t k = 0; k < st.targets.size(); ++k) {
            const auto w = static_cast<SynWeight>(st.weights[k]);
            if (w > 0) {
              pos_in_weight_[static_cast<NeuronId>(st.targets[k])] += w;
            }
          }
        }
      },
      store_);
}

void CompiledNetwork::patch_weights(
    const std::vector<std::pair<std::size_t, SynWeight>>& edits) {
  const std::size_t m = num_synapses();
  const bool f32 = widths_.narrow && widths_.weight_bytes == 4;
  // All-or-nothing: every edit validated before the first store write.
  for (const auto& [k, w] : edits) {
    SGA_REQUIRE(k < m, "patch_weights: synapse index "
                           << k << " out of range (" << m << " synapses)");
    SGA_REQUIRE(std::isfinite(w), "patch_weights: synapse "
                                      << k << " assigned non-finite weight "
                                      << w);
    SGA_REQUIRE(!f32 || round_trips_f32(w),
                "patch_weights: weight "
                    << w << " for synapse " << k
                    << " does not round-trip the frozen float32 storage; "
                       "re-freeze the network to widen");
  }
  ++generation_;
  std::visit(
      [&edits](auto& st) {
        using WgtT = typename std::decay_t<decltype(st)>::WeightT;
        for (const auto& [k, w] : edits) {
          st.weights[k] = static_cast<WgtT>(w);
        }
      },
      store_);
  recompute_pos_in_weight();
  verify_invariants();
}

CompiledNetwork CompiledNetwork::from_packed_parts(
    PackedNetworkParts&& parts) {
  const std::size_t n = parts.neurons.size();
  SGA_REQUIRE(parts.widths.narrow && parts.widths.packed &&
                  parts.widths.target_bytes == 4 &&
                  parts.widths.seg_index_bytes == 4 &&
                  (parts.widths.delay_bytes == 1 ||
                   parts.widths.delay_bytes == 2) &&
                  (parts.widths.weight_bytes == 4 ||
                   parts.widths.weight_bytes == 8),
              "packed parts: width tag does not describe a packed encoding");
  SGA_REQUIRE(parts.offsets.size() == n + 1 && parts.offsets[0] == 0 &&
                  parts.seg_offsets.size() == n + 1 &&
                  parts.seg_offsets[0] == 0,
              "packed parts: malformed row pointers for " << n << " neurons");
  const std::size_t m = parts.offsets[n];
  const std::size_t segs = parts.seg_offsets[n];
  SGA_REQUIRE(m < (1ULL << 32),
              "packed parts: u32 segment bounds cannot index " << m
                                                               << " synapses");
  SGA_REQUIRE(parts.weights.size() == m,
              "packed parts: " << parts.weights.size() << " weights for "
                               << m << " synapses");
  SGA_REQUIRE(parts.seg_delays.size() == segs,
              "packed parts: " << parts.seg_delays.size() << " run delays for "
                               << segs << " segments");
  SGA_REQUIRE(parts.seg_syn_begin.size() == segs + 1 &&
                  parts.seg_syn_begin.front() == 0 &&
                  parts.seg_syn_begin.back() == m,
              "packed parts: segment begin column must hold "
                  << segs + 1 << " entries from 0 to the synapse sentinel "
                  << m);
  for (std::size_t s = 0; s < segs; ++s) {
    SGA_REQUIRE(parts.seg_syn_begin[s] < parts.seg_syn_begin[s + 1],
                "packed parts: segment begin column not strictly increasing "
                "at run " << s);
  }

  // Block-table structure: exactly the checks that make decode_range()
  // memory-safe. A truncated delta array, a bit-width edited to 0, or any
  // extra/missing word breaks the exact word sum.
  const std::size_t nb = (m + kPackedBlockSize - 1) / kPackedBlockSize;
  SGA_REQUIRE(parts.block_base.size() == nb && parts.block_bits.size() == nb,
              "packed parts: " << nb << " blocks expected for " << m
                               << " synapses, got " << parts.block_base.size()
                               << " bases and " << parts.block_bits.size()
                               << " bit-widths");
  std::vector<std::uint32_t> block_word(nb);
  std::size_t words = 0;
  for (std::size_t j = 0; j < nb; ++j) {
    const unsigned bits = parts.block_bits[j];
    SGA_REQUIRE(bits <= 32, "packed parts: block " << j << " declares "
                                                   << bits
                                                   << "-bit deltas (max 32)");
    block_word[j] = static_cast<std::uint32_t>(words);
    const std::size_t count = std::min(kPackedBlockSize,
                                       m - j * kPackedBlockSize);
    words += packed_block_words(count, bits);
  }
  SGA_REQUIRE(parts.pack_words.size() == words,
              "packed parts: delta array has " << parts.pack_words.size()
                                               << " words but the block "
                                                  "headers account for "
                                               << words);

  // Value-range checks the claimed widths imply (a lying tag would
  // silently truncate during the narrowing move below).
  const Delay delay_cap = parts.widths.delay_bytes == 1 ? 255 : 65535;
  Delay max_delay = 0;
  for (std::size_t s = 0; s < segs; ++s) {
    const Delay d = parts.seg_delays[s];
    SGA_REQUIRE(d >= 0 && d <= delay_cap,
                "packed parts: run " << s << " delay " << d
                                     << " does not fit the declared "
                                     << int{parts.widths.delay_bytes}
                                     << "-byte delay storage");
    max_delay = std::max(max_delay, d);
  }
  if (parts.widths.weight_bytes == 4) {
    for (std::size_t k = 0; k < m; ++k) {
      SGA_REQUIRE(round_trips_f32(parts.weights[k]),
                  "packed parts: weight " << parts.weights[k]
                                          << " at synapse " << k
                                          << " does not round-trip the "
                                             "declared float32 storage");
    }
  }

  CompiledNetwork net;
  net.v_reset_.resize(n);
  net.v_threshold_.resize(n);
  net.tau_.resize(n);
  for (NeuronId i = 0; i < n; ++i) {
    net.v_reset_[i] = parts.neurons[i].v_reset;
    net.v_threshold_[i] = parts.neurons[i].v_threshold;
    net.tau_[i] = parts.neurons[i].tau;
  }
  net.offsets_ = std::move(parts.offsets);
  net.seg_offsets_ = std::move(parts.seg_offsets);
  net.widths_ = parts.widths;
  net.max_delay_ = max_delay;
  net.store_ = make_synapse_store(net.widths_);
  std::visit(
      [&parts, &block_word, m, n](auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          st.num_targets = m;
          st.block_base = std::move(parts.block_base);
          st.block_bits = std::move(parts.block_bits);
          st.block_word = std::move(block_word);
          st.pack_words = std::move(parts.pack_words);
          narrow_into(st.weights, std::move(parts.weights));
          narrow_into(st.seg_delays, std::move(parts.seg_delays));
          st.seg_syn_begin = std::move(parts.seg_syn_begin);
          // Targets are untrusted until decoded: bound every one BEFORE
          // the in-weight tabulation (or any other consumer) indexes by
          // them. Structure is already proven, so the decode cannot read
          // out of bounds — only produce out-of-range ids.
          std::uint32_t tmp[kPackedBlockSize];
          for (std::size_t b = 0; b < m; b += kPackedBlockSize) {
            const std::size_t e = std::min(m, b + kPackedBlockSize);
            st.decode_range(b, e, tmp);
            for (std::size_t k = b; k < e; ++k) {
              SGA_REQUIRE(tmp[k - b] < n,
                          "packed parts: synapse " << k
                                                   << " decodes to out-of-"
                                                      "range neuron "
                                                   << tmp[k - b]);
            }
          }
        }
      },
      net.store_);
  net.recompute_pos_in_weight();
  for (auto& [name, ids] : parts.groups) {
    SGA_REQUIRE(net.groups_.emplace(name, std::move(ids)).second,
                "packed parts: duplicate group '" << name << "'");
  }
  return net;
}

const std::vector<NeuronId>& CompiledNetwork::group(
    const std::string& name) const {
  const auto it = groups_.find(name);
  SGA_REQUIRE(it != groups_.end(), "unknown group: " << name);
  return it->second;
}

std::vector<std::string> CompiledNetwork::group_names() const {
  std::vector<std::string> names;
  names.reserve(groups_.size());
  for (const auto& [name, ids] : groups_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace sga::snn
