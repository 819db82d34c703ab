#include "snn/compiled_network.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sga::snn {

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
  const auto [tgt_n, wgt_n] = std::visit(
      [](const auto& st) {
        return std::make_pair(st.targets.size(), st.weights.size());
      },
      store_);
  SGA_REQUIRE(tgt_n == m && wgt_n == m,
              "verify: synapse SoA arrays disagree on the synapse count ("
                  << m << " per row pointers vs " << tgt_n << " targets, "
                  << wgt_n << " weights)");

  // The width tag and the live variant alternative must agree — a tag that
  // lies about the encoding would desynchronize snapshots, io headers, and
  // the stats the trajectory keys on.
  const StorageWidths store_w =
      std::visit([](const auto& st) { return st.widths(); }, store_);
  SGA_REQUIRE(store_w == widths_,
              "verify: storage width tag claims the "
                  << encoding_name(widths_) << " encoding but the payload is "
                  << encoding_name(store_w));

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
  const auto [sd_n, sb_n] = std::visit(
      [](const auto& st) {
        return std::make_pair(st.seg_delays.size(), st.seg_syn_begin.size());
      },
      store_);
  SGA_REQUIRE(seg_offsets_.size() == n + 1 && seg_offsets_[0] == 0 &&
                  seg_offsets_[n] == sd_n && sb_n == sd_n + 1,
              "verify: malformed segment CSR ("
                  << seg_offsets_.size() << " row pointers covering "
                  << seg_offsets_[n] << " segments vs " << sd_n
                  << " delays, " << sb_n << " begins)");
  // The begin column ends in the synapse sentinel, which serves as the
  // last segment's end.
  SGA_REQUIRE(seg_syn_begin(sd_n) == m,
              "verify: segment begin column ends in "
                  << seg_syn_begin(sd_n) << ", not the synapse sentinel "
                  << m);
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

void CompiledNetwork::recompute_pos_in_weight() {
  pos_in_weight_.assign(num_neurons(), 0);
  std::visit(
      [this](const auto& st) {
        for (std::size_t k = 0; k < st.targets.size(); ++k) {
          const auto w = static_cast<SynWeight>(st.weights[k]);
          if (w > 0) pos_in_weight_[static_cast<NeuronId>(st.targets[k])] += w;
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
