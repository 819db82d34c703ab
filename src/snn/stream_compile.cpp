// Streaming generator-to-CSR freeze (ARCHITECTURE.md §1.8).
//
// compile_streamed() builds a CompiledNetwork from an edge stream with a
// two-pass counting sort, never materializing the nested-vector builder:
//   pass 1  count per-source degrees; scan the ranges that choose the
//           storage widths (max delay, target range, whether every weight
//           round-trips through float32); validate each synapse with its
//           ordinal and value in the message;
//   freeze  exclusive-scan the degree counts into the CSR row pointers,
//           choose widths, allocate the narrow payload ONCE;
//   pass 2  re-run the emitter and scatter each synapse through a cursor
//           array (the degree counts, reused); cross-check every value
//           against pass 1's ranges so a non-deterministic emitter fails
//           loudly instead of corrupting the CSR;
//   finish  stable-sort each row by delay (permutation gather through
//           small scratch buffers), build the delay-segment CSR, and
//           tabulate positive in-weights.
// Peak resident memory is the final CSR plus O(n) scratch — the builder
// path would hold the nested vectors AND the packed copy simultaneously.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "snn/compiled_network.h"

namespace sga::snn {

namespace {

/// Ranges observed by pass 1, cross-checked in pass 2.
struct StreamScan {
  std::size_t count = 0;
  Delay max_delay = 0;
  bool weights_fit_f32 = true;
};

template <typename Store>
void fill_streamed(Store& st, const std::vector<std::size_t>& offsets,
                   std::vector<std::size_t>& cursor,
                   std::vector<std::size_t>& seg_offsets,
                   std::vector<SynWeight>& pos_in_weight,
                   const std::function<void(const SynapseSink&)>& emit,
                   const StreamScan& scan, std::size_t n) {
  using TgtT = typename Store::Target;
  using DlyT = typename Store::DelayT;
  using WgtT = typename Store::WeightT;
  using SegT = typename Store::SegIndex;

  const std::size_t m = offsets[n];
  st.targets.resize(m);
  st.weights.resize(m);
  st.delays.resize(m);

  // Pass 2: scatter through the cursor array. Values are re-validated
  // against pass 1's scan so an emitter that is not deterministic between
  // the two passes cannot overflow the chosen widths or mis-place a row.
  std::size_t k = 0;
  const SynapseSink sink = [&](NeuronId from, NeuronId to, SynWeight weight,
                               Delay delay) {
    SGA_REQUIRE(k < m, "compile_streamed: pass 2 emitted synapse "
                           << k << " beyond pass 1's count " << m
                           << " — the emitter must be deterministic");
    SGA_REQUIRE(from < n && to < n && delay <= scan.max_delay &&
                    delay >= kMinDelay && std::isfinite(weight) &&
                    (!scan.weights_fit_f32 || round_trips_f32(weight)),
                "compile_streamed: pass 2 synapse "
                    << k << " (" << from << " -> " << to << ", weight "
                    << weight << ", delay " << delay
                    << ") out of pass 1's observed ranges — the emitter "
                       "must be deterministic");
    const std::size_t slot = cursor[from]++;
    SGA_REQUIRE(slot < offsets[from + 1],
                "compile_streamed: pass 2 emitted more synapses from neuron "
                    << from << " than pass 1's degree "
                    << offsets[from + 1] - offsets[from]
                    << " — the emitter must be deterministic");
    st.targets[slot] = static_cast<TgtT>(to);
    st.weights[slot] = static_cast<WgtT>(weight);
    st.delays[slot] = static_cast<DlyT>(delay);
    ++k;
  };
  emit(sink);
  SGA_REQUIRE(k == m, "compile_streamed: pass 2 emitted "
                          << k << " synapses, pass 1 counted " << m
                          << " — the emitter must be deterministic");

  // Per-row stable delay sort: gather through the permutation into small
  // scratch buffers (row-sized, grown once to the max degree), then copy
  // back. Keeps equal-delay synapses in emission order, matching the
  // builder freeze bit-for-bit.
  std::vector<std::size_t> order;
  std::vector<TgtT> tgt_scratch;
  std::vector<WgtT> wgt_scratch;
  std::vector<DlyT> dly_scratch;
  for (NeuronId i = 0; i < n; ++i) {
    const std::size_t b = offsets[i];
    const std::size_t e = offsets[i + 1];
    const std::size_t deg = e - b;
    const DlyT* dly = st.delays.data() + b;
    // Rows emitted delay-sorted (a shard split's) need no permutation.
    if (deg <= 1 || std::is_sorted(dly, dly + deg)) continue;
    order.resize(deg);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [dly](std::size_t a, std::size_t c) {
                       return dly[a] < dly[c];
                     });
    tgt_scratch.resize(deg);
    wgt_scratch.resize(deg);
    dly_scratch.resize(deg);
    for (std::size_t j = 0; j < deg; ++j) {
      tgt_scratch[j] = st.targets[b + order[j]];
      wgt_scratch[j] = st.weights[b + order[j]];
      dly_scratch[j] = st.delays[b + order[j]];
    }
    std::copy(tgt_scratch.begin(), tgt_scratch.end(), st.targets.begin() + b);
    std::copy(wgt_scratch.begin(), wgt_scratch.end(), st.weights.begin() + b);
    std::copy(dly_scratch.begin(), dly_scratch.end(), st.delays.begin() + b);
  }

  // Delay-segment CSR + the positive in-weight table, off the sorted rows.
  seg_offsets.resize(n + 1);
  seg_offsets[0] = 0;
  for (NeuronId i = 0; i < n; ++i) {
    std::size_t j = offsets[i];
    const std::size_t row_end = offsets[i + 1];
    while (j < row_end) {
      const DlyT d = st.delays[j];
      const std::size_t run_begin = j;
      while (j < row_end && st.delays[j] == d) ++j;
      st.seg_delays.push_back(d);
      st.seg_syn_begin.push_back(static_cast<SegT>(run_begin));
      st.seg_syn_end.push_back(static_cast<SegT>(j));
    }
    seg_offsets[i + 1] = st.seg_delays.size();
  }
  for (std::size_t j = 0; j < m; ++j) {
    const SynWeight w = static_cast<SynWeight>(st.weights[j]);
    if (w > 0) pos_in_weight[st.targets[j]] += w;
  }
}

}  // namespace

CompiledNetwork CompiledNetwork::compile_streamed(
    std::size_t num_neurons,
    const std::function<NeuronParams(NeuronId)>& params,
    const std::function<void(const SynapseSink&)>& emit,
    StoragePolicy policy, StreamBuildStats* build_stats) {
  SGA_REQUIRE(num_neurons <= static_cast<std::size_t>(kNoNeuron),
              "compile_streamed: " << num_neurons
                                   << " neurons exceed the NeuronId range");
  CompiledNetwork net;
  const std::size_t n = num_neurons;
  net.v_reset_.resize(n);
  net.v_threshold_.resize(n);
  net.tau_.resize(n);
  for (NeuronId i = 0; i < n; ++i) {
    const NeuronParams p = params(i);
    SGA_REQUIRE(p.tau >= 0.0 && p.tau <= 1.0,
                "compile_streamed: neuron " << i << " has decay τ = " << p.tau
                                            << " outside [0, 1]");
    SGA_REQUIRE(std::isfinite(p.v_reset) && std::isfinite(p.v_threshold),
                "compile_streamed: neuron "
                    << i << " has non-finite parameters (v_reset = "
                    << p.v_reset << ", v_threshold = " << p.v_threshold
                    << ")");
    net.v_reset_[i] = p.v_reset;
    net.v_threshold_[i] = p.v_threshold;
    net.tau_[i] = p.tau;
  }

  // Pass 1: per-source degree counts + the width-choosing range scan.
  std::vector<std::size_t> degree(n, 0);
  StreamScan scan;
  const SynapseSink counter = [&](NeuronId from, NeuronId to,
                                  SynWeight weight, Delay delay) {
    const std::size_t k = scan.count;
    SGA_REQUIRE(from < n, "compile_streamed: synapse "
                              << k << " emitted from out-of-range neuron "
                              << from);
    SGA_REQUIRE(to < n, "compile_streamed: synapse "
                            << k << " (from neuron " << from
                            << ") targets out-of-range neuron " << to);
    SGA_REQUIRE(delay >= kMinDelay,
                "compile_streamed: synapse "
                    << k << " (from neuron " << from << ") has delay "
                    << delay << " below minimum δ = " << kMinDelay);
    SGA_REQUIRE(std::isfinite(weight),
                "compile_streamed: synapse " << k << " (from neuron " << from
                                             << ") has non-finite weight "
                                             << weight);
    ++degree[from];
    scan.max_delay = std::max(scan.max_delay, delay);
    scan.weights_fit_f32 = scan.weights_fit_f32 && round_trips_f32(weight);
    ++scan.count;
  };
  emit(counter);

  // Exclusive scan into row pointers; the degree array becomes the pass-2
  // fill cursor (counting sort's standard trick — no second O(n) buffer).
  net.offsets_.resize(n + 1);
  net.offsets_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    net.offsets_[i + 1] = net.offsets_[i] + degree[i];
    degree[i] = net.offsets_[i];
  }
  std::vector<std::size_t>& cursor = degree;
  net.max_delay_ = scan.max_delay;
  net.pos_in_weight_.assign(n, 0);

  // Choose widths from pass 1's ranges and fill the narrow payload
  // directly — the point of the two passes: the wide intermediate arrays
  // of the builder freeze never exist.
  net.widths_ = choose_widths(policy, n, scan.count, scan.max_delay,
                              scan.weights_fit_f32);
  net.store_ = make_synapse_store(net.widths_);
  std::size_t transient_bytes = 0;
  std::visit(
      [&](auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          // Packed freeze: scatter into a FLAT transient at the packed
          // store's delay/weight widths (u32 targets — packed blocks decode
          // to full width anyway), then re-encode. The transient is narrow,
          // never wide, so packing at n=10⁶/m=10⁷ scale costs one narrow
          // CSR of headroom instead of the builder's wide copy.
          SynStore<std::uint32_t, typename Store::DelayT,
                   typename Store::WeightT, std::uint32_t>
              flat;
          fill_streamed(flat, net.offsets_, cursor, net.seg_offsets_,
                        net.pos_in_weight_, emit, scan, n);
          transient_bytes = flat.payload_bytes();
          st.pack_targets(flat.targets);
          flat.targets.clear();
          flat.targets.shrink_to_fit();
          flat.delays.clear();
          flat.delays.shrink_to_fit();
          st.weights = std::move(flat.weights);
          st.seg_delays = std::move(flat.seg_delays);
          st.seg_syn_begin = std::move(flat.seg_syn_begin);
          st.seg_syn_begin.push_back(static_cast<std::uint32_t>(scan.count));
        } else {
          fill_streamed(st, net.offsets_, cursor, net.seg_offsets_,
                        net.pos_in_weight_, emit, scan, n);
        }
      },
      net.store_);

  if (build_stats != nullptr) {
    build_stats->num_neurons = n;
    build_stats->num_synapses = scan.count;
    build_stats->csr_bytes = net.csr_storage_bytes();
    // High-water mark: the finished CSR coexists with the O(n) cursor
    // array and the positive in-weight table during pass 2 — plus, for a
    // packed freeze, the flat transient it re-encodes from.
    build_stats->peak_resident_bytes =
        build_stats->csr_bytes + transient_bytes +
        cursor.size() * sizeof(std::size_t) +
        net.pos_in_weight_.size() * sizeof(SynWeight) +
        3 * n * sizeof(Voltage);
  }
  if (obs::MetricsRegistry* mr = obs::thread_metrics()) {
    mr->add("snn.stream_freezes");
    mr->gauge("snn.stream_csr_bytes",
              static_cast<double>(net.csr_storage_bytes()));
    mr->gauge("snn.stream_bytes_per_synapse", net.bytes_per_synapse());
  }
  return net;
}

}  // namespace sga::snn
