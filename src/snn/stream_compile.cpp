// The freeze (ARCHITECTURE.md §1.3, §1.8): one core turns a synapse source
// into the immutable CompiledNetwork, and two thin sources feed it.
//   * CompiledNetwork(const Network&), and so Network::compile(), emits
//     each builder row in insertion order, then adds the builder's groups;
//   * compile_streamed() wraps a caller's deterministic edge emitter, so a
//     generated family never materializes the nested-vector builder.
// The core (CompiledNetwork::freeze) is a two-pass counting sort:
//   pass 1  count per-source degrees; scan the ranges that choose the
//           storage widths (max delay, whether every weight round-trips
//           through float32); validate each synapse with its ordinal and
//           value in the message;
//   freeze  exclusive-scan the degree counts into the CSR row pointers,
//           choose widths, allocate the payload ONCE at those widths;
//   pass 2  re-run the source and scatter each synapse through a cursor
//           array (the degree counts, reused); cross-check every value
//           against pass 1's ranges so a non-deterministic emitter fails
//           loudly instead of corrupting the CSR;
//   finish  stable-sort each row by delay, cut the delay-segment CSR and
//           tabulate positive in-weights.
// No full-width copy of the payload exists at any point. Pass 2 scatters
// the delays into an m-entry transient at the chosen delay width, which
// the row sort reads and which is freed once the segments are cut, so
// peak resident memory is the final CSR plus that column plus O(n)
// scratch. patch_delays() lives here too: it expands the delays from the
// segments into the same kind of transient, so a patched row is re-sorted
// and re-cut by the same helper.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "snn/compiled_network.h"
#include "snn/network.h"

namespace sga::snn {

namespace {

/// Ranges observed by pass 1, cross-checked in pass 2.
struct FreezeScan {
  std::size_t count = 0;
  Delay max_delay = 0;
  bool weights_fit_f32 = true;
};

/// Rows up to this degree are delay-sorted in place by insertion; longer
/// rows go through a permutation sort (O(d log d), no quadratic hub rows).
constexpr std::size_t kInsertionSortMaxRow = 32;

/// The rows' finish, shared by the freeze and patch_delays(): stably sort
/// the rows `touched` marks (every row when null) by `delays`, the m-entry
/// delay column, permuting targets and weights with it; then cut every
/// row's delay runs into the store's segment CSR, one (delay, begin) pair
/// per run, and end the begin column with the m sentinel. A row left
/// unsorted must already be delay-sorted. Both sorts are stable:
/// equal-delay synapses keep their emission order, which fixes per-bucket
/// delivery order and hence FP summation order.
template <typename Store>
void sort_and_segment(Store& st, std::vector<typename Store::DelayT>& delays,
                      const std::vector<std::size_t>& offsets,
                      std::vector<std::size_t>& seg_offsets,
                      const std::vector<char>* touched) {
  using TgtT = typename Store::Target;
  using WgtT = typename Store::WeightT;
  using DlyT = typename Store::DelayT;
  using SegT = typename Store::SegIndex;
  const std::size_t n = offsets.size() - 1;
  std::vector<std::size_t> order;
  std::vector<TgtT> tgt;
  std::vector<WgtT> wgt;
  std::vector<DlyT> dly;
  st.seg_delays.clear();
  st.seg_syn_begin.clear();
  seg_offsets.assign(n + 1, 0);
  for (NeuronId i = 0; i < n; ++i) {
    const std::size_t b = offsets[i];
    const std::size_t e = offsets[i + 1];
    const DlyT* row = delays.data() + b;
    const bool sort = touched == nullptr || (*touched)[i] != 0;
    if (sort && e - b <= kInsertionSortMaxRow) {
      // A synapse moves only past strictly larger delays.
      for (std::size_t j = b + 1; j < e; ++j) {
        const DlyT d = delays[j];
        if (!(d < delays[j - 1])) continue;
        const TgtT t = st.targets[j];
        const WgtT w = st.weights[j];
        std::size_t h = j;
        for (; h > b && d < delays[h - 1]; --h) {
          st.targets[h] = st.targets[h - 1];
          st.weights[h] = st.weights[h - 1];
          delays[h] = delays[h - 1];
        }
        st.targets[h] = t;
        st.weights[h] = w;
        delays[h] = d;
      }
    } else if (sort && !std::is_sorted(row, row + (e - b))) {
      // Gather through the stable permutation into row-sized scratch
      // (grown once to the largest degree), then copy back.
      order.resize(e - b);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [row](std::size_t x, std::size_t y) {
                         return row[x] < row[y];
                       });
      tgt.resize(e - b);
      wgt.resize(e - b);
      dly.resize(e - b);
      for (std::size_t j = 0; j < e - b; ++j) {
        tgt[j] = st.targets[b + order[j]];
        wgt[j] = st.weights[b + order[j]];
        dly[j] = delays[b + order[j]];
      }
      std::copy(tgt.begin(), tgt.end(), st.targets.begin() + b);
      std::copy(wgt.begin(), wgt.end(), st.weights.begin() + b);
      std::copy(dly.begin(), dly.end(), delays.begin() + b);
    }
    for (std::size_t k = b; k < e;) {
      const DlyT d = delays[k];
      st.seg_delays.push_back(d);
      st.seg_syn_begin.push_back(static_cast<SegT>(k));
      while (k < e && delays[k] == d) ++k;
    }
    seg_offsets[i + 1] = st.seg_delays.size();
  }
  st.seg_syn_begin.push_back(static_cast<SegT>(offsets[n]));
}

/// Pass 2 and the finish into the store. Returns the bytes of the delay
/// transient, which is freed on return.
template <typename Store, typename Source>
std::size_t fill_rows(Store& st, const std::vector<std::size_t>& offsets,
                      std::vector<std::size_t>& cursor,
                      std::vector<std::size_t>& seg_offsets,
                      std::vector<SynWeight>& pos_in_weight,
                      const Source& source, const FreezeScan& scan,
                      const char* who) {
  using TgtT = typename Store::Target;
  using DlyT = typename Store::DelayT;
  using WgtT = typename Store::WeightT;

  const std::size_t n = cursor.size();
  const std::size_t m = offsets[n];
  st.targets.resize(m);
  st.weights.resize(m);
  std::vector<DlyT> delays(m);

  // Pass 2: scatter through the cursor array. Values are re-validated
  // against pass 1's scan so a source that is not deterministic between
  // the two passes cannot overflow the chosen widths or mis-place a row.
  std::size_t k = 0;
  const auto scatter = [&](NeuronId from, NeuronId to, SynWeight weight,
                           Delay delay) {
    SGA_REQUIRE(k < m, who << ": pass 2 emitted synapse " << k
                           << " beyond pass 1's count " << m
                           << " — the emitter must be deterministic");
    SGA_REQUIRE(from < n && to < n && delay <= scan.max_delay &&
                    delay >= kMinDelay && std::isfinite(weight) &&
                    (!scan.weights_fit_f32 || round_trips_f32(weight)),
                who << ": pass 2 synapse " << k << " (" << from << " -> "
                    << to << ", weight " << weight << ", delay " << delay
                    << ") out of pass 1's observed ranges — the emitter "
                       "must be deterministic");
    const std::size_t slot = cursor[from]++;
    SGA_REQUIRE(slot < offsets[from + 1],
                who << ": pass 2 emitted more synapses from neuron " << from
                    << " than pass 1's degree "
                    << offsets[from + 1] - offsets[from]
                    << " — the emitter must be deterministic");
    st.targets[slot] = static_cast<TgtT>(to);
    st.weights[slot] = static_cast<WgtT>(weight);
    delays[slot] = static_cast<DlyT>(delay);
    ++k;
  };
  source(scatter);
  SGA_REQUIRE(k == m, who << ": pass 2 emitted " << k
                          << " synapses, pass 1 counted " << m
                          << " — the emitter must be deterministic");

  // Delay-sorted rows, their segment CSR, then the positive in-weight table
  // in flat synapse order.
  sort_and_segment(st, delays, offsets, seg_offsets, nullptr);
  for (std::size_t j = 0; j < m; ++j) {
    const auto w = static_cast<SynWeight>(st.weights[j]);
    if (w > 0) pos_in_weight[st.targets[j]] += w;
  }
  return m * sizeof(DlyT);
}

}  // namespace

template <typename Params, typename Source>
std::size_t CompiledNetwork::freeze(const char* who, std::size_t n,
                                    const Params& params,
                                    const Source& source,
                                    StoragePolicy policy) {
  SGA_REQUIRE(n <= static_cast<std::size_t>(kNoNeuron),
              who << ": " << n << " neurons exceed the NeuronId range");
  v_reset_.resize(n);
  v_threshold_.resize(n);
  tau_.resize(n);
  for (NeuronId i = 0; i < n; ++i) {
    const NeuronParams p = params(i);
    SGA_REQUIRE(p.tau >= 0.0 && p.tau <= 1.0,
                who << ": neuron " << i << " has decay τ = " << p.tau
                    << " outside [0, 1]");
    SGA_REQUIRE(std::isfinite(p.v_reset) && std::isfinite(p.v_threshold),
                who << ": neuron " << i
                    << " has non-finite parameters (v_reset = " << p.v_reset
                    << ", v_threshold = " << p.v_threshold << ")");
    v_reset_[i] = p.v_reset;
    v_threshold_[i] = p.v_threshold;
    tau_[i] = p.tau;
  }

  // Pass 1: per-source degree counts + the width-choosing range scan.
  std::vector<std::size_t> degree(n, 0);
  FreezeScan scan;
  const auto count = [&](NeuronId from, NeuronId to, SynWeight weight,
                         Delay delay) {
    const std::size_t k = scan.count;
    SGA_REQUIRE(from < n, who << ": synapse " << k
                              << " emitted from out-of-range neuron "
                              << from);
    SGA_REQUIRE(to < n, who << ": synapse " << k << " (from neuron " << from
                            << ") targets out-of-range neuron " << to);
    SGA_REQUIRE(delay >= kMinDelay,
                who << ": synapse " << k << " (from neuron " << from
                    << ") has delay " << delay << " below minimum δ = "
                    << kMinDelay);
    SGA_REQUIRE(std::isfinite(weight),
                who << ": synapse " << k << " (from neuron " << from
                    << ") has non-finite weight " << weight);
    ++degree[from];
    scan.max_delay = std::max(scan.max_delay, delay);
    scan.weights_fit_f32 = scan.weights_fit_f32 && round_trips_f32(weight);
    ++scan.count;
  };
  source(count);

  // Exclusive scan into row pointers; the degree array becomes the pass-2
  // fill cursor (counting sort's standard trick — no second O(n) buffer).
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets_[i + 1] = offsets_[i] + degree[i];
    degree[i] = offsets_[i];
  }
  max_delay_ = scan.max_delay;
  pos_in_weight_.assign(n, 0);

  // Choose widths from pass 1's ranges and fill the payload at those
  // widths directly.
  widths_ = choose_widths(policy, n, scan.count, scan.max_delay,
                          scan.weights_fit_f32);
  store_ = make_synapse_store(widths_);
  return std::visit(
      [&](auto& st) {
        return fill_rows(st, offsets_, degree, seg_offsets_, pos_in_weight_,
                         source, scan, who);
      },
      store_);
}

CompiledNetwork::CompiledNetwork(const Network& net, StoragePolicy policy) {
  const std::size_t n = net.num_neurons();
  freeze(
      "compile", n, [&net](NeuronId i) { return net.params(i); },
      [&net, n](const auto& sink) {
        for (NeuronId i = 0; i < n; ++i) {
          for (const Synapse& s : net.out_synapses(i)) {
            sink(i, s.target, s.weight, s.delay);
          }
        }
      },
      policy);

  // The builder maintains these incrementally; the frozen arrays are the
  // ground truth. A mismatch means builder state was corrupted.
  SGA_CHECK(num_synapses() == net.num_synapses(),
            "compile: packed " << num_synapses()
                               << " synapses but the builder counted "
                               << net.num_synapses());
  SGA_CHECK(max_delay_ == net.max_delay(),
            "compile: packed max delay " << max_delay_
                                         << " != builder max delay "
                                         << net.max_delay());

  for (const std::string& name : net.group_names()) {
    const std::vector<NeuronId>& ids = net.group(name);
    for (const NeuronId id : ids) {
      SGA_REQUIRE(id < n, "compile: group '" << name
                                             << "' contains out-of-range "
                                                "neuron id "
                                             << id);
    }
    groups_.emplace(name, ids);
  }
}

CompiledNetwork CompiledNetwork::compile_streamed(
    std::size_t num_neurons,
    const std::function<NeuronParams(NeuronId)>& params,
    const std::function<void(const SynapseSink&)>& emit,
    StoragePolicy policy, StreamBuildStats* build_stats) {
  CompiledNetwork net;
  const std::size_t transient_bytes = net.freeze(
      "compile_streamed", num_neurons, params,
      [&emit](const auto& sink) { emit(SynapseSink(std::cref(sink))); },
      policy);

  if (build_stats != nullptr) {
    const std::size_t n = num_neurons;
    build_stats->num_neurons = n;
    build_stats->num_synapses = net.num_synapses();
    build_stats->csr_bytes = net.csr_storage_bytes();
    // High-water mark: the finished CSR coexists with the delay transient,
    // the O(n) cursor array and the positive in-weight table at the end of
    // the row sort.
    build_stats->peak_resident_bytes =
        build_stats->csr_bytes + transient_bytes + n * sizeof(std::size_t) +
        n * sizeof(SynWeight) + 3 * n * sizeof(Voltage);
  }
  if (obs::MetricsRegistry* mr = obs::thread_metrics()) {
    mr->add("snn.stream_freezes");
    mr->gauge("snn.stream_csr_bytes",
              static_cast<double>(net.csr_storage_bytes()));
    mr->gauge("snn.stream_bytes_per_synapse", net.bytes_per_synapse());
  }
  return net;
}

void CompiledNetwork::patch_delays(
    const std::vector<std::pair<std::size_t, Delay>>& edits) {
  const std::size_t m = num_synapses();
  const std::size_t n = num_neurons();
  const Delay cap = !widths_.narrow
                        ? std::numeric_limits<Delay>::max()
                        : (widths_.delay_bytes == 1 ? 255 : 65535);
  for (const auto& [k, d] : edits) {
    SGA_REQUIRE(k < m, "patch_delays: synapse index "
                           << k << " out of range (" << m << " synapses)");
    SGA_REQUIRE(d >= kMinDelay, "patch_delays: synapse "
                                    << k << " assigned delay " << d
                                    << " below minimum δ = " << kMinDelay);
    SGA_REQUIRE(d <= cap, "patch_delays: delay "
                              << d << " for synapse " << k
                              << " exceeds the frozen "
                              << int{widths_.delay_bytes}
                              << "-byte delay storage cap " << cap
                              << "; re-freeze the network to widen");
  }

  // Rows whose delay order (and hence segments) the edits may disturb.
  std::vector<char> touched(n, 0);
  for (const auto& [k, d] : edits) {
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), k);
    touched[static_cast<std::size_t>(it - offsets_.begin() - 1)] = 1;
  }

  ++generation_;
  std::visit(
      [&](auto& st) {
        using DlyT = typename std::decay_t<decltype(st)>::DelayT;
        // Expand the delays from the segments into a transient column, apply
        // the edits, and re-sort touched rows exactly as a fresh freeze of
        // the patched graph would sort them; re-cutting an untouched row
        // reproduces its segments verbatim.
        std::vector<DlyT> delays(m);
        for (std::size_t s = 0; s < st.seg_delays.size(); ++s) {
          std::fill(delays.begin() + st.seg_syn_begin_at(s),
                    delays.begin() + st.seg_syn_end_at(s), st.seg_delays[s]);
        }
        for (const auto& [k, d] : edits) delays[k] = static_cast<DlyT>(d);
        sort_and_segment(st, delays, offsets_, seg_offsets_, &touched);
      },
      store_);

  // max_delay may have grown or shrunk; each row's last segment is its
  // maximum (segment delays are strictly increasing within a row).
  Delay max_delay = 0;
  for (NeuronId i = 0; i < n; ++i) {
    if (seg_offsets_[i + 1] > seg_offsets_[i]) {
      max_delay = std::max(max_delay, seg_delay(seg_offsets_[i + 1] - 1));
    }
  }
  max_delay_ = max_delay;

  // The row permutation can reorder same-target additions within a row, so
  // the in-weight table is retabulated in the new synapse order.
  recompute_pos_in_weight();
  verify_invariants();
}

}  // namespace sga::snn
