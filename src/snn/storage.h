// Width-narrowed synapse storage for the frozen CSR (ARCHITECTURE.md §1.8).
//
// The freeze (Network::compile() and compile_streamed(), one core) scans the
// observed ranges of the construction — neuron count, maximum delay, the
// weight domain — and stores the synapse payload in the narrowest layout
// that represents it exactly:
//   * target ids    u16 when n ≤ 2^16, else u32 (NeuronId's full width),
//   * delays        u16 when max_delay ≤ kNarrowDelayCap (65535); one
//                   width, since a delay is stored once per segment, not
//                   once per synapse,
//   * weights       float32 when EVERY weight round-trips double→float→double
//                   bit-exactly (delivery buckets accumulate in double, so a
//                   round-trip-exact narrowing preserves runs event-for-event
//                   and bit-for-bit), else float64,
//   * delay-segment synapse bounds u32 (requires m < 2^32).
// Anything outside those ranges — and StoragePolicy::kWide — falls back to
// the full-width layout, which is kept unconditionally as the oracle the
// fuzz harness diffs the narrow kernels against.
//
// A store holds four columns: per synapse a target and a weight, per delay
// segment a delay and a synapse begin. Delays exist only per segment (the
// segment CSR of §1.6 is the run-length form of a per-synapse delay
// column), and the begin column ends with an m sentinel, so segment s
// covers [seg_syn_begin[s], seg_syn_begin[s + 1]).
//
// The dispatch is a std::variant over SynStore instantiations: consumers
// off the hot path go through CompiledNetwork's generic accessors (one
// visit per call), while EventCore::run_until visits the variant once per
// call into drain<Store>, the event loop instantiated for that layout — no
// per-event branching in the inner loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/error.h"
#include "core/types.h"

namespace sga::snn {

/// Freeze-time storage selection (Network::compile's knob).
enum class StoragePolicy : std::uint8_t {
  kAuto,  ///< narrow when the observed ranges fit the narrow widths, wide
          ///< otherwise (default)
  kWide,  ///< always the full-width oracle layout (the fuzz oracle, io's
          ///< "storage wide" files, bench_scale's wide lane)
};

/// The widths a freeze actually chose, for io tags / bench records / tests.
/// The struct doubles as the snapshot fingerprint's storage identity
/// (snn/snapshot.h): two freezes of the same network interoperate iff every
/// field matches.
struct StorageWidths {
  bool narrow = false;  ///< false = the wide oracle layout
  std::uint8_t target_bytes = sizeof(NeuronId);
  std::uint8_t delay_bytes = sizeof(Delay);
  std::uint8_t weight_bytes = sizeof(SynWeight);
  std::uint8_t seg_index_bytes = sizeof(std::size_t);

  friend bool operator==(const StorageWidths&, const StorageWidths&) = default;
};

/// Human-readable encoding tag ("wide" / "narrow") for io headers, bench
/// context lines, and error messages.
inline const char* encoding_name(const StorageWidths& w) {
  return w.narrow ? "narrow" : "wide";
}

/// Numeric encoding tag for stats / gauges / bench records (0 = wide,
/// 1 = narrow; 2 was the retired packed encoding) — SimStats::
/// storage_encoding and the svc.artifact_storage_encoding gauge use this.
inline std::uint8_t encoding_code(const StorageWidths& w) {
  return w.narrow ? 1 : 0;
}

/// One width-combination of the synapse payload. The row pointer arrays
/// (offsets / seg_offsets) stay size_t and live outside the variant: they
/// are shared by every combination and indexed by neuron id, which the
/// callers already hold at full width.
template <typename TgtT, typename DlyT, typename WgtT, typename SegT>
struct SynStore {
  using Target = TgtT;
  using DelayT = DlyT;
  using WeightT = WgtT;
  using SegIndex = SegT;

  std::vector<TgtT> targets;
  std::vector<WgtT> weights;

  std::vector<DlyT> seg_delays;  ///< one entry per delay run
  /// Segment s's first synapse; seg_delays.size() + 1 entries, the last
  /// the synapse count m, so segment s ends where s + 1 begins.
  std::vector<SegT> seg_syn_begin = std::vector<SegT>(1, 0);

  // Per-element accessors for generic consumers (CompiledNetwork's visit
  // accessors, verify_invariants). Hot kernels bypass these.
  NeuronId target_at(std::size_t k) const {
    return static_cast<NeuronId>(targets[k]);
  }
  SynWeight weight_at(std::size_t k) const {
    return static_cast<SynWeight>(weights[k]);
  }
  /// The delay of synapse k: its segment's, found by one binary search
  /// (begins are strictly increasing over the whole column, since segments
  /// tile rows and rows tile the column). Off every hot path.
  Delay delay_at(std::size_t k) const {
    const auto it = std::upper_bound(
        seg_syn_begin.begin(), seg_syn_begin.end(), static_cast<SegT>(k));
    return seg_delay_at(static_cast<std::size_t>(it - seg_syn_begin.begin()) -
                        1);
  }
  Delay seg_delay_at(std::size_t s) const {
    return static_cast<Delay>(seg_delays[s]);
  }
  std::size_t seg_syn_begin_at(std::size_t s) const {
    return static_cast<std::size_t>(seg_syn_begin[s]);
  }
  std::size_t seg_syn_end_at(std::size_t s) const {
    return static_cast<std::size_t>(seg_syn_begin[s + 1]);
  }

  /// Resident bytes of the four payload arrays (sizes, not capacities).
  std::size_t payload_bytes() const {
    return targets.size() * sizeof(TgtT) + weights.size() * sizeof(WgtT) +
           seg_delays.size() * sizeof(DlyT) +
           seg_syn_begin.size() * sizeof(SegT);
  }

  static constexpr StorageWidths widths() {
    return StorageWidths{!std::is_same_v<TgtT, NeuronId> ||
                             !std::is_same_v<DlyT, Delay> ||
                             !std::is_same_v<WgtT, SynWeight> ||
                             !std::is_same_v<SegT, std::size_t>,
                         sizeof(TgtT), sizeof(DlyT), sizeof(WgtT),
                         sizeof(SegT)};
  }
};

/// The full-width oracle layout (exactly the pre-§1.8 storage).
using WideSynStore = SynStore<NeuronId, Delay, SynWeight, std::size_t>;

/// Every layout a freeze can choose: wide, plus {u16, u32 targets} ×
/// {f32, f64 weights} with u16 delays. Wide first: a default-constructed
/// variant is the wide empty store, so the empty CompiledNetwork stays a
/// valid placeholder.
using SynStoreVariant =
    std::variant<WideSynStore,
                 SynStore<std::uint16_t, std::uint16_t, float, std::uint32_t>,
                 SynStore<std::uint16_t, std::uint16_t, double, std::uint32_t>,
                 SynStore<std::uint32_t, std::uint16_t, float, std::uint32_t>,
                 SynStore<std::uint32_t, std::uint16_t, double, std::uint32_t>>;

/// The largest delay a narrow store holds (its u16 delay column).
inline constexpr Delay kNarrowDelayCap = 65535;

/// Pick the layout for the observed ranges (kWide always yields the
/// oracle). `weights_fit_f32` must hold iff every weight round-trips
/// double→float→double exactly. Ranges outside the narrow envelope fall
/// back to wide under kAuto too.
inline StorageWidths choose_widths(StoragePolicy policy, std::size_t n,
                                   std::size_t m, Delay max_delay,
                                   bool weights_fit_f32) {
  StorageWidths w;
  if (policy == StoragePolicy::kWide) return w;
  // Narrow eligibility: delays beyond u16 or ≥ 2^32 synapses (the u32
  // segment bounds) keep the whole payload wide rather than growing the
  // variant with rarely-hit mixed-width combinations.
  if (max_delay > kNarrowDelayCap || m >= (1ULL << 32)) return w;
  w.narrow = true;
  w.target_bytes = n <= (1ULL << 16) ? 2 : 4;
  w.delay_bytes = 2;
  w.weight_bytes = weights_fit_f32 ? 4 : 8;
  w.seg_index_bytes = 4;
  return w;
}

/// Instantiate the (empty) variant alternative matching `w`.
inline SynStoreVariant make_synapse_store(const StorageWidths& w) {
  if (!w.narrow) return WideSynStore{};
  const bool t16 = w.target_bytes == 2;
  const bool f32 = w.weight_bytes == 4;
  if (t16 && f32)
    return SynStore<std::uint16_t, std::uint16_t, float, std::uint32_t>{};
  if (t16)
    return SynStore<std::uint16_t, std::uint16_t, double, std::uint32_t>{};
  if (f32)
    return SynStore<std::uint32_t, std::uint16_t, float, std::uint32_t>{};
  return SynStore<std::uint32_t, std::uint16_t, double, std::uint32_t>{};
}

/// Whether narrowing `w` to float32 and back reproduces it bit-exactly.
inline bool round_trips_f32(SynWeight w) {
  return static_cast<SynWeight>(static_cast<float>(w)) == w;
}

}  // namespace sga::snn
