// Width-narrowed and delta-packed synapse storage for the frozen CSR
// (ARCHITECTURE.md §1.8, §1.11).
//
// The freeze (Network::compile() and compile_streamed(), one core) scans the
// observed ranges of the construction — neuron count, maximum delay, the
// weight domain — and stores the synapse payload in the narrowest layout
// that represents it exactly:
//   * target ids    u16 when n ≤ 2^16, else u32 (NeuronId's full width),
//   * delays        u8 when max_delay ≤ 255, u16 when ≤ 65535,
//   * weights       float32 when EVERY weight round-trips double→float→double
//                   bit-exactly (delivery buckets accumulate in double, so a
//                   round-trip-exact narrowing preserves runs event-for-event
//                   and bit-for-bit), else float64,
//   * delay-segment synapse bounds u32 (requires m < 2^32).
// Anything outside those ranges — and StoragePolicy::kWide — falls back to
// the full-width layout, which is kept unconditionally as the oracle the
// fuzz harness diffs the narrow kernels against.
//
// On top of the narrow widths sits a third encoding, PACKED (§1.11): the
// delay-sorted target column is re-encoded as base + bit-packed zigzag
// deltas in fixed 64-entry blocks (one u32 base + u8 bit-width + u32 word
// offset per block), the per-synapse delay column is dropped entirely (the
// delay-segment CSR of §1.6 is already a run-length encoding of it), and
// the segment end column is dropped too (segments tile each row, so a
// sentinel-terminated begin column carries both bounds). Weights stay a
// flat narrow column — they are the values the hot loop actually sums, so
// they are never entropy-coded. Packed is an explicit memory opt-in
// (kPacked): kAuto never picks it, because only flat stores can be
// delivered by segment reference (EventCore::Bucket) and packed costs run
// time at every size measured (EXPERIMENTS.md). kNarrow and kWide keep the
// flat layouts available as oracles.
//
// The dispatch is a std::variant over SynStore/PackedSynStore
// instantiations: consumers off the hot path go through CompiledNetwork's
// generic accessors (one visit per call), while EventCore::run_until
// visits the variant once per call into drain<Store>, the event loop
// instantiated for that layout — no per-event branching in the inner loop.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/error.h"
#include "core/types.h"

namespace sga::snn {

/// Freeze-time storage selection (Network::compile's knob).
enum class StoragePolicy : std::uint8_t {
  kAuto,    ///< narrow when the observed ranges fit the narrow widths,
            ///< wide otherwise; never packed (default)
  kWide,    ///< always the full-width oracle layout (fuzz oracle; transient
            ///< single-use freezes like max-flow's per-phase residuals)
  kNarrow,  ///< flat narrow columns, never packed (the packed ablation's
            ///< baseline; the same layouts kAuto picks)
  kPacked,  ///< delta-packed targets + RLE delays whenever the ranges are
            ///< narrow-eligible (falls back to wide when they are not): the
            ///< memory opt-in, delivered by copy rather than by reference
};

/// The widths a freeze actually chose, for io tags / bench records / tests.
/// `packed` refines `narrow`: a packed freeze is narrow-eligible by
/// construction, so packed ⇒ narrow. The struct doubles as the snapshot
/// fingerprint's storage identity (snn/snapshot.h): two freezes of the same
/// network interoperate iff every field — including the encoding — matches.
struct StorageWidths {
  bool narrow = false;  ///< false = the wide oracle layout
  bool packed = false;  ///< delta-packed targets + RLE delays (§1.11)
  std::uint8_t target_bytes = sizeof(NeuronId);
  std::uint8_t delay_bytes = sizeof(Delay);
  std::uint8_t weight_bytes = sizeof(SynWeight);
  std::uint8_t seg_index_bytes = sizeof(std::size_t);

  friend bool operator==(const StorageWidths&, const StorageWidths&) = default;
};

/// Human-readable encoding tag ("wide" / "narrow" / "packed") for io
/// headers, bench context lines, and error messages.
inline const char* encoding_name(const StorageWidths& w) {
  return w.packed ? "packed" : w.narrow ? "narrow" : "wide";
}

/// Numeric encoding tag for stats / gauges / bench records (0 = wide,
/// 1 = narrow, 2 = packed) — SimStats::storage_encoding and the
/// svc.artifact_storage_encoding gauge use this.
inline std::uint8_t encoding_code(const StorageWidths& w) {
  return w.packed ? 2 : w.narrow ? 1 : 0;
}

/// One width-combination of the flat synapse payload. The row pointer
/// arrays (offsets / seg_offsets) stay size_t and live outside the variant:
/// they are shared by every combination and indexed by neuron id, which the
/// callers already hold at full width.
template <typename TgtT, typename DlyT, typename WgtT, typename SegT>
struct SynStore {
  using Target = TgtT;
  using DelayT = DlyT;
  using WeightT = WgtT;
  using SegIndex = SegT;

  /// Flat-column layout: the packed kernels and accessors are compiled out.
  static constexpr bool kPackedLayout = false;

  std::vector<TgtT> targets;
  std::vector<WgtT> weights;
  std::vector<DlyT> delays;

  std::vector<DlyT> seg_delays;  ///< one entry per delay run
  std::vector<SegT> seg_syn_begin;
  std::vector<SegT> seg_syn_end;

  // Uniform per-element accessors shared with PackedSynStore, so generic
  // consumers (CompiledNetwork's visit accessors, verify_invariants,
  // shard_split) are encoding-agnostic. Hot kernels bypass these.
  NeuronId target_at(std::size_t k) const {
    return static_cast<NeuronId>(targets[k]);
  }
  SynWeight weight_at(std::size_t k) const {
    return static_cast<SynWeight>(weights[k]);
  }
  Delay delay_at(std::size_t k) const { return static_cast<Delay>(delays[k]); }
  Delay seg_delay_at(std::size_t s) const {
    return static_cast<Delay>(seg_delays[s]);
  }
  std::size_t seg_syn_begin_at(std::size_t s) const {
    return static_cast<std::size_t>(seg_syn_begin[s]);
  }
  std::size_t seg_syn_end_at(std::size_t s) const {
    return static_cast<std::size_t>(seg_syn_end[s]);
  }

  /// Resident bytes of the six payload arrays (sizes, not capacities).
  std::size_t payload_bytes() const {
    return targets.size() * sizeof(TgtT) + weights.size() * sizeof(WgtT) +
           delays.size() * sizeof(DlyT) + seg_delays.size() * sizeof(DlyT) +
           (seg_syn_begin.size() + seg_syn_end.size()) * sizeof(SegT);
  }

  static constexpr StorageWidths widths() {
    return StorageWidths{!std::is_same_v<TgtT, NeuronId> ||
                             !std::is_same_v<DlyT, Delay> ||
                             !std::is_same_v<WgtT, SynWeight> ||
                             !std::is_same_v<SegT, std::size_t>,
                         false, sizeof(TgtT), sizeof(DlyT), sizeof(WgtT),
                         sizeof(SegT)};
  }
};

/// The full-width oracle layout (exactly the pre-§1.8 storage).
using WideSynStore = SynStore<NeuronId, Delay, SynWeight, std::size_t>;

// ---- Packed encoding primitives (ARCHITECTURE.md §1.11) ------------------

/// Targets per packed block. Fixed so k → block is a shift; a block's 63
/// deltas are at most two 32-delta groups of the span decoder.
inline constexpr std::size_t kPackedBlockSize = 64;

/// Zigzag of the WRAPPING u32 difference cur − prev. The wrap keeps every
/// delta representable in 32 bits (a plain signed difference of two u32s
/// needs 33), and the decoder's wrapping add inverts it exactly mod 2^32.
inline std::uint32_t packed_zigzag_delta(std::uint32_t prev,
                                         std::uint32_t cur) {
  const auto d = static_cast<std::int32_t>(cur - prev);
  return (static_cast<std::uint32_t>(d) << 1) ^
         static_cast<std::uint32_t>(d >> 31);
}

/// Words the deltas of one `count`-target block occupy at `bits` per delta
/// (the first target is the block base and stores no delta).
inline std::size_t packed_block_words(std::size_t count, unsigned bits) {
  return count <= 1 ? 0 : ((count - 1) * bits + 31) / 32;
}

/// Inverse of packed_zigzag_delta's zigzag step; the caller's wrapping add
/// then inverts the wrapping difference mod 2^32.
inline std::uint32_t packed_unzigzag(std::uint32_t z) {
  return (z >> 1) ^ (0u - (z & 1u));
}

namespace packed_detail {

/// Zigzag field R of a 32-delta group packed at B bits. A group of 32
/// deltas occupies exactly B words, so with B and R compile-time constants
/// the word index, the shift and the straddle test are constants too. A
/// field reads its second word only when its own bits reach into it.
template <unsigned B, std::size_t R>
inline std::uint32_t group_field(const std::uint32_t* w) {
  constexpr std::size_t kBit = R * B;
  constexpr unsigned kOff = kBit % 32;
  constexpr std::uint32_t kMask = B == 32 ? ~0u : (1u << B) - 1;
  std::uint32_t z = w[kBit / 32] >> kOff;
  if constexpr (kOff + B > 32) z |= w[kBit / 32 + 1] << (32 - kOff);
  return z & kMask;
}

/// Apply the deltas in fields [r_lo, r_hi) (r_lo < r_hi ≤ 32) of one
/// group to `prev`, storing the entry that field R completes at
/// out[first + R].
template <unsigned B, std::size_t... R>
inline std::uint32_t decode_group(const std::uint32_t* w, std::uint32_t prev,
                                  std::size_t r_lo, std::size_t r_hi,
                                  std::ptrdiff_t first, std::uint32_t* out,
                                  std::index_sequence<R...>) {
  (void)((R < r_lo ||
          (R < r_hi &&
           (prev += packed_unzigzag(group_field<B, R>(w)),
            out[first + static_cast<std::ptrdiff_t>(R)] = prev, true))) &&
         ...);
  return prev;
}

/// Entries [lo, hi) of one B-bit block (lo < hi ≤ its count) into
/// out[0 .. hi − lo), given entry lo's value `v`: the block base when
/// lo = 0, else a row's anchor. Entry t > 0 adds the
/// delta in slot t − 1, so only slots [lo, hi − 1) are read — neither the
/// block's prefix nor its tail. A span that starts mid-group enters the
/// unrolled group at field lo mod 32.
template <unsigned B>
void decode_span(const std::uint32_t* w, std::uint32_t v, std::size_t lo,
                 std::size_t hi, std::uint32_t* out) {
  if constexpr (B == 0) {
    std::fill(out, out + (hi - lo), v);
  } else {
    out[0] = v;
    const std::size_t end = hi - 1;  // one past the last slot read
    std::size_t s = lo / 32 * 32;    // first slot of the current group
    std::size_t r_lo = lo - s;
    for (w += lo / 32 * B; s + r_lo < end; s += 32, w += B, r_lo = 0) {
      v = decode_group<B>(
          w, v, r_lo, std::min<std::size_t>(32, end - s),
          static_cast<std::ptrdiff_t>(s + 1) - static_cast<std::ptrdiff_t>(lo),
          out, std::make_index_sequence<32>{});
    }
  }
}

using SpanDecoder = void (*)(const std::uint32_t*, std::uint32_t, std::size_t,
                             std::size_t, std::uint32_t*);

template <std::size_t... B>
constexpr std::array<SpanDecoder, sizeof...(B)> make_span_decoders(
    std::index_sequence<B...>) {
  return {&decode_span<static_cast<unsigned>(B)>...};
}

/// One span decoder per bit width 0..32, indexed by a block's width.
inline constexpr std::array<SpanDecoder, 33> kSpanDecoders =
    make_span_decoders(std::make_index_sequence<33>{});

}  // namespace packed_detail

/// The delta-packed target column + RLE delay layout (§1.11). Weights stay
/// a flat narrow column; per-synapse delays exist only as the delay-run
/// segments (begin column sentinel-terminated with m, so
/// seg_syn_end(s) == seg_syn_begin[s + 1] — segments tile each row, which
/// verify_invariants() re-checks on every untrusted load).
template <typename DlyT, typename WgtT>
struct PackedSynStore {
  using Target = NeuronId;  ///< decode width (bases are full NeuronId range)
  using DelayT = DlyT;
  using WeightT = WgtT;
  using SegIndex = std::uint32_t;

  static constexpr bool kPackedLayout = true;

  std::vector<WgtT> weights;  ///< flat, one entry per synapse

  // Target column, base + bit-packed zigzag deltas in kPackedBlockSize
  // blocks. block_word is the word *offset* of each block's deltas in
  // pack_words (blocks are word-aligned, so decode never straddles blocks).
  std::size_t num_targets = 0;
  std::vector<std::uint32_t> block_base;
  std::vector<std::uint8_t> block_bits;  ///< 0..32 bits per zigzag delta
  std::vector<std::uint32_t> block_word;
  std::vector<std::uint32_t> pack_words;

  // Delay runs (the RLE delay column): one delay per run plus the
  // sentinel-terminated begin column (seg_delays.size() + 1 entries, last
  // entry == num_targets).
  std::vector<DlyT> seg_delays;
  std::vector<std::uint32_t> seg_syn_begin;

  std::size_t num_blocks() const { return block_base.size(); }
  std::size_t num_segments() const { return seg_delays.size(); }

  /// Decode flat targets [b, e) into out[0 .. e − b), given entry b's
  /// value `first` — a row's anchor (EventCore) or its block's base. Each
  /// block the range touches is decoded from b (or, past b's block, from
  /// the block's base) only up to min(e, block end) by the
  /// width-specialized span decoder its bit width selects
  /// (packed_detail::decode_span), writing straight into `out`. Callers
  /// guarantee b < e ≤ num_targets and a structurally valid table
  /// (verify_invariants' packed pre-checks); the decoder then never reads
  /// past pack_words.size(), which the sanitizer lane checks under ASan.
  void decode_from(std::size_t b, std::uint32_t first, std::size_t e,
                   std::uint32_t* out) const;

  /// decode_from for callers that hold no value inside the column. A
  /// mid-block b decodes its block from the base into a stack buffer, up
  /// to min(e, block end), and copies out the entries from b on. Empty
  /// ranges (b == e) decode nothing.
  void decode_range(std::size_t b, std::size_t e, std::uint32_t* out) const {
    if (b == e) return;
    const std::size_t j = b / kPackedBlockSize;
    const std::size_t start = j * kPackedBlockSize;
    if (b == start) {
      decode_from(b, block_base[j], e, out);
      return;
    }
    const std::size_t hi = std::min(e - start, kPackedBlockSize);
    std::uint32_t block[kPackedBlockSize];
    packed_detail::kSpanDecoders[block_bits[j]](
        pack_words.data() + block_word[j], block_base[j], 0, hi, block);
    out = std::copy(block + (b - start), block + hi, out);
    if (start + hi < e) decode_from(start + hi, block_base[j + 1], e, out);
  }

  /// Build the block tables from a flat (already delay-sorted) target
  /// column. The only encoder: the freeze core behind compile() and
  /// compile_streamed() calls it; the io reader takes encoded blocks as
  /// read (CompiledNetwork::from_packed_parts).
  template <typename SrcT>
  void pack_targets(const std::vector<SrcT>& flat) {
    num_targets = flat.size();
    const std::size_t nb =
        (num_targets + kPackedBlockSize - 1) / kPackedBlockSize;
    block_base.resize(nb);
    block_bits.resize(nb);
    block_word.resize(nb);
    pack_words.clear();
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t begin = j * kPackedBlockSize;
      const std::size_t count =
          std::min(kPackedBlockSize, num_targets - begin);
      const auto base = static_cast<std::uint32_t>(flat[begin]);
      std::uint32_t prev = base;
      std::uint32_t max_z = 0;
      for (std::size_t i = 1; i < count; ++i) {
        const auto cur = static_cast<std::uint32_t>(flat[begin + i]);
        max_z |= packed_zigzag_delta(prev, cur);
        prev = cur;
      }
      const unsigned bits = max_z == 0 ? 0u : std::bit_width(max_z);
      block_base[j] = base;
      block_bits[j] = static_cast<std::uint8_t>(bits);
      block_word[j] = static_cast<std::uint32_t>(pack_words.size());
      if (bits == 0) continue;
      pack_words.resize(pack_words.size() + packed_block_words(count, bits),
                        0);
      std::uint32_t* words = pack_words.data() + block_word[j];
      prev = base;
      std::size_t bitpos = 0;
      for (std::size_t i = 1; i < count; ++i) {
        const auto cur = static_cast<std::uint32_t>(flat[begin + i]);
        const std::uint64_t v =
            std::uint64_t{packed_zigzag_delta(prev, cur)} << (bitpos & 31);
        words[bitpos >> 5] |= static_cast<std::uint32_t>(v);
        if ((v >> 32) != 0) {
          words[(bitpos >> 5) + 1] |= static_cast<std::uint32_t>(v >> 32);
        }
        bitpos += bits;
        prev = cur;
      }
    }
  }

  // Uniform accessors (see SynStore). target_at/delay_at are O(block) /
  // O(log segments) — oracle and construction-side pricing; the simulator's
  // packed kernels and CompiledNetwork::for_each_out_synapse decode whole
  // rows instead.
  NeuronId target_at(std::size_t k) const {
    std::uint32_t t;
    decode_range(k, k + 1, &t);
    return static_cast<NeuronId>(t);
  }
  SynWeight weight_at(std::size_t k) const {
    return static_cast<SynWeight>(weights[k]);
  }
  Delay delay_at(std::size_t k) const {
    // The run containing k: begins are globally strictly increasing (runs
    // tile rows, rows tile the column), so one binary search resolves it.
    const auto it = std::upper_bound(seg_syn_begin.begin(),
                                     seg_syn_begin.end(),
                                     static_cast<std::uint32_t>(k));
    return static_cast<Delay>(
        seg_delays[static_cast<std::size_t>(it - seg_syn_begin.begin()) - 1]);
  }
  Delay seg_delay_at(std::size_t s) const {
    return static_cast<Delay>(seg_delays[s]);
  }
  std::size_t seg_syn_begin_at(std::size_t s) const {
    return seg_syn_begin[s];
  }
  std::size_t seg_syn_end_at(std::size_t s) const {
    return seg_syn_begin[s + 1];
  }

  /// Resident bytes of the packed payload (sizes, not capacities).
  std::size_t payload_bytes() const {
    return weights.size() * sizeof(WgtT) +
           block_base.size() * sizeof(std::uint32_t) + block_bits.size() +
           block_word.size() * sizeof(std::uint32_t) +
           pack_words.size() * sizeof(std::uint32_t) +
           seg_delays.size() * sizeof(DlyT) +
           seg_syn_begin.size() * sizeof(std::uint32_t);
  }

  static constexpr StorageWidths widths() {
    return StorageWidths{true, true, sizeof(std::uint32_t), sizeof(DlyT),
                         sizeof(WgtT), sizeof(std::uint32_t)};
  }
};

template <typename DlyT, typename WgtT>
void PackedSynStore<DlyT, WgtT>::decode_from(std::size_t b,
                                             std::uint32_t first,
                                             std::size_t e,
                                             std::uint32_t* out) const {
  while (true) {
    const std::size_t j = b / kPackedBlockSize;
    const std::size_t start = j * kPackedBlockSize;
    const std::size_t hi = std::min(e - start, kPackedBlockSize);
    packed_detail::kSpanDecoders[block_bits[j]](
        pack_words.data() + block_word[j], first, b - start, hi, out);
    out += start + hi - b;
    b = start + hi;
    if (b == e) return;
    first = block_base[j + 1];
  }
}

/// Every layout a freeze can choose. Wide first: a default-constructed
/// variant is the wide empty store, so the empty CompiledNetwork stays a
/// valid placeholder. The packed alternatives close the list (targets
/// always decode to full NeuronId width, so only delay × weight vary).
using SynStoreVariant =
    std::variant<WideSynStore,
                 SynStore<std::uint16_t, std::uint8_t, float, std::uint32_t>,
                 SynStore<std::uint16_t, std::uint8_t, double, std::uint32_t>,
                 SynStore<std::uint16_t, std::uint16_t, float, std::uint32_t>,
                 SynStore<std::uint16_t, std::uint16_t, double, std::uint32_t>,
                 SynStore<std::uint32_t, std::uint8_t, float, std::uint32_t>,
                 SynStore<std::uint32_t, std::uint8_t, double, std::uint32_t>,
                 SynStore<std::uint32_t, std::uint16_t, float, std::uint32_t>,
                 SynStore<std::uint32_t, std::uint16_t, double, std::uint32_t>,
                 PackedSynStore<std::uint8_t, float>,
                 PackedSynStore<std::uint8_t, double>,
                 PackedSynStore<std::uint16_t, float>,
                 PackedSynStore<std::uint16_t, double>>;

/// Pick the layout for the observed ranges (kWide always yields the
/// oracle). `weights_fit_f32` must hold iff every weight round-trips
/// double→float→double exactly. kAuto and kNarrow narrow when the ranges
/// fit; only kPacked packs, at any size. Ranges outside the narrow envelope
/// fall back to wide under every policy but kWide itself.
inline StorageWidths choose_widths(StoragePolicy policy, std::size_t n,
                                   std::size_t m, Delay max_delay,
                                   bool weights_fit_f32) {
  StorageWidths w;
  if (policy == StoragePolicy::kWide) return w;
  // Narrow eligibility: delays beyond u16 or ≥ 2^32 synapses (the u32
  // segment bounds) keep the whole payload wide rather than growing the
  // variant with rarely-hit mixed-width combinations.
  if (max_delay > 65535 || m >= (1ULL << 32)) return w;
  w.narrow = true;
  w.delay_bytes = max_delay <= 255 ? 1 : 2;
  w.weight_bytes = weights_fit_f32 ? 4 : 8;
  w.seg_index_bytes = 4;
  w.packed = policy == StoragePolicy::kPacked;
  // Packed blocks always decode to full-width ids; the flat layouts narrow
  // the target column to u16 when the id range allows.
  w.target_bytes = !w.packed && n <= (1ULL << 16) ? 2 : 4;
  return w;
}

/// Instantiate the (empty) variant alternative matching `w`.
inline SynStoreVariant make_synapse_store(const StorageWidths& w) {
  if (!w.narrow) return WideSynStore{};
  const bool d8 = w.delay_bytes == 1;
  const bool f32 = w.weight_bytes == 4;
  if (w.packed) {
    if (d8 && f32) return PackedSynStore<std::uint8_t, float>{};
    if (d8) return PackedSynStore<std::uint8_t, double>{};
    if (f32) return PackedSynStore<std::uint16_t, float>{};
    return PackedSynStore<std::uint16_t, double>{};
  }
  const bool t16 = w.target_bytes == 2;
  if (t16 && d8 && f32)
    return SynStore<std::uint16_t, std::uint8_t, float, std::uint32_t>{};
  if (t16 && d8)
    return SynStore<std::uint16_t, std::uint8_t, double, std::uint32_t>{};
  if (t16 && f32)
    return SynStore<std::uint16_t, std::uint16_t, float, std::uint32_t>{};
  if (t16)
    return SynStore<std::uint16_t, std::uint16_t, double, std::uint32_t>{};
  if (d8 && f32)
    return SynStore<std::uint32_t, std::uint8_t, float, std::uint32_t>{};
  if (d8)
    return SynStore<std::uint32_t, std::uint8_t, double, std::uint32_t>{};
  if (f32)
    return SynStore<std::uint32_t, std::uint16_t, float, std::uint32_t>{};
  return SynStore<std::uint32_t, std::uint16_t, double, std::uint32_t>{};
}

/// Whether narrowing `w` to float32 and back reproduces it bit-exactly.
inline bool round_trips_f32(SynWeight w) {
  return static_cast<SynWeight>(static_cast<float>(w)) == w;
}

}  // namespace sga::snn
