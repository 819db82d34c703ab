#include "snn/io.h"

#include <cmath>
#include <initializer_list>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "core/error.h"

namespace sga::snn {

CountLimitError::CountLimitError(const std::string& field, long long value,
                                 long long limit)
    : InvalidArgument("read_network: " + field + " " + std::to_string(value) +
                      " exceeds the count ceiling " + std::to_string(limit) +
                      " implied by the declared storage width"),
      field_(field),
      value_(value),
      limit_(limit) {}

namespace {

const char* target_tag(const StorageWidths& w) {
  return w.target_bytes == 2 ? "u16" : "u32";
}
const char* delay_tag(const StorageWidths& w) {
  return w.delay_bytes == 1 ? "u8" : w.delay_bytes == 2 ? "u16" : "i64";
}
const char* weight_tag(const StorageWidths& w) {
  return w.weight_bytes == 4 ? "f32" : "f64";
}

void write_neurons(std::ostream& os, const CompiledNetwork& net) {
  os << "neurons " << net.num_neurons() << '\n';
  for (NeuronId i = 0; i < net.num_neurons(); ++i) {
    os << "n " << net.v_reset(i) << ' ' << net.v_threshold(i) << ' '
       << net.tau(i) << '\n';
  }
}

void write_groups(std::ostream& os, const CompiledNetwork& net) {
  const auto names = net.group_names();
  os << "groups " << names.size() << '\n';
  for (const auto& name : names) {
    const auto& ids = net.group(name);
    os << "g " << name << ' ' << ids.size();
    for (const NeuronId id : ids) os << ' ' << id;
    os << '\n';
  }
}

/// Version-3 body for a packed artifact: the encoded columns are written
/// AS ENCODED (block table + pack words), never expanded to per-synapse
/// (from, to, weight, delay) lines — a 10^7-synapse packed network round
/// trips without a wide intermediate on either side.
void write_packed_network(std::ostream& os, const CompiledNetwork& net) {
  const StorageWidths& w = net.storage_widths();
  os << "snn 3\n";
  os << "storage packed target " << target_tag(w) << " delay " << delay_tag(w)
     << " weight " << weight_tag(w) << '\n';
  write_neurons(os, net);
  const std::size_t n = net.num_neurons();
  const std::size_t m = net.num_synapses();
  const std::size_t segs = net.num_delay_segments();
  os << "synapses " << m << '\n';
  os << "segments " << segs << '\n';
  os << "rows\n";
  for (NeuronId i = 0; i < n; ++i) {
    os << "r " << net.out_degree(i) << ' '
       << (net.seg_end(i) - net.seg_begin(i)) << '\n';
  }
  for (std::size_t s = 0; s < segs; ++s) {
    os << "t " << net.seg_delay(s) << ' ' << net.seg_syn_begin(s) << '\n';
  }
  std::visit(
      [&os](const auto& st) {
        using Store = std::decay_t<decltype(st)>;
        if constexpr (Store::kPackedLayout) {
          os << "blocks " << st.block_base.size() << '\n';
          for (std::size_t j = 0; j < st.block_base.size(); ++j) {
            os << "b " << st.block_base[j] << ' '
               << static_cast<unsigned>(st.block_bits[j]) << '\n';
          }
          os << "words " << st.pack_words.size() << '\n';
          for (std::size_t i = 0; i < st.pack_words.size(); ++i) {
            os << st.pack_words[i]
               << (i % 8 == 7 || i + 1 == st.pack_words.size() ? '\n' : ' ');
          }
          os << "weights\n";
          for (std::size_t k = 0; k < st.weights.size(); ++k) {
            os << st.weights[k]
               << (k % 8 == 7 || k + 1 == st.weights.size() ? '\n' : ' ');
          }
        } else {
          SGA_CHECK(false, "write_packed_network: store is not packed");
        }
      },
      net.synapse_store());
  write_groups(os, net);
}

}  // namespace

void write_network(std::ostream& os, const CompiledNetwork& net) {
  // max_digits10 keeps doubles bit-exact across a round trip.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  const StorageWidths& w = net.storage_widths();
  if (w.packed) {
    // Packed artifacts need the version-3 body; everything else keeps
    // emitting version 2 byte-for-byte (existing files and the pins in
    // tests/test_snn_io.cpp are unaffected).
    write_packed_network(os, net);
    return;
  }
  os << "snn 2\n";
  os << "storage " << (w.narrow ? "narrow" : "wide") << " target "
     << target_tag(w) << " delay " << delay_tag(w) << " weight "
     << weight_tag(w) << '\n';
  write_neurons(os, net);
  os << "synapses " << net.num_synapses() << '\n';
  for (NeuronId i = 0; i < net.num_neurons(); ++i) {
    net.for_each_out_synapse(
        i, [&](std::size_t, NeuronId tgt, SynWeight w, Delay d) {
          os << "s " << i << ' ' << tgt << ' ' << w << ' ' << d << '\n';
        });
  }
  write_groups(os, net);
}

void write_network(std::ostream& os, const Network& net) {
  write_network(os, net.compile());
}

namespace {

void expect_token(std::istream& is, const char* want) {
  std::string tok;
  is >> tok;
  SGA_REQUIRE(static_cast<bool>(is) && tok == want,
              "read_network: expected '" << want << "', got '" << tok << "'");
}

/// Legacy (version 1) ceiling on any count field of an untrusted file. A
/// hostile header like "neurons 9999999999999999999" (or "-1", which
/// operator>> into an unsigned silently wraps to 2^64−1) must be rejected
/// BEFORE the parse loop turns it into a multi-gigabyte allocation. 2^30 is
/// far above any network this library builds while still bounding a single
/// vector below the container limits. Version-2 files replace this with the
/// tighter ceilings their own storage line declares.
constexpr long long kMaxCountV1 = 1LL << 30;

/// Count ceilings a file's header implies. Version 1 has no storage line,
/// so both fall back to the legacy plausibility bound; version 2 derives
/// them from the declared target width (u16 targets cannot address more
/// than 2^16 neurons; u32 segment bounds cannot index 2^32 synapses).
struct CountCeilings {
  long long neurons = kMaxCountV1;
  long long synapses = kMaxCountV1;
};

/// Read a count field defensively: parse as SIGNED so "-1" fails the range
/// check instead of wrapping, then bound it by the header-derived ceiling.
std::size_t read_count(std::istream& is, const char* what,
                       long long limit = kMaxCountV1) {
  long long v = 0;
  is >> v;
  SGA_REQUIRE(static_cast<bool>(is), "read_network: missing " << what);
  SGA_REQUIRE(v >= 0, "read_network: implausible " << what << " " << v);
  if (v > limit) throw CountLimitError(what, v, limit);
  return static_cast<std::size_t>(v);
}

std::string read_tag(std::istream& is, const char* field,
                     std::initializer_list<const char*> allowed) {
  expect_token(is, field);
  std::string tag;
  is >> tag;
  bool ok = static_cast<bool>(is);
  if (ok) {
    ok = false;
    for (const char* a : allowed) ok = ok || tag == a;
  }
  SGA_REQUIRE(ok, "read_network: bad storage " << field << " tag '" << tag
                                               << "'");
  return tag;
}

/// Version-3 carrier: when a file declares the packed encoding, the parser
/// fills `parts` instead of a builder, and the callers route it through
/// CompiledNetwork::from_packed_parts (which validates every claimed table
/// before anything decodes).
struct PackedFilePayload {
  bool present = false;
  PackedNetworkParts parts;
};

/// Parse the version-3 packed body (everything after the storage line).
/// Structure only: counts are bounded before their loops run and nothing
/// here allocates proportionally to an unparsed header count (each column
/// grows by push_back as lines are consumed, so a hostile count fails at
/// EOF, not at a multi-gigabyte resize). Semantic validation — block word
/// sums, decoded target ranges, delay caps — is from_packed_parts()'s job.
void read_packed_body(std::istream& is, const CountCeilings& ceilings,
                      PackedNetworkParts* parts) {
  expect_token(is, "neurons");
  const std::size_t n = read_count(is, "neuron count", ceilings.neurons);
  for (std::size_t i = 0; i < n; ++i) {
    expect_token(is, "n");
    NeuronParams p;
    is >> p.v_reset >> p.v_threshold >> p.tau;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad neuron " << i);
    SGA_REQUIRE(std::isfinite(p.v_reset) && std::isfinite(p.v_threshold) &&
                    std::isfinite(p.tau),
                "read_network: neuron " << i << " has non-finite parameters");
    parts->neurons.push_back(p);
  }

  expect_token(is, "synapses");
  const std::size_t m = read_count(is, "synapse count", ceilings.synapses);
  expect_token(is, "segments");
  // Every delay run covers >= 1 synapse, so a segment count above the
  // synapse count is structurally impossible.
  const std::size_t segs =
      read_count(is, "segment count", static_cast<long long>(m));

  expect_token(is, "rows");
  parts->offsets.push_back(0);
  parts->seg_offsets.push_back(0);
  std::size_t syn_sum = 0, seg_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect_token(is, "r");
    const std::size_t deg =
        read_count(is, "row degree", static_cast<long long>(m));
    const std::size_t sc =
        read_count(is, "row segment count", static_cast<long long>(segs));
    syn_sum += deg;
    seg_sum += sc;
    SGA_REQUIRE(syn_sum <= m && seg_sum <= segs,
                "read_network: row " << i
                                     << " overruns the declared totals");
    parts->offsets.push_back(syn_sum);
    parts->seg_offsets.push_back(seg_sum);
  }
  SGA_REQUIRE(syn_sum == m, "read_network: row degrees sum to "
                                << syn_sum << ", header declares " << m);
  SGA_REQUIRE(seg_sum == segs, "read_network: row segment counts sum to "
                                   << seg_sum << ", header declares " << segs);

  for (std::size_t s = 0; s < segs; ++s) {
    expect_token(is, "t");
    Delay d = 0;
    long long begin = 0;
    is >> d >> begin;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad segment " << s);
    SGA_REQUIRE(begin >= 0 && begin <= static_cast<long long>(m),
                "read_network: segment " << s << " begin " << begin
                                         << " out of range (m=" << m << ")");
    parts->seg_delays.push_back(d);
    parts->seg_syn_begin.push_back(static_cast<std::uint32_t>(begin));
  }
  // The store keeps the begin column sentinel-terminated (one binary search
  // serves both bounds); the file does not repeat the redundant value.
  parts->seg_syn_begin.push_back(static_cast<std::uint32_t>(m));

  expect_token(is, "blocks");
  const long long want_blocks = static_cast<long long>(
      (m + kPackedBlockSize - 1) / kPackedBlockSize);
  const std::size_t blocks = read_count(is, "block count", want_blocks);
  SGA_REQUIRE(static_cast<long long>(blocks) == want_blocks,
              "read_network: block count " << blocks << " does not match "
                                           << want_blocks << " for m=" << m);
  for (std::size_t j = 0; j < blocks; ++j) {
    expect_token(is, "b");
    long long base = 0, bits = 0;
    is >> base >> bits;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad block " << j);
    SGA_REQUIRE(base >= 0 && base < (1LL << 32),
                "read_network: block " << j << " base out of range");
    SGA_REQUIRE(bits >= 0 && bits <= 32,
                "read_network: block " << j << " bit width " << bits
                                       << " out of range (0..32)");
    parts->block_base.push_back(static_cast<std::uint32_t>(base));
    parts->block_bits.push_back(static_cast<std::uint8_t>(bits));
  }

  expect_token(is, "words");
  // Plausibility bound before the loop: a full 64-entry block at 32 bits
  // packs 63 deltas into 63 words. The EXACT per-block word sum is checked
  // by from_packed_parts.
  const std::size_t words = read_count(
      is, "word count",
      static_cast<long long>(blocks) * (kPackedBlockSize - 1));
  for (std::size_t i = 0; i < words; ++i) {
    long long v = 0;
    is >> v;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad pack word " << i);
    SGA_REQUIRE(v >= 0 && v < (1LL << 32),
                "read_network: pack word " << i << " out of range");
    parts->pack_words.push_back(static_cast<std::uint32_t>(v));
  }

  expect_token(is, "weights");
  for (std::size_t k = 0; k < m; ++k) {
    SynWeight w = 0;
    is >> w;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad weight " << k);
    SGA_REQUIRE(std::isfinite(w),
                "read_network: synapse " << k << " has non-finite weight");
    parts->weights.push_back(w);
  }

  expect_token(is, "groups");
  const std::size_t g = read_count(is, "group count");
  std::unordered_set<std::string> seen_groups;
  for (std::size_t i = 0; i < g; ++i) {
    expect_token(is, "g");
    std::string name;
    is >> name;
    SGA_REQUIRE(static_cast<bool>(is) && !name.empty(),
                "read_network: bad group header " << i);
    SGA_REQUIRE(seen_groups.insert(name).second,
                "read_network: duplicate group '" << name << "'");
    const std::size_t k = read_count(is, "group member count");
    SGA_REQUIRE(k <= n, "read_network: group '"
                            << name << "' claims " << k << " members in a "
                            << n << "-neuron network");
    std::vector<NeuronId> ids(k);
    for (auto& id : ids) {
      is >> id;
      SGA_REQUIRE(static_cast<bool>(is), "read_network: bad group member");
      SGA_REQUIRE(id < n,
                  "read_network: group '" << name << "' member out of range");
    }
    parts->groups.emplace_back(std::move(name), std::move(ids));
  }
}

/// Shared parser. Returns the builder plus the storage policy the file
/// declares, so read_compiled_network can re-freeze a wide artifact wide.
/// A version-3 (packed) file fills `packed` instead and returns an empty
/// builder — the callers reassemble via from_packed_parts.
Network read_network_impl(std::istream& is, StoragePolicy* policy,
                          PackedFilePayload* packed) {
  expect_token(is, "snn");
  int version = 0;
  is >> version;
  SGA_REQUIRE(
      static_cast<bool>(is) && (version == 1 || version == 2 || version == 3),
      "read_network: unsupported version " << version);

  CountCeilings ceilings;
  *policy = StoragePolicy::kAuto;
  if (version == 3) {
    expect_token(is, "storage");
    std::string kind;
    is >> kind;
    SGA_REQUIRE(static_cast<bool>(is) && kind == "packed",
                "read_network: bad version-3 storage kind '" << kind << "'");
    read_tag(is, "target", {"u32"});
    const std::string dly = read_tag(is, "delay", {"u8", "u16"});
    const std::string wgt = read_tag(is, "weight", {"f32", "f64"});
    ceilings.neurons = 1LL << 32;
    ceilings.synapses = (1LL << 32) - 1;  // u32 begin column
    packed->present = true;
    StorageWidths& w = packed->parts.widths;
    w.narrow = true;
    w.packed = true;
    w.target_bytes = 4;
    w.seg_index_bytes = 4;
    w.delay_bytes = dly == "u8" ? 1 : 2;
    w.weight_bytes = wgt == "f32" ? 4 : 8;
    *policy = StoragePolicy::kPacked;
    read_packed_body(is, ceilings, &packed->parts);
    return Network{};
  }
  if (version == 2) {
    expect_token(is, "storage");
    std::string kind;
    is >> kind;
    SGA_REQUIRE(static_cast<bool>(is) && (kind == "narrow" || kind == "wide"),
                "read_network: bad storage kind '" << kind << "'");
    if (kind == "wide") *policy = StoragePolicy::kWide;
    const std::string tgt = read_tag(is, "target", {"u16", "u32"});
    read_tag(is, "delay", {"u8", "u16", "i64"});
    read_tag(is, "weight", {"f32", "f64"});
    // The declared target width bounds what the rest of the header may
    // claim: counts above these are rejected as CountLimitError before the
    // parse loops run.
    ceilings.neurons = tgt == "u16" ? (1LL << 16) : (1LL << 32);
    ceilings.synapses = (1LL << 32) - 1;  // u32 segment bounds
  }

  Network net;
  expect_token(is, "neurons");
  const std::size_t n = read_count(is, "neuron count", ceilings.neurons);
  for (std::size_t i = 0; i < n; ++i) {
    expect_token(is, "n");
    NeuronParams p;
    is >> p.v_reset >> p.v_threshold >> p.tau;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad neuron " << i);
    // operator>> accepts "nan" and "inf" since C++11; a NaN threshold would
    // make every threshold comparison silently false, so reject them here
    // (τ's domain is checked by add_neuron).
    SGA_REQUIRE(std::isfinite(p.v_reset) && std::isfinite(p.v_threshold) &&
                    std::isfinite(p.tau),
                "read_network: neuron " << i << " has non-finite parameters");
    net.add_neuron(p);
  }

  expect_token(is, "synapses");
  const std::size_t m = read_count(is, "synapse count", ceilings.synapses);
  for (std::size_t i = 0; i < m; ++i) {
    expect_token(is, "s");
    NeuronId from = 0, to = 0;
    SynWeight w = 0;
    Delay d = 0;
    is >> from >> to >> w >> d;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad synapse " << i);
    SGA_REQUIRE(from < n && to < n,
                "read_network: synapse " << i << " endpoint out of range");
    SGA_REQUIRE(std::isfinite(w),
                "read_network: synapse " << i << " has non-finite weight");
    // add_synapse rejects delay < δ (which covers negative delays).
    net.add_synapse(from, to, w, d);
  }

  expect_token(is, "groups");
  const std::size_t g = read_count(is, "group count");
  std::unordered_set<std::string> seen_groups;
  for (std::size_t i = 0; i < g; ++i) {
    expect_token(is, "g");
    std::string name;
    is >> name;
    SGA_REQUIRE(static_cast<bool>(is) && !name.empty(),
                "read_network: bad group header " << i);
    // define_group would silently overwrite; in a file a repeated name is
    // always corruption (or an attempt to smuggle a second definition past
    // a reader that validated the first), so reject it.
    SGA_REQUIRE(seen_groups.insert(name).second,
                "read_network: duplicate group '" << name << "'");
    const std::size_t k = read_count(is, "group member count");
    SGA_REQUIRE(k <= n, "read_network: group '"
                            << name << "' claims " << k << " members in a "
                            << n << "-neuron network");
    std::vector<NeuronId> ids(k);
    for (auto& id : ids) {
      is >> id;
      SGA_REQUIRE(static_cast<bool>(is), "read_network: bad group member");
      SGA_REQUIRE(id < n,
                  "read_network: group '" << name << "' member out of range");
    }
    net.define_group(name, std::move(ids));
  }
  return net;
}

}  // namespace

Network read_network(std::istream& is) {
  StoragePolicy policy = StoragePolicy::kAuto;
  PackedFilePayload packed;
  Network net = read_network_impl(is, &policy, &packed);
  if (!packed.present) return net;
  // A packed file has no per-synapse lines to rebuild a builder from, so
  // validate + reassemble the compiled form first (the same path as
  // read_compiled_network) and only then expand it back into a mutable
  // builder through the row walk.
  CompiledNetwork cn =
      CompiledNetwork::from_packed_parts(std::move(packed.parts));
  cn.verify_invariants();
  Network out;
  for (NeuronId i = 0; i < cn.num_neurons(); ++i) out.add_neuron(cn.params(i));
  for (NeuronId i = 0; i < cn.num_neurons(); ++i) {
    cn.for_each_out_synapse(
        i, [&](std::size_t, NeuronId tgt, SynWeight w, Delay d) {
          out.add_synapse(i, tgt, w, d);
        });
  }
  for (const auto& name : cn.group_names()) {
    out.define_group(name, std::vector<NeuronId>(cn.group(name)));
  }
  return out;
}

CompiledNetwork read_compiled_network(std::istream& is) {
  StoragePolicy policy = StoragePolicy::kAuto;
  PackedFilePayload packed;
  Network builder = read_network_impl(is, &policy, &packed);
  // Defense in depth for untrusted cache inputs (docs/SERVICE.md): the
  // assembly paths validate what they pack, but the simulator's hot path
  // trusts every derived index (segment CSR bounds, delay-run monotonicity,
  // block word offsets, aggregate tables) unchecked — re-verify the frozen
  // form before handing it out. For a version-3 file from_packed_parts has
  // already made decoding memory-safe; verify_invariants adds the full
  // semantic contract (tiling, per-row delay order, finiteness).
  CompiledNetwork net =
      packed.present
          ? CompiledNetwork::from_packed_parts(std::move(packed.parts))
          : builder.compile(policy);
  net.verify_invariants();
  return net;
}

}  // namespace sga::snn
