#include "snn/io.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
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

}  // namespace

void write_network(std::ostream& os, const CompiledNetwork& net) {
  // max_digits10 keeps doubles bit-exact across a round trip.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  const StorageWidths& w = net.storage_widths();
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

/// Decode the version-3 synapse body (everything after "synapses M") into
/// `net`: the delay runs, then the target column as base + bit-packed
/// zigzag deltas in 64-entry blocks, then the weights. Counts are bounded
/// before their loops run, and each column grows by push_back as lines are
/// consumed, so a hostile count fails at EOF, not at a huge resize. The
/// block tables are checked before anything decodes (bits ≤ 32, words
/// exactly the per-block sums), every decoded target is checked against
/// N, and the runs must tile the rows, so each synapse gets its run's
/// delay. Synapses are added in file order, which is delay-sorted per row.
void read_v3_synapses(std::istream& is, std::size_t m, Network* net) {
  constexpr std::size_t kBlock = 64;
  const std::size_t n = net->num_neurons();
  expect_token(is, "segments");
  // Every delay run covers >= 1 synapse, so a segment count above the
  // synapse count is structurally impossible.
  const std::size_t segs =
      read_count(is, "segment count", static_cast<long long>(m));

  expect_token(is, "rows");
  std::vector<std::size_t> offsets{0};
  std::vector<std::size_t> seg_offsets{0};
  for (std::size_t i = 0; i < n; ++i) {
    expect_token(is, "r");
    const std::size_t deg =
        read_count(is, "row degree", static_cast<long long>(m));
    const std::size_t sc =
        read_count(is, "row segment count", static_cast<long long>(segs));
    offsets.push_back(offsets.back() + deg);
    seg_offsets.push_back(seg_offsets.back() + sc);
    SGA_REQUIRE(offsets.back() <= m && seg_offsets.back() <= segs,
                "read_network: row " << i
                                     << " overruns the declared totals");
  }
  SGA_REQUIRE(offsets.back() == m, "read_network: row degrees sum to "
                                       << offsets.back()
                                       << ", header declares " << m);
  SGA_REQUIRE(seg_offsets.back() == segs,
              "read_network: row segment counts sum to "
                  << seg_offsets.back() << ", header declares " << segs);

  std::vector<Delay> seg_delays;
  std::vector<std::size_t> seg_begin;
  for (std::size_t s = 0; s < segs; ++s) {
    expect_token(is, "t");
    Delay d = 0;
    long long begin = 0;
    is >> d >> begin;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad segment " << s);
    SGA_REQUIRE(begin >= 0 && begin <= static_cast<long long>(m),
                "read_network: segment " << s << " begin " << begin
                                         << " out of range (m=" << m << ")");
    SGA_REQUIRE(s == 0 ? begin == 0
                       : static_cast<std::size_t>(begin) > seg_begin.back(),
                "read_network: segment begin column not strictly "
                "increasing from 0 at run "
                    << s);
    seg_delays.push_back(d);
    seg_begin.push_back(static_cast<std::size_t>(begin));
  }
  // The file does not repeat the m sentinel that ends the last run.
  seg_begin.push_back(m);
  // Runs tile the rows: each row's first run starts at the row (a row with
  // no runs starts where the next row's first run does, so it is empty).
  for (std::size_t i = 0; i <= n; ++i) {
    SGA_REQUIRE(seg_begin[seg_offsets[i]] == offsets[i],
                "read_network: delay runs do not tile row " << i);
  }

  expect_token(is, "blocks");
  const std::size_t want_blocks = (m + kBlock - 1) / kBlock;
  const std::size_t blocks =
      read_count(is, "block count", static_cast<long long>(want_blocks));
  SGA_REQUIRE(blocks == want_blocks,
              "read_network: block count " << blocks << " does not match "
                                           << want_blocks << " for m=" << m);
  std::vector<std::uint32_t> block_base;
  std::vector<unsigned> block_bits;
  std::size_t want_words = 0;
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
    block_base.push_back(static_cast<std::uint32_t>(base));
    block_bits.push_back(static_cast<unsigned>(bits));
    // A block's first target is its base; each later one adds a delta.
    const std::size_t deltas = std::min(kBlock, m - j * kBlock) - 1;
    want_words += (deltas * block_bits.back() + 31) / 32;
  }

  expect_token(is, "words");
  const std::size_t nwords =
      read_count(is, "word count", static_cast<long long>(want_words));
  SGA_REQUIRE(nwords == want_words,
              "read_network: delta array has "
                  << nwords << " words but the block headers account for "
                  << want_words);
  std::vector<std::uint32_t> words;
  for (std::size_t i = 0; i < nwords; ++i) {
    long long v = 0;
    is >> v;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad pack word " << i);
    SGA_REQUIRE(v >= 0 && v < (1LL << 32),
                "read_network: pack word " << i << " out of range");
    words.push_back(static_cast<std::uint32_t>(v));
  }

  expect_token(is, "weights");
  std::vector<SynWeight> weights;
  for (std::size_t k = 0; k < m; ++k) {
    SynWeight w = 0;
    is >> w;
    SGA_REQUIRE(static_cast<bool>(is), "read_network: bad weight " << k);
    SGA_REQUIRE(std::isfinite(w),
                "read_network: synapse " << k << " has non-finite weight");
    weights.push_back(w);
  }

  // Decode: entry i > 0 of a block adds the zigzag delta in bits
  // [(i − 1)·B, i·B) of the block's words to entry i − 1, wrapping mod
  // 2^32. The exact word sums above keep every read inside `words`.
  std::vector<NeuronId> targets;
  targets.reserve(m);
  std::size_t word = 0;
  for (std::size_t j = 0; j < blocks; ++j) {
    const unsigned bits = block_bits[j];
    const std::size_t count = std::min(kBlock, m - j * kBlock);
    std::uint32_t v = block_base[j];
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0 && bits > 0) {
        const std::size_t bit = (i - 1) * bits;
        std::uint64_t window = words[word + bit / 32];
        if (bit % 32 + bits > 32) {
          window |= std::uint64_t{words[word + bit / 32 + 1]} << 32;
        }
        const auto z = static_cast<std::uint32_t>(
            (window >> (bit % 32)) & ((std::uint64_t{1} << bits) - 1));
        v += (z >> 1) ^ (0u - (z & 1u));
      }
      SGA_REQUIRE(v < n, "read_network: synapse " << targets.size()
                                                  << " decodes to out-of-"
                                                     "range neuron "
                                                  << v);
      targets.push_back(v);
    }
    word += ((count - 1) * bits + 31) / 32;
  }

  for (NeuronId i = 0; i < n; ++i) {
    for (std::size_t s = seg_offsets[i]; s < seg_offsets[i + 1]; ++s) {
      for (std::size_t k = seg_begin[s]; k < seg_begin[s + 1]; ++k) {
        net->add_synapse(i, targets[k], weights[k], seg_delays[s]);
      }
    }
  }
}

/// Shared parser. Returns the builder plus the storage policy the file
/// declares, so read_compiled_network can re-freeze a wide artifact wide.
Network read_network_impl(std::istream& is, StoragePolicy* policy) {
  expect_token(is, "snn");
  int version = 0;
  is >> version;
  SGA_REQUIRE(
      static_cast<bool>(is) && (version == 1 || version == 2 || version == 3),
      "read_network: unsupported version " << version);

  CountCeilings ceilings;
  *policy = StoragePolicy::kAuto;
  if (version == 3) {
    // Version 3 stored the retired packed encoding; it reads as a graph and
    // freezes under kAuto like version 1.
    expect_token(is, "storage");
    std::string kind;
    is >> kind;
    SGA_REQUIRE(static_cast<bool>(is) && kind == "packed",
                "read_network: bad version-3 storage kind '" << kind << "'");
    read_tag(is, "target", {"u32"});
    read_tag(is, "delay", {"u8", "u16"});
    read_tag(is, "weight", {"f32", "f64"});
    ceilings.neurons = 1LL << 32;
    ceilings.synapses = (1LL << 32) - 1;  // u32 begin column
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
  if (version == 3) {
    read_v3_synapses(is, m, &net);
  } else {
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
  return read_network_impl(is, &policy);
}

CompiledNetwork read_compiled_network(std::istream& is) {
  StoragePolicy policy = StoragePolicy::kAuto;
  Network builder = read_network_impl(is, &policy);
  // Defense in depth for untrusted cache inputs (docs/SERVICE.md): the
  // freeze validates what it packs, but the simulator's hot path trusts
  // every derived index (segment CSR bounds, delay-run monotonicity,
  // aggregate tables) unchecked — re-verify the frozen form before handing
  // it out.
  CompiledNetwork net = builder.compile(policy);
  net.verify_invariants();
  return net;
}

}  // namespace sga::snn
