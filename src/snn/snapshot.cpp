#include "snn/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "snn/compiled_network.h"

namespace sga::snn {
namespace {

// The stream is little-endian by definition (docs/PERSISTENCE.md). We
// compose/decompose bytes explicitly so the format is identical on any
// host endianness.

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Open a framed section: writes the section header with a length
  /// placeholder, returns the patch position.
  std::size_t begin_section(std::uint16_t id) {
    u16(id);
    u16(0);  // reserved
    const std::size_t at = bytes_.size();
    u64(0);  // payload length, patched by end_section
    return at;
  }
  void end_section(std::size_t at) {
    const std::uint64_t len = bytes_.size() - (at + 8);
    for (int i = 0; i < 8; ++i) {
      bytes_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
  }

  std::vector<std::uint8_t> finish() {
    const std::uint32_t crc = snapshot_crc32(bytes_.data(), bytes_.size());
    u32(crc);
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size, std::string section)
      : data_(data), size_(size), section_(std::move(section)) {}

  void set_section(std::string s) { section_ = std::move(s); }
  const std::string& section() const { return section_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Guard a count field before allocating: each counted element occupies
  /// at least `elem_bytes` in the remaining payload, so a hostile count
  /// cannot force a huge allocation.
  std::uint64_t count(std::uint64_t elem_bytes) {
    const std::uint64_t c = u64();
    if (elem_bytes > 0 && c > remaining() / elem_bytes) {
      throw SnapshotError(section_, "count " + std::to_string(c) +
                                        " exceeds remaining payload");
    }
    return c;
  }

  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw SnapshotError(section_, "truncated stream (need " +
                                        std::to_string(n) + " bytes at offset " +
                                        std::to_string(pos_) + ")");
    }
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string section_;
};

const char* section_name(std::uint16_t id) {
  switch (id) {
    case kSecFingerprint:
      return "fingerprint";
    case kSecConfig:
      return "config";
    case kSecNeuron:
      return "neuron";
    case kSecQueue:
      return "queue";
    case kSecLog:
      return "log";
    case kSecStats:
      return "stats";
    default:
      return "unknown";
  }
}

void write_stats(Writer& w, const SimStats& s) {
  w.u64(s.spikes);
  w.u64(s.deliveries);
  w.u64(s.event_times);
  w.i64(s.end_time);
  w.i64(s.execution_time);
  w.u8(s.hit_terminal ? 1 : 0);
  w.u8(s.hit_time_limit ? 1 : 0);
  w.u8(s.paused ? 1 : 0);
  w.u8(0);  // pad
  w.u64(s.peak_queue_events);
  w.u64(s.max_bucket_occupancy);
  w.u64(s.overflow_spills);
  w.u64(s.empty_bucket_scans);
  w.u32(s.ring_buckets);
  w.u64(s.fanout_segments);
  w.u64(s.bulk_appends);
  w.u64(s.pool_hits);
  w.u64(s.pool_misses);
  w.u64(s.csr_bytes);
}

SimStats read_stats(Reader& r) {
  SimStats s;
  s.spikes = r.u64();
  s.deliveries = r.u64();
  s.event_times = r.u64();
  s.end_time = r.i64();
  s.execution_time = r.i64();
  s.hit_terminal = r.u8() != 0;
  s.hit_time_limit = r.u8() != 0;
  s.paused = r.u8() != 0;
  r.u8();  // pad
  s.peak_queue_events = r.u64();
  s.max_bucket_occupancy = r.u64();
  s.overflow_spills = r.u64();
  s.empty_bucket_scans = r.u64();
  s.ring_buckets = r.u32();
  s.fanout_segments = r.u64();
  s.bulk_appends = r.u64();
  s.pool_hits = r.u64();
  s.pool_misses = r.u64();
  s.csr_bytes = r.u64();
  return s;
}

}  // namespace

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> serialize_snapshot(const SnapshotImage& img) {
  Writer w;
  // Header.
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  std::uint16_t flags = 0;
  if (img.mid_run) flags |= kFlagMidRun;
  if (img.record_causes) flags |= kFlagRecordCauses;
  if (img.record_log) flags |= kFlagRecordLog;
  if (img.watch_all) flags |= kFlagWatchAll;
  if (img.terminal_fired) flags |= kFlagTerminalFired;
  w.u16(flags);

  // FINGERPRINT.
  std::size_t at = w.begin_section(kSecFingerprint);
  w.u64(img.num_neurons);
  w.u64(img.num_synapses);
  w.i64(img.max_delay);
  w.u8(img.widths.narrow ? 1 : 0);
  w.u8(img.widths.target_bytes);
  w.u8(img.widths.delay_bytes);
  w.u8(img.widths.weight_bytes);
  w.u8(img.widths.seg_index_bytes);
  // The retired packed-encoding flag: always 0 (docs/PERSISTENCE.md).
  w.u8(0);
  w.u8(0);
  w.u8(0);  // pad to 32 bytes
  w.end_section(at);

  // CONFIG.
  at = w.begin_section(kSecConfig);
  w.i64(img.max_time);
  w.i64(img.resume_floor);
  w.u64(img.terminals_remaining);
  w.u64(img.terminals.size());
  w.u64(img.watched.size());
  for (const NeuronId id : img.terminals) w.u32(id);
  for (const NeuronId id : img.watched) w.u32(id);
  w.end_section(at);

  // NEURON.
  at = w.begin_section(kSecNeuron);
  w.u64(img.neurons.size());
  for (const SnapshotNeuron& n : img.neurons) {
    w.u32(n.id);
    w.f64(n.v);
    w.i64(n.last_update);
    w.i64(n.first_spike);
    w.i64(n.last_spike);
    w.u32(n.spike_count);
    w.u32(n.cause);
  }
  w.end_section(at);

  // QUEUE.
  at = w.begin_section(kSecQueue);
  w.u64(img.queue.size());
  for (const SnapshotBucket& b : img.queue) {
    w.i64(b.time);
    w.u64(b.forced.size());
    w.u64(b.deliveries.size());
    for (const NeuronId id : b.forced) w.u32(id);
    for (const SnapshotDelivery& d : b.deliveries) {
      w.u32(d.target);
      w.f64(d.weight);
    }
    if (img.record_causes) {
      for (const SnapshotDelivery& d : b.deliveries) w.u32(d.source);
    }
  }
  w.end_section(at);

  // LOG.
  at = w.begin_section(kSecLog);
  w.u64(img.log.size());
  for (const auto& [t, id] : img.log) {
    w.i64(t);
    w.u32(id);
  }
  w.end_section(at);

  // STATS.
  at = w.begin_section(kSecStats);
  write_stats(w, img.stats);
  w.end_section(at);

  return w.finish();
}

SnapshotImage parse_snapshot(const std::uint8_t* data, std::size_t size) {
  if (size < 12) {
    throw SnapshotError("header", "stream too short (" + std::to_string(size) +
                                      " bytes)");
  }
  Reader r(data, size, "header");
  const std::uint32_t magic = r.u32();
  if (magic != kSnapshotMagic) {
    throw SnapshotError("header", "bad magic (not an SGAS snapshot stream)");
  }
  const std::uint16_t version = r.u16();
  if (version != kSnapshotVersion) {
    throw SnapshotError("header",
                        "unsupported snapshot version " +
                            std::to_string(version) + " (reader supports " +
                            std::to_string(kSnapshotVersion) + ")");
  }
  // Integrity before structure: the trailing CRC-32 covers everything
  // before it, so corruption anywhere surfaces as one typed error.
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(data[size - 4]) |
      (static_cast<std::uint32_t>(data[size - 3]) << 8) |
      (static_cast<std::uint32_t>(data[size - 2]) << 16) |
      (static_cast<std::uint32_t>(data[size - 1]) << 24);
  if (snapshot_crc32(data, size - 4) != stored_crc) {
    throw SnapshotError("crc", "CRC-32 mismatch (corrupt or truncated stream)");
  }

  const std::uint16_t flags = r.u16();
  SnapshotImage img;
  img.mid_run = (flags & kFlagMidRun) != 0;
  img.record_causes = (flags & kFlagRecordCauses) != 0;
  img.record_log = (flags & kFlagRecordLog) != 0;
  img.watch_all = (flags & kFlagWatchAll) != 0;
  img.terminal_fired = (flags & kFlagTerminalFired) != 0;

  // Sections: all six required, in order, each once.
  const std::uint16_t expected[] = {kSecFingerprint, kSecConfig, kSecNeuron,
                                    kSecQueue,       kSecLog,    kSecStats};
  Reader body(data, size - 4, "section");
  // Skip the header we already consumed.
  for (std::size_t i = 0; i < 8; ++i) body.u8();
  for (const std::uint16_t want : expected) {
    body.set_section("section");
    const std::uint16_t id = body.u16();
    if (id != want) {
      throw SnapshotError(section_name(want),
                          std::string("expected section '") +
                              section_name(want) + "' but found id " +
                              std::to_string(id));
    }
    body.u16();  // reserved
    const std::uint64_t len = body.u64();
    body.set_section(section_name(id));
    if (len > body.remaining()) {
      throw SnapshotError(body.section(),
                          "section length " + std::to_string(len) +
                              " exceeds stream (" +
                              std::to_string(body.remaining()) + " left)");
    }
    const std::size_t payload_end = body.pos() + static_cast<std::size_t>(len);

    switch (id) {
      case kSecFingerprint: {
        img.num_neurons = body.u64();
        img.num_synapses = body.u64();
        img.max_delay = body.i64();
        img.widths.narrow = body.u8() != 0;
        img.widths.target_bytes = body.u8();
        img.widths.delay_bytes = body.u8();
        img.widths.weight_bytes = body.u8();
        img.widths.seg_index_bytes = body.u8();
        if (body.u8() != 0) {
          // The retired packed-encoding flag: no frozen network has that
          // encoding any more, so no restore could match this image.
          throw SnapshotError(SnapshotError::kFingerprint,
                              "image was taken on a packed-encoded network, "
                              "an encoding no longer supported");
        }
        body.u8();
        body.u8();
        break;
      }
      case kSecConfig: {
        img.max_time = body.i64();
        img.resume_floor = body.i64();
        img.terminals_remaining = body.u64();
        const std::uint64_t nterm = body.count(4);
        const std::uint64_t nwatch = body.count(4);
        img.terminals.reserve(nterm);
        for (std::uint64_t i = 0; i < nterm; ++i)
          img.terminals.push_back(body.u32());
        img.watched.reserve(nwatch);
        for (std::uint64_t i = 0; i < nwatch; ++i)
          img.watched.push_back(body.u32());
        break;
      }
      case kSecNeuron: {
        const std::uint64_t n = body.count(40);
        img.neurons.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          SnapshotNeuron e;
          e.id = body.u32();
          e.v = body.f64();
          e.last_update = body.i64();
          e.first_spike = body.i64();
          e.last_spike = body.i64();
          e.spike_count = body.u32();
          e.cause = body.u32();
          img.neurons.push_back(e);
        }
        break;
      }
      case kSecQueue: {
        const std::uint64_t nb = body.count(24);
        img.queue.reserve(nb);
        for (std::uint64_t i = 0; i < nb; ++i) {
          SnapshotBucket b;
          b.time = body.i64();
          const std::uint64_t nforced = body.count(4);
          const std::uint64_t ndeliv = body.count(12);
          b.forced.reserve(nforced);
          for (std::uint64_t k = 0; k < nforced; ++k)
            b.forced.push_back(body.u32());
          b.deliveries.resize(ndeliv);
          for (std::uint64_t k = 0; k < ndeliv; ++k) {
            b.deliveries[k].target = body.u32();
            b.deliveries[k].weight = body.f64();
          }
          if (img.record_causes) {
            for (std::uint64_t k = 0; k < ndeliv; ++k)
              b.deliveries[k].source = body.u32();
          }
          img.queue.push_back(std::move(b));
        }
        break;
      }
      case kSecLog: {
        const std::uint64_t n = body.count(12);
        img.log.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          const Time t = body.i64();
          const NeuronId id2 = body.u32();
          img.log.emplace_back(t, id2);
        }
        break;
      }
      case kSecStats: {
        img.stats = read_stats(body);
        break;
      }
      default:
        break;  // unreachable: id == want
    }

    if (body.pos() != payload_end) {
      throw SnapshotError(body.section(),
                          "section payload length mismatch (declared " +
                              std::to_string(len) + ", consumed " +
                              std::to_string(body.pos() +
                                             static_cast<std::size_t>(len) -
                                             payload_end) +
                              ")");
    }
  }
  if (!body.done()) {
    throw SnapshotError("header", "trailing bytes after last section");
  }
  return img;
}

void validate_snapshot_for(const SnapshotImage& img,
                           const CompiledNetwork& net) {
  // Fingerprint: the image must have been taken on THIS frozen artifact —
  // same shape and same storage widths (a kWide vs kAuto freeze of the
  // same network is a different artifact, so we refuse rather than
  // half-match). Typed ctor so callers can catch
  // SnapshotError::kFingerprint without string-matching.
  if (img.num_neurons != net.num_neurons() ||
      img.num_synapses != net.num_synapses() ||
      img.max_delay != net.max_delay() ||
      !(img.widths == net.storage_widths())) {
    throw SnapshotError(
        SnapshotError::kFingerprint,
        "snapshot was taken on a different network (snapshot: n=" +
            std::to_string(img.num_neurons) + " m=" +
            std::to_string(img.num_synapses) + " max_delay=" +
            std::to_string(img.max_delay) + " encoding=" +
            std::string(encoding_name(img.widths)) + ", live: n=" +
            std::to_string(net.num_neurons()) + " m=" +
            std::to_string(net.num_synapses()) + " max_delay=" +
            std::to_string(net.max_delay()) + " encoding=" +
            std::string(encoding_name(net.storage_widths())) +
            "; storage widths and encoding must match)");
  }
  const std::uint64_t n = img.num_neurons;

  if (img.max_time < 0) {
    throw SnapshotError("config", "negative max_time");
  }
  if (img.resume_floor < 0) {
    throw SnapshotError("config", "negative resume floor");
  }
  for (const NeuronId id : img.terminals) {
    if (id >= n)
      throw SnapshotError("config", "terminal id " + std::to_string(id) +
                                        " out of range (n=" +
                                        std::to_string(n) + ")");
  }
  for (const NeuronId id : img.watched) {
    if (id >= n)
      throw SnapshotError("config", "watched id " + std::to_string(id) +
                                        " out of range (n=" +
                                        std::to_string(n) + ")");
  }

  NeuronId prev_id = 0;
  bool first = true;
  for (const SnapshotNeuron& e : img.neurons) {
    if (e.id >= n)
      throw SnapshotError("neuron", "neuron id " + std::to_string(e.id) +
                                        " out of range (n=" +
                                        std::to_string(n) + ")");
    if (!first && e.id <= prev_id)
      throw SnapshotError("neuron", "neuron entries not sorted by id");
    prev_id = e.id;
    first = false;
    if (e.last_update < 0)
      throw SnapshotError("neuron", "negative last_update for neuron " +
                                        std::to_string(e.id));
    if (e.first_spike != kNever &&
        (e.first_spike < 0 || e.first_spike > kNever))
      throw SnapshotError("neuron", "first_spike out of range for neuron " +
                                        std::to_string(e.id));
    if (e.cause != kNoNeuron && e.cause >= n)
      throw SnapshotError("neuron", "cause id " + std::to_string(e.cause) +
                                        " out of range for neuron " +
                                        std::to_string(e.id));
  }

  Time prev_t = -1;
  for (const SnapshotBucket& b : img.queue) {
    if (b.time < 0 || b.time > kNever)
      throw SnapshotError("queue",
                          "bucket time " + std::to_string(b.time) +
                              " outside [0, kNever]");
    if (b.time <= prev_t)
      throw SnapshotError("queue", "bucket times not strictly ascending");
    prev_t = b.time;
    if (b.time < img.resume_floor)
      throw SnapshotError("queue",
                          "bucket at t=" + std::to_string(b.time) +
                              " below the resume floor " +
                              std::to_string(img.resume_floor));
    for (const NeuronId id : b.forced) {
      if (id >= n)
        throw SnapshotError("queue", "forced spike id " + std::to_string(id) +
                                         " out of range");
    }
    for (const SnapshotDelivery& d : b.deliveries) {
      if (d.target >= n)
        throw SnapshotError("queue", "delivery target " +
                                         std::to_string(d.target) +
                                         " out of range");
      if (d.source != kNoNeuron && d.source >= n)
        throw SnapshotError("queue", "delivery source " +
                                         std::to_string(d.source) +
                                         " out of range");
    }
  }

  prev_t = std::numeric_limits<Time>::min();
  for (const auto& [t, id] : img.log) {
    if (id >= n)
      throw SnapshotError("log",
                          "spike-log id " + std::to_string(id) +
                              " out of range (n=" + std::to_string(n) + ")");
    if (t < 0 || t > kNever)
      throw SnapshotError("log", "spike-log time " + std::to_string(t) +
                                     " outside [0, kNever]");
  }
}

std::vector<std::uint8_t> SpikeJournal::serialize() const {
  Writer w;
  w.u32(kJournalMagic);
  w.u16(kJournalVersion);
  w.u16(0);  // reserved
  w.u64(entries_.size());
  for (const auto& [id, t] : entries_) {
    w.u32(id);
    w.i64(t);
  }
  return w.finish();
}

SpikeJournal SpikeJournal::deserialize(const std::uint8_t* data,
                                       std::size_t size) {
  if (size < 20) {
    throw SnapshotError("journal", "stream too short (" +
                                       std::to_string(size) + " bytes)");
  }
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(data[size - 4]) |
      (static_cast<std::uint32_t>(data[size - 3]) << 8) |
      (static_cast<std::uint32_t>(data[size - 2]) << 16) |
      (static_cast<std::uint32_t>(data[size - 1]) << 24);
  Reader r(data, size - 4, "journal");
  const std::uint32_t magic = r.u32();
  if (magic != kJournalMagic) {
    throw SnapshotError("journal", "bad magic (not an SGAJ journal stream)");
  }
  const std::uint16_t version = r.u16();
  if (version != kJournalVersion) {
    throw SnapshotError("journal",
                        "unsupported journal version " +
                            std::to_string(version) + " (reader supports " +
                            std::to_string(kJournalVersion) + ")");
  }
  if (snapshot_crc32(data, size - 4) != stored_crc) {
    throw SnapshotError("journal", "CRC-32 mismatch (corrupt stream)");
  }
  r.u16();  // reserved
  const std::uint64_t count = r.count(12);
  SpikeJournal j;
  j.entries_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const NeuronId id = r.u32();
    const Time t = r.i64();
    j.entries_.emplace_back(id, t);
  }
  if (!r.done()) {
    throw SnapshotError("journal", "trailing bytes after last entry");
  }
  return j;
}

}  // namespace sga::snn
