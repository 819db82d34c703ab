// Versioned binary snapshot/restore + deterministic replay journal
// (docs/PERSISTENCE.md; ARCHITECTURE.md §1.9).
//
// A service that runs for days needs more than reset(): this module defines
// the ENGINE-AGNOSTIC image of a simulation in flight — membrane potentials,
// every pending delivery bucket, the spike log, the run configuration and
// cumulative counters — and a byte-exact serialization of it (magic +
// version + flags, framed sections, trailing CRC-32). Both snn::Simulator
// and snn::ParallelSimulator produce and consume the same image with GLOBAL
// neuron ids, so a snapshot taken from one engine (or shard count)
// restores into any other: fault tolerance and shard migration both reduce
// to snapshot() + restore().
//
// Determinism contract: restore-from-snapshot + resume is event-for-event
// identical to the uninterrupted run (tests/test_snapshot.cpp proves it
// across ring- and spill-resident pending events, narrow+wide storage, and
// the sharded engine). Combined with the SpikeJournal — an append-only record
// of every injected spike — any run replays exactly from (snapshot,
// journal tail): the snapshot pins all state up to its resume floor, the
// journal replays the inputs that arrived after it.
//
// Failure model: restore() is ALL-OR-NOTHING. The byte stream is parsed and
// validated in full (structure by parse_snapshot(), semantics against the
// live network by validate_snapshot_for()) before a single field of
// simulator state is touched; any violation throws SnapshotError naming the
// failing section and leaves the simulator exactly as it was.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/types.h"
#include "snn/simulator.h"  // SimStats
#include "snn/storage.h"    // StorageWidths

namespace sga::snn {

class CompiledNetwork;

// ---- On-disk constants (the single source of truth docs/PERSISTENCE.md
// declares and tests/test_snapshot.cpp pins) ------------------------------

/// Snapshot stream magic: bytes "SGAS" little-endian.
inline constexpr std::uint32_t kSnapshotMagic = 0x53414753u;
/// Snapshot format version. Bump on ANY layout change; readers reject
/// versions they do not know (no silent best-effort parsing).
inline constexpr std::uint16_t kSnapshotVersion = 1;
/// Journal stream magic: bytes "SGAJ" little-endian.
inline constexpr std::uint32_t kJournalMagic = 0x4a414753u;
inline constexpr std::uint16_t kJournalVersion = 1;

/// Section ids, in their required stream order (docs/PERSISTENCE.md).
inline constexpr std::uint16_t kSecFingerprint = 1;
inline constexpr std::uint16_t kSecConfig = 2;
inline constexpr std::uint16_t kSecNeuron = 3;
inline constexpr std::uint16_t kSecQueue = 4;
inline constexpr std::uint16_t kSecLog = 5;
inline constexpr std::uint16_t kSecStats = 6;

/// Header flag bits (docs/PERSISTENCE.md §header).
inline constexpr std::uint16_t kFlagMidRun = 1u << 0;
inline constexpr std::uint16_t kFlagRecordCauses = 1u << 1;
inline constexpr std::uint16_t kFlagRecordLog = 1u << 2;
inline constexpr std::uint16_t kFlagWatchAll = 1u << 3;
inline constexpr std::uint16_t kFlagTerminalFired = 1u << 4;

/// Thrown on any malformed, corrupt, or incompatible snapshot/journal
/// stream. `section()` names the part of the format that failed ("header",
/// "crc", "fingerprint", "config", "neuron", "queue", "log", "stats",
/// "journal") and `typed_section()` carries the same tag as an enum — so
/// callers can dispatch on e.g. SnapshotError::kFingerprint (a narrow
/// snapshot refusing to restore into a wide-frozen network) without
/// string-matching. The all-or-nothing restore contract guarantees the
/// target simulator is untouched when this escapes.
class SnapshotError : public Error {
 public:
  /// Section tags, in stream order (kJournal is the SpikeJournal's own
  /// stream). Unscoped on purpose: SnapshotError::kFingerprint reads as
  /// the error class it tags.
  enum Section : std::uint8_t {
    kHeader,
    kCrc,
    kFingerprint,
    kConfig,
    kNeuron,
    kQueue,
    kLog,
    kStats,
    kJournal,
  };

  static const char* section_name(Section s) {
    switch (s) {
      case kHeader: return "header";
      case kCrc: return "crc";
      case kFingerprint: return "fingerprint";
      case kConfig: return "config";
      case kNeuron: return "neuron";
      case kQueue: return "queue";
      case kLog: return "log";
      case kStats: return "stats";
      case kJournal: return "journal";
    }
    return "header";
  }

  SnapshotError(Section section, const std::string& what)
      : Error(std::string("snapshot [") + section_name(section) +
              "]: " + what),
        section_(section_name(section)),
        typed_(section) {}

  /// Legacy string spelling; known names map back onto the typed tag.
  SnapshotError(std::string section, const std::string& what)
      : Error("snapshot [" + section + "]: " + what),
        section_(std::move(section)),
        typed_(parse_section(section_)) {}

  const std::string& section() const { return section_; }
  Section typed_section() const { return typed_; }

 private:
  static Section parse_section(const std::string& name) {
    for (const Section s : {kHeader, kCrc, kFingerprint, kConfig, kNeuron,
                            kQueue, kLog, kStats, kJournal}) {
      if (name == section_name(s)) return s;
    }
    return kHeader;
  }

  std::string section_;
  Section typed_;
};

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `size` bytes — the
/// integrity check trailing every snapshot/journal stream. Exposed so tests
/// can re-stamp deliberately corrupted streams.
std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size);

// ---- The in-memory image -------------------------------------------------

/// Per-neuron dynamic state, recorded SPARSELY: only neurons that diverged
/// from the just-constructed baseline (the engines' epoch-dirty lists)
/// appear, sorted by id.
struct SnapshotNeuron {
  NeuronId id = 0;
  Voltage v = 0;
  Time last_update = 0;
  Time first_spike = kNever;
  Time last_spike = kNever;
  std::uint32_t spike_count = 0;
  NeuronId cause = kNoNeuron;  ///< first-spike cause (record_causes runs)
};

/// One pending synaptic delivery. `source` is kNoNeuron unless the run
/// records causes (the engines' buckets carry sources only then).
struct SnapshotDelivery {
  NeuronId target = 0;
  SynWeight weight = 0;
  NeuronId source = kNoNeuron;
};

/// All pending work at one future time step: injected (forced) spikes plus
/// synaptic deliveries, in the exact order the source engine would drain
/// them (delivery order is observable through FP summation and log order).
struct SnapshotBucket {
  Time time = 0;
  std::vector<NeuronId> forced;
  std::vector<SnapshotDelivery> deliveries;
};

/// The complete engine-agnostic simulation state. Global neuron ids
/// everywhere; nothing in here depends on the queue's ring geometry, storage
/// width, or shard count — which is what makes cross-engine restore work.
struct SnapshotImage {
  // -- network fingerprint: the frozen CompiledNetwork this state belongs
  //    to. restore() refuses a mismatch (wrong network, or same network
  //    frozen at different storage widths, so a narrow-network snapshot
  //    cannot silently restore into a wide re-freeze).
  std::uint64_t num_neurons = 0;
  std::uint64_t num_synapses = 0;
  Delay max_delay = 0;
  StorageWidths widths;

  // -- run mode ----------------------------------------------------------
  bool mid_run = false;  ///< taken after run() started (paused or finished)
  bool record_causes = false;
  bool record_log = false;
  bool watch_all = false;
  bool terminal_fired = false;
  Time max_time = kNever;
  /// Resume floor: every time step strictly below it has been processed;
  /// every pending bucket lies at or above it. Post-restore injections must
  /// respect it.
  Time resume_floor = 0;
  std::uint64_t terminals_remaining = 0;
  std::vector<NeuronId> terminals;  ///< registered terminal neurons, sorted
  std::vector<NeuronId> watched;    ///< registered watched neurons, sorted

  // -- dynamic state -----------------------------------------------------
  std::vector<SnapshotNeuron> neurons;  ///< sparse, sorted by id
  std::vector<SnapshotBucket> queue;    ///< ascending time
  std::vector<std::pair<Time, NeuronId>> log;  ///< spike log, verbatim
  SimStats stats;  ///< cumulative counters (stats.paused marks a paused run)
};

/// Serialize `image` into the versioned byte stream (docs/PERSISTENCE.md).
/// Pure function of the image: identical images produce identical bytes.
/// Performs NO semantic validation — restore() validates on the way in, so
/// tests can serialize deliberately inconsistent images.
std::vector<std::uint8_t> serialize_snapshot(const SnapshotImage& image);

/// Parse and STRUCTURALLY validate a snapshot stream: magic, version, CRC,
/// section framing, bounds of every length field. Throws SnapshotError on
/// the first violation. Semantic validation against a live network is
/// validate_snapshot_for()'s job.
SnapshotImage parse_snapshot(const std::uint8_t* data, std::size_t size);
inline SnapshotImage parse_snapshot(const std::vector<std::uint8_t>& bytes) {
  return parse_snapshot(bytes.data(), bytes.size());
}

/// Semantic validation of a parsed image against the network a restore
/// would run on: fingerprint match, every id in range, times ordered and
/// inside [0, kNever], neurons/queue sorted. Throws SnapshotError naming
/// the failing section; touches no simulator state (the engines call this
/// BEFORE mutating anything — the all-or-nothing half of restore()).
void validate_snapshot_for(const SnapshotImage& image,
                           const CompiledNetwork& net);

// ---- Deterministic injected-spike journal --------------------------------

/// Append-only record of every inject_spike() a driver issued, with its own
/// versioned+CRC'd serialization. Replaying a journal into a fresh
/// simulator reproduces the original inputs exactly; replaying the TAIL
/// (entries recorded after a snapshot was taken) into a restored simulator
/// reproduces a run that received inputs mid-flight. The journal stores
/// entries in record order — replay preserves it, so duplicate/same-step
/// injections collapse exactly as they did originally.
class SpikeJournal {
 public:
  void record(NeuronId id, Time t) { entries_.emplace_back(id, t); }

  const std::vector<std::pair<NeuronId, Time>>& entries() const {
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Inject entries [from_entry, size()) into `sim` (any type with
  /// inject_spike(NeuronId, Time)). Pass the journal size at snapshot time
  /// as `from_entry` to replay only the tail the snapshot has not seen.
  template <typename Sim>
  void replay_into(Sim& sim, std::size_t from_entry = 0) const {
    for (std::size_t i = from_entry; i < entries_.size(); ++i) {
      sim.inject_spike(entries_[i].first, entries_[i].second);
    }
  }

  /// Versioned bytes: magic "SGAJ" + version + count + entries + CRC-32.
  std::vector<std::uint8_t> serialize() const;
  /// Throws SnapshotError("journal", ...) on any malformed stream.
  static SpikeJournal deserialize(const std::uint8_t* data, std::size_t size);
  static SpikeJournal deserialize(const std::vector<std::uint8_t>& bytes) {
    return deserialize(bytes.data(), bytes.size());
  }

 private:
  std::vector<std::pair<NeuronId, Time>> entries_;
};

}  // namespace sga::snn
