// SNN serialization: a stable, human-readable text format for compiled
// networks (neurons, synapses, named groups), so networks built by the
// algorithm compilers can be exported to hardware toolchains or re-loaded
// without re-compiling the graph.
//
// Format (whitespace-separated, '#' comments):
//   snn 2                      header + version
//   storage <narrow|wide> target <u16|u32> delay <u8|u16|i64> weight <f32|f64>
//   neurons N
//   n <reset> <threshold> <tau>          × N, in id order
//   synapses M
//   s <from> <to> <weight> <delay>       × M
//   groups G
//   g <name> <k> <id...>                 × G
//
// The storage line (new in version 2) records the frozen widths of the
// source network (ARCHITECTURE.md §1.8). Readers use it two ways: the
// declared target width bounds the plausible neuron/synapse counts of an
// untrusted file (a "target u16" file claiming 10^6 neurons is rejected as
// a CountLimitError before any parse loop runs), and read_compiled_network
// re-freezes under the declared policy, so a wide artifact stays wide.
// Version-1 files (no storage line) remain readable under the legacy 2^30
// count ceiling and freeze under the default kAuto policy.
//
// Version 3 is read-only: the retired packed encoding (ARCHITECTURE.md
// §1.11) wrote it with the target column as encoded, and files written
// then stay readable:
//   snn 3
//   storage packed target u32 delay <u8|u16> weight <f32|f64>
//   neurons N  /  n <reset> <threshold> <tau>  × N
//   synapses M
//   segments S
//   rows  /  r <degree> <segment-count>        × N
//   t <delay> <syn-begin>                      × S   (delay runs, flat order)
//   blocks B  /  b <base> <bits>               × B   (B = ceil(M / 64))
//   words W  /  <u32>                          × W   (packed delta words)
//   weights  /  <weight>                       × M
//   groups G  /  g <name> <k> <id...>          × G
// The reader checks the block tables before it decodes anything (bit
// widths <= 32, exact per-block word sums, a begin column that rises from 0
// and tiles the rows, every decoded target < N), decodes the targets in a
// plain loop into the builder, and read_compiled_network freezes the
// result under kAuto and re-runs verify_invariants like it does for every
// other version. The writer emits version 2 only.
#pragma once

#include <iosfwd>
#include <string>

#include "core/error.h"
#include "snn/compiled_network.h"
#include "snn/network.h"

namespace sga::snn {

/// Thrown when a count field of a serialized network exceeds the ceiling
/// implied by its declared storage widths (version 2) or the legacy
/// plausibility ceiling (version 1). A subtype of InvalidArgument, so
/// callers that already reject malformed files keep working; carries the
/// offending field, the parsed value, and the ceiling it broke for callers
/// that want to report or log the specific count.
class CountLimitError : public InvalidArgument {
 public:
  CountLimitError(const std::string& field, long long value, long long limit);
  const std::string& field() const { return field_; }
  long long value() const { return value_; }
  long long limit() const { return limit_; }

 private:
  std::string field_;
  long long value_;
  long long limit_;
};

/// Serialize a frozen network. The compiled form is the canonical source:
/// it has already passed the freeze validator, so what is written is a
/// checked network, in CSR (source-id) order.
void write_network(std::ostream& os, const CompiledNetwork& net);

/// Convenience: freeze (validating) and write in one step.
void write_network(std::ostream& os, const Network& net);

/// Parse the write_network format into a mutable builder (callers may wire
/// further structure before freezing). Throws InvalidArgument on malformed
/// or version-mismatched input — neuron parameters, synapse endpoints,
/// delays, and group members are validated as they are added, so a bad or
/// truncated file never yields a half-built network.
Network read_network(std::istream& is);

/// Parse and freeze: the full round-trip counterpart of
/// write_network(os, compiled).
CompiledNetwork read_compiled_network(std::istream& is);

}  // namespace sga::snn
