// Shared pieces of the benchmark program: run options, the metric lists,
// the result record every workload fills, order statistics, answer checks
// and hashing, and the process memory probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "graph/graph.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where a traced run writes its trace files
};

/// Every run times at least this many complete rounds (reference.h),
/// whatever --seconds says: at least 300 queries.
inline constexpr std::size_t kMinRounds = 3;

/// Independent setups per run; setup_s is their median. Cheap setups
/// repeat until kSetupMinSeconds have been spent, at most kSetupMaxRepeats.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kSetupMaxRepeats = 200;
inline constexpr double kSetupMinSeconds = 2.0;

/// Durations of one setup; a workload leaves the parts it lacks at 0.
struct SetupTimes {
  double total_s = 0;
  double generate_ms = 0, freeze_ms = 0, partition_ms = 0;
};

/// Times extra setups, each in a child process forked from this one: every
/// child starts from the caller's state, as a fresh process would, sends
/// back the times `setup` returns and exits. Runs kSetupRepeats - 1
/// children, and more until kSetupMinSeconds of setup time (counting one
/// more setup for the caller's own) or kSetupMaxRepeats - 1 children. The
/// caller's memory never holds more than its own setup, so peak_rss_mb is
/// that of one setup. Must be called while this process has one thread.
std::vector<SetupTimes> time_setups_in_children(
    const std::function<SetupTimes()>& setup);

/// Median of one field over the setups.
double median_of(const std::vector<SetupTimes>& times,
                 double SetupTimes::*field);

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Reported by an untraced run (--trace 0), in this order.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Reported by a traced run (--trace 1), in this order. A workload whose
/// path does not cross a layer (or where the layer runs inside the
/// service, out of the benchmark's sight) reports 0 for it.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// What a workload hands back to main(): the correctness verdict, the
/// query counts and the metric values for the requested mode.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + rejected + wrong answers
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
};

RunResult run_sssp(const Options& opt, bool sharded);
RunResult run_serve_mix(const Options& opt);

/// Nearest-rank percentile (p in (0, 100]) of unsorted samples; 0 when
/// empty.
double percentile(std::vector<double> v, double p);

/// Order-sensitive 64-bit hash of a vector's elements (FNV-1a over the
/// element bytes, then a final avalanche).
template <typename T>
std::uint64_t hash_values(std::span<const T> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size_bytes(); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}
template <typename T>
std::uint64_t hash_values(const std::vector<T>& v) {
  return hash_values(std::span<const T>(v));
}

/// Derive an independent stream seed from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// SSSP answer check: distances equal Dijkstra's, and every reached
/// non-source vertex's parent has an edge into it of exactly the distance
/// difference.
bool sssp_answer_ok(const sga::Graph& g, sga::VertexId source,
                    const std::vector<sga::Weight>& dist,
                    const std::vector<sga::VertexId>& parent);

/// Print the traced run's self-time table and write its Chrome trace and
/// table next to `stem` (stem.trace.json, stem.selftime.tsv).
void report_trace(const Tracer& tracer, const std::string& stem);

/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace perfbench
