// The benchmark's host-speed yardstick and the round statistics built on
// it.
//
// The host this benchmark was written on is shared: the same code runs up
// to 2x slower for minutes at a time when other tenants are busy. Raw
// times therefore say as much about the neighbours as about the program.
// Every timed phase interleaves the program's queries with a fixed
// conventional computation owned by the benchmark (a textbook Dijkstra on a
// copy of the workload's graph), and the gated timing metrics are the
// program's time in units of that reference time, measured round by round.
// The reference lives here, not under src/, so no change to the program
// moves it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "graph/graph.h"

namespace perfbench {

/// Binary-heap Dijkstra with lazy deletion over a private CSR copy of a
/// graph. Its buffers are allocated once, so a call does the same work
/// every time for a given source.
class ReferenceSssp {
 public:
  explicit ReferenceSssp(const sga::Graph& g);

  /// Runs Dijkstra from `source` and returns how long it took, in ms.
  double time_ms(sga::VertexId source);
  /// Sum over all calls of the reached distances; keeps the work
  /// observable.
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::vector<std::uint32_t> offsets_, targets_;
  std::vector<sga::Weight> lengths_, dist_;
  std::vector<std::pair<sga::Weight, sga::VertexId>> heap_;
  std::uint64_t checksum_ = 0;
};

/// Timed-phase statistics over fixed-work rounds. A round is a block of
/// queries whose work is the same in every round (one query per source, or
/// a whole period of the request stream); each query is paired with the
/// reference time measured next to it.
class RoundStats {
 public:
  /// One query of the current round: its latency and its reference time.
  void add(double latency_ms, double reference_ms);
  /// Closes the current round.
  void end_round();

  // The ratios report the lower quartile over rounds: the host's bursts
  // slow the program more than the reference, so they only ever raise a
  // round's ratio, and on serve_mix they touched up to half the rounds of a
  // run (README.md, "Noise and bounds"). A cost the program pays in every
  // round moves the lower quartile in full.
  std::size_t rounds() const { return cost_.size(); }
  /// Lower quartile over rounds of (sum of latencies / sum of reference
  /// times).
  double rel_query_cost() const;
  /// Lower quartile over rounds of the round's nearest-rank p-th
  /// percentile of latency / (the round's mean reference time per query).
  /// p is 50 or 90.
  double rel_latency(int p) const;
  /// Median over rounds of the round's summed latency, in ms (raw).
  double round_ms() const;

 private:
  std::vector<double> latency_;
  double reference_ms_ = 0;
  std::vector<double> cost_, p50_, p90_, round_ms_;
};

}  // namespace perfbench
