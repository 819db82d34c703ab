#include "reference.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common.h"
#include "core/stats.h"

namespace perfbench {

ReferenceSssp::ReferenceSssp(const sga::Graph& g)
    : offsets_(g.num_vertices() + 1, 0),
      dist_(g.num_vertices(), sga::kInfiniteDistance) {
  for (sga::VertexId u = 0; u < g.num_vertices(); ++u) {
    offsets_[u + 1] = offsets_[u] + static_cast<std::uint32_t>(g.out_degree(u));
    for (const sga::EdgeId e : g.out_edges(u)) {
      targets_.push_back(g.edge(e).to);
      lengths_.push_back(g.edge(e).length);
    }
  }
  heap_.reserve(targets_.size() + 1);
}

double ReferenceSssp::time_ms(sga::VertexId source) {
  using Entry = std::pair<sga::Weight, sga::VertexId>;
  const Clock::time_point t0 = Clock::now();
  std::fill(dist_.begin(), dist_.end(), sga::kInfiniteDistance);
  heap_.clear();
  dist_[source] = 0;
  heap_.push_back({0, source});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d != dist_[u]) continue;
    for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const sga::Weight nd = d + lengths_[i];
      if (nd < dist_[targets_[i]]) {
        dist_[targets_[i]] = nd;
        heap_.push_back({nd, targets_[i]});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
      }
    }
  }
  std::uint64_t sum = 0;
  for (const sga::Weight d : dist_) {
    if (d != sga::kInfiniteDistance) sum += static_cast<std::uint64_t>(d);
  }
  const double ms = ms_between(t0, Clock::now());
  checksum_ += sum;
  return ms;
}

void RoundStats::add(double latency_ms, double reference_ms) {
  latency_.push_back(latency_ms);
  reference_ms_ += reference_ms;
}

void RoundStats::end_round() {
  if (latency_.empty() || !(reference_ms_ > 0)) {
    throw std::logic_error("a round needs queries and reference time");
  }
  double sum = 0;
  for (const double x : latency_) sum += x;
  const double unit = reference_ms_ / static_cast<double>(latency_.size());
  cost_.push_back(sum / reference_ms_);
  p50_.push_back(percentile(latency_, 50) / unit);
  p90_.push_back(percentile(latency_, 90) / unit);
  round_ms_.push_back(sum);
  latency_.clear();
  reference_ms_ = 0;
}

double RoundStats::rel_query_cost() const { return percentile(cost_, 25); }

double RoundStats::rel_latency(int p) const {
  return percentile(p == 90 ? p90_ : p50_, 25);
}

double RoundStats::round_ms() const { return sga::median(round_ms_); }

}  // namespace perfbench
