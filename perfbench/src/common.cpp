#include "common.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/stats.h"
#include "graph/dijkstra.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"rel_query_cost", "x"},
    {"rel_latency_p50", "x"},
    {"rel_latency_p90", "x"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"graph.generate_ms", "ms"},
    {"snn.freeze_ms", "ms"},
    {"snn.csr_bytes_per_synapse", "B"},
    {"snn.storage_encoding", "code"},
    {"partition.build_ms", "ms"},
    {"partition.cross_synapses", "count"},
    {"partition.lookahead", "steps"},
    {"sim.reset_us_p50", "us"},
    {"sim.run_ms_p50", "ms"},
    {"sim.ns_per_delivery", "ns"},
    {"sim.decode_blocks_per_query", "count"},
    {"sim.fanout_segments_per_query", "count"},
    {"sim.empty_bucket_scans_per_query", "count"},
    {"sim.overflow_spills", "count"},
    {"sim.pool_misses_after_warmup", "count"},
    {"psim.reset_us_p50", "us"},
    {"psim.run_ms_p50", "ms"},
    {"psim.windows_per_query", "count"},
    {"psim.steals", "count"},
    {"nga.readout_us_p50", "us"},
    {"nga.maxflow_phases_per_query", "count"},
    {"svc.client_ms_p50.sssp", "ms"},
    {"svc.client_ms_p50.khop", "ms"},
    {"svc.client_ms_p50.maxflow", "ms"},
    {"svc.request_ms_p50", "ms"},
    {"svc.queue_wait_ms_p90", "ms"},
    {"svc.sim_share", "ratio"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.refreezes_after_warmup", "count"},
    {"trace.overhead_pct", "%"},
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::vector<SetupTimes> time_setups_in_children(
    const std::function<SetupTimes()>& setup) {
  std::vector<SetupTimes> times;
  double spent = 0.0;
  // The caller's own setup counts at the children's mean duration.
  auto more = [&] {
    const int n = static_cast<int>(times.size()) + 1;
    const double mean = times.empty() ? 0.0 : spent / times.size();
    return n < kSetupRepeats ||
           (n < kSetupMaxRepeats && spent + mean < kSetupMinSeconds);
  };
  while (more()) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      int code = 1;
      try {
        const SetupTimes t = setup();
        code = write(fds[1], &t, sizeof t) == sizeof t ? 0 : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: setup failed: %s\n", e.what());
      }
      _exit(code);
    }
    close(fds[1]);
    SetupTimes t;
    const ssize_t got = read(fds[0], &t, sizeof t);
    close(fds[0]);
    int status = 0;
    const bool reaped = waitpid(pid, &status, 0) == pid;
    if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        got != static_cast<ssize_t>(sizeof t)) {
      throw std::runtime_error("a setup in a child process failed");
    }
    times.push_back(t);
    spent += t.total_s;
  }
  return times;
}

double median_of(const std::vector<SetupTimes>& times,
                 double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& t : times) v.push_back(t.*field);
  return sga::median(v);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Distances equal Dijkstra's; every reached non-source vertex's parent
// has an edge into it of exactly the distance difference.
bool sssp_answer_ok(const sga::Graph& g, sga::VertexId source,
                    const std::vector<sga::Weight>& dist,
                    const std::vector<sga::VertexId>& parent) {
  const sga::SsspResult ref = sga::dijkstra(g, source);
  if (dist != ref.dist || parent.size() != g.num_vertices()) return false;
  for (sga::VertexId v = 0; v < g.num_vertices(); ++v) {
    const sga::VertexId p = parent[v];
    if (v == source || dist[v] == sga::kInfiniteDistance) {
      if (p != sga::kNoVertex) return false;
      continue;
    }
    if (p >= g.num_vertices() || dist[p] == sga::kInfiniteDistance) {
      return false;
    }
    bool found = false;
    for (const sga::EdgeId e : g.in_edges(v)) {
      const sga::Edge& edge = g.edge(e);
      found = found || (edge.from == p && dist[p] + edge.length == dist[v]);
    }
    if (!found) return false;
  }
  return true;
}

void report_trace(const Tracer& tracer, const std::string& stem) {
  std::printf("%-22s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const Tracer::Row& r : tracer.self_times()) {
    std::printf("%-22s %8llu %12.3f %12.3f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.count), r.total_ms,
                r.self_ms);
  }
  if (!tracer.write_chrome(stem + ".trace.json") ||
      !tracer.write_self_times(stem + ".selftime.tsv")) {
    throw std::runtime_error("cannot write trace files at " + stem);
  }
  std::printf("trace written to %s.trace.json\n", stem.c_str());
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
