#include "nga/maxflow.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "core/error.h"
#include "nga/path_readout.h"
#include "nga/sssp_event.h"

namespace sga::nga {

namespace {

/// Residual-graph representation: paired forward/backward arcs.
struct Arc {
  VertexId to;
  std::int64_t residual;
  std::size_t rev;            // index of the reverse arc in arcs[to]
  EdgeId original = kNoEdge;  // input edge this forward arc represents
};

struct ResidualGraph {
  std::vector<std::vector<Arc>> arcs;

  explicit ResidualGraph(std::size_t n) : arcs(n) {}

  void add(VertexId u, VertexId v, std::int64_t cap, EdgeId original) {
    arcs[u].push_back(Arc{v, cap, arcs[v].size(), original});
    arcs[v].push_back(Arc{u, 0, arcs[u].size() - 1, kNoEdge});
  }

  /// Unit-length graph of arcs with positive residual, plus a map from its
  /// edges back to (vertex, arc index).
  Graph positive_graph(std::vector<std::pair<VertexId, std::size_t>>* index) const {
    Graph g(arcs.size());
    index->clear();
    for (VertexId u = 0; u < arcs.size(); ++u) {
      for (std::size_t i = 0; i < arcs[u].size(); ++i) {
        if (arcs[u][i].residual > 0) {
          g.add_edge(u, arcs[u][i].to, 1);
          index->emplace_back(u, i);
        }
      }
    }
    return g;
  }
};

}  // namespace

MaxFlowResult spiking_max_flow(const Graph& g, const MaxFlowOptions& opt) {
  const std::size_t n = g.num_vertices();
  SGA_REQUIRE(opt.source < n && opt.sink < n, "spiking_max_flow: bad endpoints");
  SGA_REQUIRE(opt.source != opt.sink, "spiking_max_flow: source == sink");

  ResidualGraph res(n);
  for (EdgeId eid = 0; eid < g.num_edges(); ++eid) {
    const Edge& e = g.edge(eid);
    res.add(e.from, e.to, e.length, eid);
  }

  MaxFlowResult out;
  out.flow.assign(g.num_edges(), 0);

  while (true) {
    // Spiking BFS over the residual graph (unit delays ⇒ first-spike time =
    // hop distance; Edmonds–Karp needs exactly the fewest-hop path).
    std::vector<std::pair<VertexId, std::size_t>> arc_of_edge;
    const Graph residual = res.positive_graph(&arc_of_edge);
    if (residual.num_edges() == 0) break;

    std::vector<VertexId> parent(n, kNoVertex);
    bool reached = false;
    if (opt.gate_level_paths) {
      SpikingSsspPathOptions popt;
      popt.source = opt.source;
      popt.max_time = static_cast<Time>(n) + 2;
      popt.build_id_latches = false;
      const auto run = spiking_sssp_with_paths(residual, popt);
      out.total_spikes += run.sim.spikes;
      out.total_snn_steps += run.execution_time;
      reached = run.reachable(opt.sink);
      parent = run.parent;
    } else {
      SpikingSsspOptions sopt;
      sopt.source = opt.source;
      sopt.target = opt.sink;
      sopt.record_parents = true;
      const auto run = spiking_sssp(residual, sopt);
      out.total_spikes += run.sim.spikes;
      out.total_snn_steps += run.execution_time;
      reached = run.reachable(opt.sink);
      parent = run.parent;
    }
    if (!reached) break;

    // Extract the vertex path, then pick a positive-residual arc per hop.
    std::vector<VertexId> path{opt.sink};
    while (path.back() != opt.source) {
      const VertexId p = parent[path.back()];
      SGA_CHECK(p != kNoVertex, "broken parent chain in residual BFS");
      path.push_back(p);
      SGA_CHECK(path.size() <= n + 1, "parent cycle in residual BFS");
    }
    std::reverse(path.begin(), path.end());

    std::vector<std::pair<VertexId, std::size_t>> hops;
    std::int64_t bottleneck = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const VertexId u = path[i];
      std::size_t pick = res.arcs[u].size();
      for (std::size_t a = 0; a < res.arcs[u].size(); ++a) {
        if (res.arcs[u][a].to == path[i + 1] && res.arcs[u][a].residual > 0) {
          if (pick == res.arcs[u].size() ||
              res.arcs[u][a].residual > res.arcs[u][pick].residual) {
            pick = a;
          }
        }
      }
      SGA_CHECK(pick < res.arcs[u].size(), "no residual arc along BFS path");
      hops.emplace_back(u, pick);
      bottleneck = std::min(bottleneck, res.arcs[u][pick].residual);
    }
    SGA_CHECK(bottleneck > 0, "zero bottleneck");

    for (const auto& [u, a] : hops) {
      Arc& fwd = res.arcs[u][a];
      fwd.residual -= bottleneck;
      res.arcs[fwd.to][fwd.rev].residual += bottleneck;
      if (fwd.original != kNoEdge) {
        out.flow[fwd.original] += bottleneck;
      } else {
        // Pushing back over a reverse arc cancels flow on its original.
        const Arc& orig = res.arcs[fwd.to][fwd.rev];
        SGA_CHECK(orig.original != kNoEdge, "reverse of reverse arc");
        out.flow[orig.original] -= bottleneck;
      }
    }
    out.value += bottleneck;
    ++out.phases;
  }
  return out;
}

std::int64_t reference_max_flow(const Graph& g, VertexId source, VertexId sink) {
  const std::size_t n = g.num_vertices();
  SGA_REQUIRE(source < n && sink < n && source != sink,
              "reference_max_flow: bad endpoints");
  ResidualGraph res(n);
  for (EdgeId eid = 0; eid < g.num_edges(); ++eid) {
    const Edge& e = g.edge(eid);
    res.add(e.from, e.to, e.length, eid);
  }

  std::int64_t total = 0;
  while (true) {
    // Plain BFS on positive-residual arcs.
    std::vector<std::pair<VertexId, std::size_t>> how(n, {kNoVertex, 0});
    std::vector<char> seen(n, 0);
    std::deque<VertexId> q{source};
    seen[source] = 1;
    while (!q.empty() && !seen[sink]) {
      const VertexId u = q.front();
      q.pop_front();
      for (std::size_t a = 0; a < res.arcs[u].size(); ++a) {
        const Arc& arc = res.arcs[u][a];
        if (arc.residual > 0 && !seen[arc.to]) {
          seen[arc.to] = 1;
          how[arc.to] = {u, a};
          q.push_back(arc.to);
        }
      }
    }
    if (!seen[sink]) break;

    std::int64_t bottleneck = std::numeric_limits<std::int64_t>::max();
    for (VertexId v = sink; v != source; v = how[v].first) {
      bottleneck = std::min(bottleneck,
                            res.arcs[how[v].first][how[v].second].residual);
    }
    for (VertexId v = sink; v != source; v = how[v].first) {
      Arc& fwd = res.arcs[how[v].first][how[v].second];
      fwd.residual -= bottleneck;
      res.arcs[fwd.to][fwd.rev].residual += bottleneck;
    }
    total += bottleneck;
  }
  return total;
}

}  // namespace sga::nga
