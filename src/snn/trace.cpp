#include "snn/trace.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <utility>

#include "core/error.h"

namespace sga::snn {

void write_spike_raster(std::ostream& os, const Simulator& sim,
                        const std::vector<NeuronId>& ids, Time t0, Time t1,
                        const std::vector<std::string>& labels) {
  SGA_REQUIRE(t0 <= t1, "write_spike_raster: empty window");
  SGA_REQUIRE(labels.empty() || labels.size() == ids.size(),
              "write_spike_raster: label count mismatch");

  // Collect the spikes of interest into per-neuron time sets.
  std::vector<std::set<Time>> times(ids.size());
  for (const auto& [t, id] : sim.spike_log()) {
    if (t < t0 || t > t1) continue;
    for (std::size_t row = 0; row < ids.size(); ++row) {
      if (ids[row] == id) times[row].insert(t);
    }
  }

  // Each row's label, built once ("n<id>" when none were given).
  std::vector<std::string> row_labels(labels);
  if (labels.empty()) {
    for (const NeuronId id : ids) {
      std::string label = "n";
      label += std::to_string(id);
      row_labels.push_back(std::move(label));
    }
  }
  std::size_t label_width = 0;
  for (const std::string& label : row_labels) {
    label_width = std::max(label_width, label.size());
  }

  os << std::string(label_width, ' ') << " t=" << t0 << '\n';
  for (std::size_t row = 0; row < ids.size(); ++row) {
    const std::string& label = row_labels[row];
    os << label << std::string(label_width - label.size(), ' ') << ' ';
    for (Time t = t0; t <= t1; ++t) {
      os << (times[row].count(t) ? '|' : '.');
    }
    os << '\n';
  }
}

void write_spike_csv(std::ostream& os, const Simulator& sim) {
  os << "time,neuron\n";
  for (const auto& [t, id] : sim.spike_log()) {
    os << t << ',' << id << '\n';
  }
}

}  // namespace sga::snn
