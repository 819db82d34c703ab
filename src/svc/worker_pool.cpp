#include "svc/worker_pool.h"

#include <algorithm>

#include "core/error.h"

namespace sga::svc {

WorkerSlots::WorkerSlots(std::size_t capacity) : capacity_(capacity) {
  SGA_REQUIRE(capacity >= 1, "WorkerSlots: capacity must be >= 1");
  slots_.reserve(capacity);
}

snn::Simulator& WorkerSlots::acquire(NetworkCache::ArtifactPtr artifact) {
  SGA_REQUIRE(artifact != nullptr, "WorkerSlots::acquire: null artifact");
  ++tick_;
  for (Slot& s : slots_) {
    if (s.artifact == artifact) {
      s.last_used = tick_;
      // Same artifact ⇒ same frozen network: rewind instead of rebuilding.
      // Detach the probe BEFORE the next request decides whether it wants
      // one — a stale attached probe would silently record into the pool.
      s.sim->detach_probe();
      s.sim->reset();
      current_ = &s;
      last_reused_ = true;
      return *s.sim;
    }
  }
  last_reused_ = false;
  Slot* slot = nullptr;
  if (slots_.size() < capacity_) {
    slot = &slots_.emplace_back();
  } else {
    // Evict the least-recently-used slot: its simulator, probe, and
    // artifact reference all go; the artifact itself survives while the
    // NetworkCache (or another worker) still holds it.
    slot = &*std::min_element(slots_.begin(), slots_.end(),
                              [](const Slot& a, const Slot& b) {
                                return a.last_used < b.last_used;
                              });
    slot->sim.reset();
    slot->probe.reset();
  }
  slot->artifact = std::move(artifact);
  slot->sim.emplace(slot->artifact->net());
  slot->last_used = tick_;
  current_ = slot;
  return *slot->sim;
}

obs::Probe& WorkerSlots::attach_probe(const obs::ProbeOptions& opt) {
  SGA_CHECK(current_ != nullptr,
            "WorkerSlots::attach_probe before any acquire()");
  Slot& s = *current_;
  if (s.probe != nullptr && s.probe->options() == opt) {
    // Reuse-lifecycle fix: Probe accumulates across Simulator::reset() by
    // design, so a pooled probe MUST be emptied per request — otherwise a
    // back-to-back request would read the previous request's spikes folded
    // into its own counts.
    s.probe->clear();
  } else {
    s.probe = std::make_unique<obs::Probe>(opt);
  }
  s.sim->attach_probe(*s.probe);
  return *s.probe;
}

}  // namespace sga::svc
