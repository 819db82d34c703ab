// Per-worker simulator slots: the serve-many half of the service's
// compile-once, serve-many contract (docs/SERVICE.md).
//
// A Simulator's construction cost is O(neurons) state vectors; its reset()
// rewinds in O(events processed). A service worker therefore keeps one
// simulator PER ARTIFACT it has recently served (a small LRU of slots) and
// epoch-resets it between requests, so a stream of requests against the
// same artifact costs only its own event traffic — the sssp_batch reuse
// idiom generalized from one network to a working set of them.
//
// Reuse-lifecycle contracts enforced here (the bugfix sweep of this layer):
//   * Borrow safety — each slot holds a shared_ptr to its artifact, so a
//     simulator can never outlive the network it borrows even after the
//     NetworkCache evicts the artifact mid-service.
//   * Probe hygiene — obs::Probe ACCUMULATES across Simulator::reset() by
//     design (reset rewinds the simulation, not the observer). A pooled
//     probe reused across requests must be clear()ed per request, and is
//     only reused at all when the request asks for the exact same
//     ProbeOptions; otherwise the slot's probe is rebuilt.
//   * Bounded footprint — slots are LRU-bounded, and the simulators they
//     hold trim their bucket pools to recent peak demand on reset(), so a
//     worker that once served a huge request does not retain its peak
//     memory forever.
//
// WorkerSlots is single-threaded by design: each service worker owns one
// instance; cross-worker state lives in NetworkCache and QueryService.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "obs/probe.h"
#include "svc/cache.h"

namespace sga::svc {

class WorkerSlots {
 public:
  /// `capacity` ≥ 1: simulators kept per worker.
  explicit WorkerSlots(std::size_t capacity = 4);

  /// A simulator over `artifact->net()`, ready to serve (freshly built or
  /// epoch-reset, no probe attached). The returned reference is valid until
  /// the next acquire() on this WorkerSlots.
  snn::Simulator& acquire(NetworkCache::ArtifactPtr artifact);

  /// A probe for the CURRENT slot (the last acquire()d one), configured
  /// with `opt` and guaranteed EMPTY, attached to the slot's simulator.
  /// Reuses the slot's pooled probe when the options match (clear()ed);
  /// rebuilds it otherwise.
  obs::Probe& attach_probe(const obs::ProbeOptions& opt);

  /// Slots currently resident (≤ capacity). Test hook.
  std::size_t resident() const { return slots_.size(); }
  /// Whether the last acquire() reused a pooled simulator (reset path)
  /// rather than constructing one. Test hook.
  bool last_acquire_reused() const { return last_reused_; }

 private:
  struct Slot {
    NetworkCache::ArtifactPtr artifact;  ///< keeps the borrowed net alive
    std::optional<snn::Simulator> sim;
    std::unique_ptr<obs::Probe> probe;  ///< pooled; cleared per request
    std::uint64_t last_used = 0;
  };

  const std::size_t capacity_;
  std::vector<Slot> slots_;
  Slot* current_ = nullptr;
  std::uint64_t tick_ = 0;
  bool last_reused_ = false;
};

}  // namespace sga::svc
