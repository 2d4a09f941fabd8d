// The per-process logical clock state.
//
// Paper §IV.B: "The clock matrix V_{Pi} is maintained by each process Pi ...
// Before Pi performs an event, it increments its local logical clock
// V_{Pi}[i,i]." The comparisons of Algorithms 1-3 only consume the matrix's
// own row — the process's vector clock — so that row is all a node keeps.
#pragma once

#include "clocks/vector_clock.hpp"
#include "util/types.hpp"

namespace dsmr::nic {

class NodeClock {
 public:
  NodeClock(std::size_t nprocs, Rank self) : vector_(nprocs), self_(self) {}

  Rank self() const { return self_; }
  const clocks::VectorClock& vector() const { return vector_; }

  /// update_local_clock: V[i,i] += 1 before the process performs an event.
  void tick() { vector_.tick(self_); }

  /// Absorbs knowledge carried by a message (componentwise max).
  void merge(const clocks::VectorClock& remote) { vector_.merge_from(remote); }

  /// Receive event: tick then merge — the standard vector-clock receive
  /// rule, matching the per-process clock values in the paper's Fig. 5.
  void receive_event(const clocks::VectorClock& remote) {
    tick();
    merge(remote);
  }

 private:
  clocks::VectorClock vector_;
  Rank self_;
};

}  // namespace dsmr::nic
