// The happens-before rules of Algorithms 1-2, stated once. The sim NIC +
// runtime::Process, runtime::ThreadWorld and the replay fold
// (record::replay_fold, which explore drives) all apply them through this
// header and keep only their scheduling and transport.
//
// The one real difference between the executors is an explicit parameter,
// Placement: where an access's stored clock comes from.
//
//   kHome       (sim) The access is a receive event at the home NIC: the
//               home clock ticks and merges the issue clock, and that clock
//               is stored and is the completion payload. Every access folds
//               into the shared home clock, so two accesses to different
//               areas of one home do not commute.
//   kInitiator  (threads) The issue clock itself is stored. The completion
//               source is the pre-update V ∨ W for a write (the acked-put
//               edge) and W for a read (the reads-from edge). Accesses to
//               different areas touch disjoint state and commute, which is
//               why explore enumerates this model (explore/model.hpp).
//
// The "Semantics" tests in tests/test_detect.cpp pin both properties.
#pragma once

#include <cstdint>
#include <utility>

#include "clocks/vector_clock.hpp"
#include "core/race_report.hpp"
#include "core/rules.hpp"
#include "core/types.hpp"
#include "detect/sharded_detector.hpp"
#include "util/types.hpp"

namespace dsmr::detect {

/// Where an access's stored clock comes from. Fixed by each executor.
enum class Placement : std::uint8_t { kHome, kInitiator };

/// How a lock release updates the handoff the next acquirer merges.
enum class HandoffRule : std::uint8_t {
  kMerge,      ///< sim nic::LockManager: successive releases accumulate.
  kOverwrite,  ///< ThreadWorld: the latest release replaces the handoff.
};

/// Receive event (signal → wait, home-side apply): tick, then merge.
inline void receive(clocks::VectorClock& clock, Rank self, const clocks::VectorClock& sent) {
  clock.tick(self);
  clock.merge_from(sent);
}

/// Lock acquisition: tick, then merge the handoff when `handoff` is
/// non-null and non-empty (the release→acquire edge).
inline void acquire(clocks::VectorClock& clock, Rank self,
                    const clocks::VectorClock* handoff) {
  clock.tick(self);
  if (handoff != nullptr && !handoff->empty()) clock.merge_from(*handoff);
}

/// Stores a release clock into a lock's handoff (empty = no release yet).
template <typename Clock>
void store_handoff(clocks::VectorClock& handoff, Clock&& release, HandoffRule rule) {
  if (rule == HandoffRule::kMerge && !handoff.empty()) {
    handoff.merge_from(release);
  } else {
    handoff = std::forward<Clock>(release);
  }
}

/// Stores one checked access (`kind` by `accessor`, issue clock `issue`)
/// into area `id` and returns the clock the initiator merges on completion,
/// which lives in `completion`:
///  kHome       `completion` is the home node's clock: it takes the receive
///              event and is stored; `wants_completion` is ignored.
///  kInitiator  `completion` is a caller buffer, filled with the completion
///              source before the store when `wants_completion` (under the
///              area's shard lock when threads share the detector).
inline const clocks::VectorClock& apply_access(Placement placement, ShardedDetector& detector,
                                               AreaId id, core::AccessKind kind,
                                               Rank accessor,
                                               const clocks::VectorClock& issue,
                                               std::uint64_t event_id,
                                               clocks::VectorClock& completion,
                                               bool wants_completion) {
  const bool is_write = kind == core::AccessKind::kWrite;
  if (placement == Placement::kHome) {
    receive(completion, detector.home(), issue);
    detector.store_access(id, detector.home(), completion, is_write, accessor, event_id);
    return completion;
  }
  if (wants_completion) {
    completion = is_write ? detector.v_clock(id) : detector.w_clock(id);
    if (is_write) completion.merge_from(detector.w_clock(id));
  }
  detector.store_access(id, accessor, issue, is_write, accessor, event_id);
  return completion;
}

/// A race the home's detector just flagged, with the stored clock and prior
/// event it was decided against. Callers add their own coordinates (time,
/// event id, area name; the fold its flat area index in place of `id`).
inline core::RaceReport home_report(const ShardedDetector& detector, AreaId id,
                                    core::AccessKind kind, Rank accessor,
                                    const clocks::VectorClock& accessor_clock,
                                    const core::Verdict& verdict) {
  core::RaceReport report;
  report.home = detector.home();
  report.area = id;
  report.accessor = accessor;
  report.kind = kind;
  report.accessor_clock = accessor_clock;
  report.against = verdict.against;
  report.stored_clock = detector.prior_clock(id, verdict.against);
  report.prior_event_id = detector.prior_event(id, verdict.against);
  return report;
}

}  // namespace dsmr::detect
