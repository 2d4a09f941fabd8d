// The standalone detector core: every per-area detection fact that used to
// live inside mem::Area (V/W clocks, epoch witnesses, prior initiator ranks
// and event ids) now lives here, in a shape chosen for production scale:
//
//  * Struct-of-arrays. Per-area metadata is parallel arrays (epoch, prior
//    rank, event id, clock handle) sized for millions of areas — a check
//    touches four small contiguous lanes, not a 100+-byte Area object.
//  * Shared-zero clock handles. A registered-but-untouched area owns no
//    clock storage at all: its handle aliases one detector-wide zero clock.
//    Registering 10^6 areas materializes zero vector clocks; storage appears
//    only when an area is actually written or read (one pool slot per lane,
//    stable addresses via deque).
//  * Sharding by `area_id % shards`. Each shard owns its slice of every
//    lane plus one mutex; area id → (shard, slot) is two integer ops, and
//    writers on different shards never contend. This subsumes PR 7's
//    per-home-rank striped locking in ThreadWorld (the stripe count is now
//    the shard count) and gives the sim backend the same layout at shards=1.
//  * Batched range checks. check_range walks each shard's contiguous lane
//    slice through core::check_span: one epoch compare per *run* of
//    state-identical areas (equal clock handle + epoch + prior rank), not
//    per area — the cache-shaped API the benches drive to 10^6 areas.
//
// Concurrency contract: the detector does not lock for you on the per-area
// fast path. check_one / store_access / the per-area accessors require the
// caller to hold shard_mutex(id) when other threads may touch that shard
// (the ThreadWorld path), and need no lock single-threaded (the sim path
// and record::replay_fold).
// check_range and store_range acquire each shard's mutex themselves as they
// walk it.
//
// Verdict equivalence: check_one/check_range run check_span with
// trusted_epochs=true — a valid epoch here is consistent with its stored
// clock *by construction* (store_access writes both from the same event),
// so the per-area consistency probe of the legacy path is skipped. The
// verdicts are bit-identical to core::check_access on the same state; the
// shard-equivalence and batch≡per-area suites in tests/test_detect.cpp hold
// this invariant under fuzzing.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "clocks/epoch.hpp"
#include "clocks/vector_clock.hpp"
#include "core/rules.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace dsmr::detect {

using AreaId = std::uint32_t;

/// A contiguous range of area ids: [first, first + count).
struct AreaSpan {
  AreaId first = 0;
  std::uint32_t count = 0;
};

/// What one check_range call found and did.
struct BatchVerdict {
  std::uint64_t checked = 0;        ///< areas covered (== span.count).
  std::uint64_t races = 0;          ///< areas whose verdict flagged a race.
  std::uint64_t runs = 0;           ///< state-identical runs, one verdict each.
  std::uint64_t epoch_compares = 0; ///< runs decided by the O(1) epoch path.
  std::uint64_t full_compares = 0;  ///< runs needing the full clock compare.
};

class ShardedDetector {
 public:
  /// Detector for areas homed at `home` in a system of `nprocs` processes,
  /// state partitioned across `shards` lock shards (>= 1).
  ShardedDetector(std::size_t nprocs, Rank home, int shards);

  ShardedDetector(const ShardedDetector&) = delete;
  ShardedDetector& operator=(const ShardedDetector&) = delete;

  std::size_t nprocs() const { return nprocs_; }
  int shards() const { return static_cast<int>(shards_.size()); }
  std::size_t area_count() const { return areas_; }

  /// Registers the next area. Ids are dense and allocation-ordered (the
  /// segment's bump allocator assigns them), so `id` must equal
  /// area_count(). O(1) amortized — no clock is materialized.
  void register_area(AreaId id);

  /// Bulk registration for benches and mass-allocation callers.
  void register_areas(std::size_t count);

  /// The mutex guarding `id`'s shard. Callers on the per-area path hold it
  /// across their check+store sequence (check / record / store must be one
  /// atomic step, exactly as PR 7's stripe locks did).
  std::mutex& shard_mutex(AreaId id) const { return shard_for(id).mutex; }

  // ---- checks ----

  /// One area, one verdict. Caller-locked (see the concurrency contract).
  core::Verdict check_one(core::DetectorMode mode, core::AccessKind kind,
                          Rank accessor, const clocks::VectorClock& accessor_clock,
                          AreaId id) const;

  /// Batched check over a contiguous id range: walks each shard's lane
  /// slice (locking that shard) and decides one verdict per run of
  /// state-identical areas. `on_race(id, verdict)` fires for every area
  /// whose verdict flags a race. Verdicts are identical to calling
  /// check_one on every id in the span.
  template <typename OnRace>
  BatchVerdict check_range(core::DetectorMode mode, core::AccessKind kind,
                           Rank accessor, const clocks::VectorClock& accessor_clock,
                           AreaSpan span, OnRace&& on_race) const;

  BatchVerdict check_range(core::DetectorMode mode, core::AccessKind kind,
                           Rank accessor, const clocks::VectorClock& accessor_clock,
                           AreaSpan span) const {
    return check_range(mode, kind, accessor, accessor_clock, span,
                       [](AreaId, const core::Verdict&) {});
  }

  // ---- stores ----

  /// Records the event `clk` (the clock of event `event_id`, which occurred
  /// at `owner` and was initiated by `accessor`) into area `id`'s V lane,
  /// and into the W lane too when `is_write`. Caller-locked.
  void store_access(AreaId id, Rank owner, const clocks::VectorClock& clk,
                    bool is_write, Rank accessor, std::uint64_t event_id);

  /// Bulk store over a contiguous id range (locks each shard as it goes):
  /// every area in the span records the same event. Used by benches and
  /// range-granular ingest; the per-area protocol paths use store_access.
  void store_range(AreaSpan span, Rank owner, const clocks::VectorClock& clk,
                   bool is_write, Rank accessor, std::uint64_t event_id);

  // ---- per-area state accessors (caller-locked under concurrency) ----

  const clocks::VectorClock& v_clock(AreaId id) const { return *slot_ref(id).v_clock; }
  const clocks::VectorClock& w_clock(AreaId id) const { return *slot_ref(id).w_clock; }
  clocks::Epoch v_epoch(AreaId id) const;
  clocks::Epoch w_epoch(AreaId id) const;
  Rank last_access_rank(AreaId id) const;
  Rank last_write_rank(AreaId id) const;
  std::uint64_t last_access_event(AreaId id) const;
  std::uint64_t last_write_event(AreaId id) const;

  /// The stored clock / prior event id a verdict was decided against.
  const clocks::VectorClock& prior_clock(AreaId id, core::ComparedAgainst against) const {
    return against == core::ComparedAgainst::kW ? w_clock(id) : v_clock(id);
  }
  std::uint64_t prior_event(AreaId id, core::ComparedAgainst against) const {
    return against == core::ComparedAgainst::kW ? last_write_event(id)
                                                : last_access_event(id);
  }

  // ---- storage accounting (CLAIM-V.A1) ----

  /// Modeled detection-metadata bytes for one area: both lanes' compact
  /// clock encodings plus their valid epoch witnesses — the §V.A storage
  /// accounting.
  std::size_t area_storage_bytes(AreaId id) const {
    return v_storage_bytes(id) + w_storage_bytes(id);
  }
  std::size_t v_storage_bytes(AreaId id) const;
  std::size_t w_storage_bytes(AreaId id) const;
  std::size_t storage_bytes() const;  ///< sum over all registered areas.

  /// Bytes of clock storage actually materialized (owned pool slots only —
  /// areas still aliasing the shared zero clock cost nothing). This is the
  /// number that stays 0 across 10^6 cold registrations.
  std::size_t resident_clock_bytes() const;

 private:
  /// One comparison lane (V or W) of one shard, struct-of-arrays. `clock`
  /// entries alias either the detector's shared zero clock or this shard's
  /// pool; `owned[slot]` is 1 + the pool index of the slot's owned clock, or
  /// 0 while the slot still aliases the zero clock. Each lane owns its pool
  /// slot separately — V and W must not share storage, or a later V-only
  /// event would retroactively corrupt W.
  struct Lane {
    std::vector<clocks::Epoch> epoch;
    std::vector<Rank> prior;
    std::vector<std::uint64_t> event;
    std::vector<const clocks::VectorClock*> clock;
    std::vector<std::uint32_t> owned;
  };

  struct Shard {
    mutable std::mutex mutex;
    Lane v;
    Lane w;
    /// Materialized clock storage; deque for stable addresses under growth.
    std::deque<clocks::VectorClock> pool;
  };

  /// A borrowed view of one area's state, both lanes.
  struct SlotRef {
    const clocks::VectorClock* v_clock;
    const clocks::VectorClock* w_clock;
    const Shard* shard;
    std::size_t slot;
  };

  std::size_t shard_of(AreaId id) const { return id % shards_.size(); }
  std::size_t slot_of(AreaId id) const { return id / shards_.size(); }
  Shard& shard_for(AreaId id) const { return *shards_[shard_of(id)]; }
  SlotRef slot_ref(AreaId id) const;

  void store_lane(Shard& shard, Lane& lane, std::size_t slot, Rank owner,
                  const clocks::VectorClock& clk, Rank accessor,
                  std::uint64_t event_id);
  std::size_t lane_storage_bytes(const Lane& lane, std::size_t slot) const;

  std::size_t nprocs_;
  Rank home_;
  std::size_t areas_ = 0;
  /// The one clock every cold lane slot aliases. Never mutated after
  /// construction, so concurrent readers across shards are safe.
  clocks::VectorClock zero_clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// ---------------------------------------------------------------------------
// check_range — header-inline because of the OnRace template; everything it
// calls per run is the core::check_span kernel.
// ---------------------------------------------------------------------------

template <typename OnRace>
BatchVerdict ShardedDetector::check_range(core::DetectorMode mode,
                                          core::AccessKind kind, Rank accessor,
                                          const clocks::VectorClock& accessor_clock,
                                          AreaSpan span, OnRace&& on_race) const {
  DSMR_CHECK_MSG(static_cast<std::size_t>(span.first) + span.count <= areas_,
                 "check_range span [" << span.first << ", +" << span.count
                                      << ") exceeds " << areas_ << " areas");
  BatchVerdict batch;
  batch.checked = span.count;
  if (span.count == 0) return batch;

  const std::size_t nshards = shards_.size();
  const std::size_t lo_id = span.first;
  const std::size_t hi_id = lo_id + span.count;  // exclusive
  const bool use_v = core::detail::compares_against_v(mode, kind);

  for (std::size_t s = 0; s < nshards; ++s) {
    // Ids in this shard are slot * nshards + s; the span maps to the
    // contiguous slot range [lo_slot, hi_slot).
    const std::size_t lo_slot = lo_id > s ? (lo_id - s + nshards - 1) / nshards : 0;
    const std::size_t hi_slot = hi_id > s ? (hi_id - s + nshards - 1) / nshards : 0;
    if (lo_slot >= hi_slot) continue;

    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> guard(shard.mutex);
    const Lane& lane = use_v ? shard.v : shard.w;
    const core::SpanLane view{lane.epoch.data() + lo_slot,
                              lane.prior.data() + lo_slot,
                              lane.clock.data() + lo_slot};
    const core::SpanStats stats = core::check_span(
        mode, kind, accessor, accessor_clock, view, hi_slot - lo_slot,
        /*trusted_epochs=*/true,
        [&](std::size_t first, std::size_t count, const core::Verdict& verdict) {
          if (!verdict.race) return;
          batch.races += count;
          for (std::size_t k = 0; k < count; ++k) {
            const std::size_t slot = lo_slot + first + k;
            on_race(static_cast<AreaId>(slot * nshards + s), verdict);
          }
        });
    batch.runs += stats.runs;
    batch.epoch_compares += stats.epoch_compares;
    batch.full_compares += stats.full_compares;
  }
  return batch;
}

}  // namespace dsmr::detect
