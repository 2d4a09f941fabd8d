#include "detect/sharded_detector.hpp"

namespace dsmr::detect {

ShardedDetector::ShardedDetector(std::size_t nprocs, Rank home, int shards)
    : nprocs_(nprocs), home_(home), zero_clock_(nprocs) {
  DSMR_REQUIRE(shards >= 1, "detector needs at least one shard, got " << shards);
  DSMR_REQUIRE(home >= 0 && static_cast<std::size_t>(home) < nprocs,
               "detector home rank " << home << " out of range for " << nprocs
                                     << " processes");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>());
}

void ShardedDetector::register_area(AreaId id) {
  DSMR_REQUIRE(id == areas_, "areas register densely in allocation order: got id "
                                 << id << ", expected " << areas_);
  Shard& shard = shard_for(id);
  for (Lane* lane : {&shard.v, &shard.w}) {
    // Fresh state is the zero clock as an event clock — the fictitious 0th
    // event of the home rank — so a cold area starts epoch-summarized.
    lane->epoch.push_back(clocks::Epoch{home_, 0});
    lane->prior.push_back(kInvalidRank);
    lane->event.push_back(0);
    lane->clock.push_back(&zero_clock_);
    lane->owned.push_back(0);
  }
  ++areas_;
}

void ShardedDetector::register_areas(std::size_t count) {
  const std::size_t nshards = shards_.size();
  const std::size_t first = areas_;
  for (std::size_t s = 0; s < nshards; ++s) {
    // Slots in shard s after growth: ids s, s+S, s+2S, ... below the new
    // area count.
    const std::size_t total = first + count;
    const std::size_t slots = total > s ? (total - s + nshards - 1) / nshards : 0;
    Shard& shard = *shards_[s];
    for (Lane* lane : {&shard.v, &shard.w}) {
      lane->epoch.resize(slots, clocks::Epoch{home_, 0});
      lane->prior.resize(slots, kInvalidRank);
      lane->event.resize(slots, 0);
      lane->clock.resize(slots, &zero_clock_);
      lane->owned.resize(slots, 0);
    }
  }
  areas_ += count;
}

ShardedDetector::SlotRef ShardedDetector::slot_ref(AreaId id) const {
  DSMR_ASSERT(id < areas_);
  const Shard& shard = shard_for(id);
  const std::size_t slot = slot_of(id);
  return {shard.v.clock[slot], shard.w.clock[slot], &shard, slot};
}

core::Verdict ShardedDetector::check_one(core::DetectorMode mode,
                                         core::AccessKind kind, Rank accessor,
                                         const clocks::VectorClock& accessor_clock,
                                         AreaId id) const {
  DSMR_ASSERT(id < areas_);
  const Shard& shard = shard_for(id);
  const std::size_t slot = slot_of(id);
  const Lane& lane =
      core::detail::compares_against_v(mode, kind) ? shard.v : shard.w;
  const core::SpanLane view{lane.epoch.data() + slot, lane.prior.data() + slot,
                            lane.clock.data() + slot};
  core::Verdict verdict;
  core::check_span(mode, kind, accessor, accessor_clock, view, 1,
                   /*trusted_epochs=*/true,
                   [&](std::size_t, std::size_t, const core::Verdict& v) {
                     verdict = v;
                   });
  return verdict;
}

void ShardedDetector::store_lane(Shard& shard, Lane& lane, std::size_t slot,
                                 Rank owner, const clocks::VectorClock& clk,
                                 Rank accessor, std::uint64_t event_id) {
  std::uint32_t idx = lane.owned[slot];
  if (idx == 0) {
    shard.pool.emplace_back(clk);
    idx = static_cast<std::uint32_t>(shard.pool.size());
    lane.owned[slot] = idx;
  } else {
    shard.pool[idx - 1] = clk;
  }
  lane.clock[slot] = &shard.pool[idx - 1];
  // The stored state is the clock of one known event at `owner`, summarized
  // by its epoch (which comes out invalid — full-compare fallback — if owner
  // is out of range).
  lane.epoch[slot] = clocks::Epoch::of_event(owner, clk);
  lane.prior[slot] = accessor;
  lane.event[slot] = event_id;
}

void ShardedDetector::store_access(AreaId id, Rank owner,
                                   const clocks::VectorClock& clk, bool is_write,
                                   Rank accessor, std::uint64_t event_id) {
  DSMR_ASSERT(id < areas_);
  Shard& shard = shard_for(id);
  const std::size_t slot = slot_of(id);
  store_lane(shard, shard.v, slot, owner, clk, accessor, event_id);
  if (is_write) store_lane(shard, shard.w, slot, owner, clk, accessor, event_id);
}

void ShardedDetector::store_range(AreaSpan span, Rank owner,
                                  const clocks::VectorClock& clk, bool is_write,
                                  Rank accessor, std::uint64_t event_id) {
  DSMR_CHECK_MSG(static_cast<std::size_t>(span.first) + span.count <= areas_,
                 "store_range span [" << span.first << ", +" << span.count
                                      << ") exceeds " << areas_ << " areas");
  const std::size_t nshards = shards_.size();
  const std::size_t lo_id = span.first;
  const std::size_t hi_id = lo_id + span.count;
  for (std::size_t s = 0; s < nshards; ++s) {
    const std::size_t lo_slot = lo_id > s ? (lo_id - s + nshards - 1) / nshards : 0;
    const std::size_t hi_slot = hi_id > s ? (hi_id - s + nshards - 1) / nshards : 0;
    if (lo_slot >= hi_slot) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (std::size_t slot = lo_slot; slot < hi_slot; ++slot) {
      store_lane(shard, shard.v, slot, owner, clk, accessor, event_id);
      if (is_write) store_lane(shard, shard.w, slot, owner, clk, accessor, event_id);
    }
  }
}

clocks::Epoch ShardedDetector::v_epoch(AreaId id) const {
  return shard_for(id).v.epoch[slot_of(id)];
}

clocks::Epoch ShardedDetector::w_epoch(AreaId id) const {
  return shard_for(id).w.epoch[slot_of(id)];
}

Rank ShardedDetector::last_access_rank(AreaId id) const {
  return shard_for(id).v.prior[slot_of(id)];
}

Rank ShardedDetector::last_write_rank(AreaId id) const {
  return shard_for(id).w.prior[slot_of(id)];
}

std::uint64_t ShardedDetector::last_access_event(AreaId id) const {
  return shard_for(id).v.event[slot_of(id)];
}

std::uint64_t ShardedDetector::last_write_event(AreaId id) const {
  return shard_for(id).w.event[slot_of(id)];
}

std::size_t ShardedDetector::lane_storage_bytes(const Lane& lane,
                                                std::size_t slot) const {
  const clocks::Epoch epoch = lane.epoch[slot];
  return lane.clock[slot]->wire_size() + (epoch.valid() ? epoch.wire_size() : 0);
}

std::size_t ShardedDetector::v_storage_bytes(AreaId id) const {
  DSMR_ASSERT(id < areas_);
  return lane_storage_bytes(shard_for(id).v, slot_of(id));
}

std::size_t ShardedDetector::w_storage_bytes(AreaId id) const {
  DSMR_ASSERT(id < areas_);
  return lane_storage_bytes(shard_for(id).w, slot_of(id));
}

std::size_t ShardedDetector::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const Lane* lane : {&shard->v, &shard->w}) {
      for (std::size_t slot = 0; slot < lane->epoch.size(); ++slot) {
        total += lane_storage_bytes(*lane, slot);
      }
    }
  }
  return total;
}

std::size_t ShardedDetector::resident_clock_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const clocks::VectorClock& clock : shard->pool) {
      total += clock.fixed_wire_size();
    }
  }
  return total;
}

}  // namespace dsmr::detect
