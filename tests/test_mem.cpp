// Unit tests for public memory segments and registered areas.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "nic/nic.hpp"
#include "runtime/world.hpp"

namespace dsmr::mem {
namespace {

TEST(PublicSegment, RegisterAndLookup) {
  PublicSegment seg(0, 1024, 4);
  const AreaId a = seg.register_area(0, 64, "a");
  const AreaId b = seg.register_area(64, 32, "b");
  EXPECT_EQ(seg.area_count(), 2u);
  EXPECT_EQ(seg.area(a).name, "a");
  EXPECT_EQ(seg.area(b).offset, 64u);

  Area* found = seg.find_area(10, 4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, a);
  found = seg.find_area(64, 32);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, b);
}

TEST(PublicSegment, LookupFailsOutsideAreas) {
  PublicSegment seg(0, 1024, 2);
  seg.register_area(100, 50, "mid");
  EXPECT_EQ(seg.find_area(0, 8), nullptr);     // before.
  EXPECT_EQ(seg.find_area(200, 8), nullptr);   // after.
  EXPECT_EQ(seg.find_area(140, 20), nullptr);  // straddles the end.
}

TEST(PublicSegment, RangeMustFitOneArea) {
  PublicSegment seg(0, 1024, 2);
  seg.register_area(0, 64, "a");
  seg.register_area(64, 64, "b");
  // A range crossing the a/b boundary resolves to no single area: the area
  // is the unit of locking and detection.
  EXPECT_EQ(seg.find_area(60, 8), nullptr);
  EXPECT_NE(seg.find_area(60, 4), nullptr);
}

TEST(PublicSegmentDeath, OverlapIsRejected) {
  PublicSegment seg(0, 1024, 2);
  seg.register_area(0, 64, "a");
  EXPECT_DEATH(seg.register_area(32, 64, "overlap"), "overlaps");
  EXPECT_DEATH(seg.register_area(0, 16, "inside"), "overlaps");
}

TEST(PublicSegmentDeath, OutOfBoundsAreaIsRejected) {
  PublicSegment seg(0, 128, 2);
  EXPECT_DEATH(seg.register_area(100, 64, "late"), "exceeds");
  EXPECT_DEATH(seg.register_area(0, 0, "empty"), "positive size");
}

TEST(PublicSegment, AllocateAreaBumps) {
  PublicSegment seg(0, 256, 2);
  const AreaId a = seg.allocate_area(64, "a");
  const AreaId b = seg.allocate_area(64, "b");
  EXPECT_EQ(seg.area(a).offset, 0u);
  EXPECT_EQ(seg.area(b).offset, 64u);
}

TEST(PublicSegment, AllocateAfterExplicitRegistration) {
  PublicSegment seg(0, 256, 2);
  seg.register_area(32, 32, "explicit");
  const AreaId next = seg.allocate_area(16, "bumped");
  EXPECT_GE(seg.area(next).offset, 64u);
}

TEST(PublicSegment, ReadWriteRoundTrip) {
  PublicSegment seg(0, 64, 2);
  seg.register_area(0, 64, "data");
  std::vector<std::byte> payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  seg.write_bytes(10, payload);
  EXPECT_EQ(seg.read_bytes(10, 3), payload);
  EXPECT_EQ(seg.read_bytes(9, 1)[0], std::byte{0});
}

TEST(DetectorState, AreasCarryClocksSizedToProcessCount) {
  // Detection state moved out of mem::Area into detect::ShardedDetector
  // (keyed by the same dense AreaId); the invariants carried over.
  detect::ShardedDetector det(8, /*home=*/1, /*shards=*/1);
  det.register_area(0);
  EXPECT_EQ(det.v_clock(0).size(), 8u);
  EXPECT_EQ(det.w_clock(0).size(), 8u);
  EXPECT_TRUE(det.v_clock(0).is_zero());
  // Fresh areas are epoch-summarized: both lanes witness the home's
  // fictitious 0th event.
  EXPECT_TRUE(det.v_epoch(0).valid());
  EXPECT_EQ(det.v_epoch(0), (clocks::Epoch{1, 0}));
}

TEST(DetectorState, ClockBytesAccounting) {
  // §V.A: storage overhead = 2 clock states per area, charged at the
  // compact encoding (n varints) plus the epoch witness while summarized —
  // strictly below the fixed 2 × n × 8 bytes the paper counts.
  detect::ShardedDetector det(10, /*home=*/0, /*shards=*/1);
  det.register_areas(2);
  const std::size_t per_state = det.v_storage_bytes(0);
  EXPECT_EQ(per_state, 10u + (clocks::Epoch{0, 0}).wire_size());
  EXPECT_EQ(det.storage_bytes(), 2u * 2u * per_state);
  EXPECT_LT(det.storage_bytes(), 2u * 2u * 10u * sizeof(ClockValue));
  // Cold areas alias the shared zero clock: no storage is materialized
  // until an access is actually stored.
  EXPECT_EQ(det.resident_clock_bytes(), 0u);
}

TEST(PublicSegment, AdjacentAreasShareBoundariesExactly) {
  // The fuzzer bump-allocates areas back to back: the interval index must
  // resolve every boundary byte to exactly one owner and reject straddles.
  PublicSegment seg(0, 256, 4);
  const AreaId a = seg.register_area(0, 64, "a");
  const AreaId b = seg.register_area(64, 64, "b");
  const AreaId c = seg.register_area(128, 32, "c");

  // First and last byte of each area.
  EXPECT_EQ(seg.find_area(0, 1)->id, a);
  EXPECT_EQ(seg.find_area(63, 1)->id, a);
  EXPECT_EQ(seg.find_area(64, 1)->id, b);
  EXPECT_EQ(seg.find_area(127, 1)->id, b);
  EXPECT_EQ(seg.find_area(128, 1)->id, c);
  EXPECT_EQ(seg.find_area(159, 1)->id, c);
  // Whole-area lookups at exact bounds.
  EXPECT_EQ(seg.find_area(64, 64)->id, b);
  // One past the last registered byte.
  EXPECT_EQ(seg.find_area(160, 1), nullptr);
  // Ranges straddling each adjacency.
  EXPECT_EQ(seg.find_area(63, 2), nullptr);
  EXPECT_EQ(seg.find_area(127, 2), nullptr);
  EXPECT_EQ(seg.find_area(0, 129), nullptr);
}

TEST(PublicSegment, RegistrationFillsGapsExactly) {
  PublicSegment seg(0, 256, 2);
  seg.register_area(0, 32, "low");
  seg.register_area(64, 32, "high");
  // An area exactly filling the hole is legal; off-by-one overlaps are not.
  const AreaId mid = seg.register_area(32, 32, "mid");
  EXPECT_EQ(seg.find_area(32, 32)->id, mid);
  EXPECT_EQ(seg.find_area(31, 2), nullptr);  // still two areas.
}

TEST(PublicSegmentDeath, GapFillOverlapsAreRejectedOnBothSides) {
  PublicSegment seg(0, 256, 2);
  seg.register_area(0, 32, "low");
  seg.register_area(64, 32, "high");
  EXPECT_DEATH(seg.register_area(31, 32, "hits-low"), "overlaps");
  EXPECT_DEATH(seg.register_area(33, 32, "hits-high"), "overlaps");
}

TEST(NicResolve, StaysCorrectAcrossNewRegistrations) {
  // Nic::resolve is now a direct delegation to the shared amortized index
  // (the old thread-local one-entry cache is gone). Registering *new* areas
  // between lookups must never stale an earlier answer or mask a new area —
  // exactly the access pattern of the fuzzer's incremental allocations —
  // and returned pointers must stay stable across registrations.
  runtime::WorldConfig config;
  config.nprocs = 2;
  runtime::World world(config);
  nic::Nic& nic = world.nic(0);

  const auto a = world.alloc(0, 64, "a");
  const Area* area_a = nic.resolve(0, a.offset, 8);
  ASSERT_NE(area_a, nullptr);
  EXPECT_EQ(area_a->name, "a");
  // Contained sub-range of the same area resolves to the same object.
  EXPECT_EQ(nic.resolve(0, a.offset + 32, 8), area_a);

  // New adjacent registration between lookups.
  const auto b = world.alloc(0, 32, "b");
  const Area* area_b = nic.resolve(0, b.offset, 32);
  ASSERT_NE(area_b, nullptr);
  EXPECT_EQ(area_b->name, "b");
  // A range straddling the a/b adjacency resolves to no area even though
  // "b" abuts it.
  EXPECT_EQ(nic.resolve(0, a.offset + 60, 8), nullptr);
  // The earlier pointer is still stable and still served.
  EXPECT_EQ(nic.resolve(0, a.offset, 64), area_a);

  // Cross-rank queries interleaved with rank-0 lookups stay exact.
  const auto remote = world.alloc(1, 16, "remote");
  const Area* area_remote = nic.resolve(1, remote.offset, 16);
  ASSERT_NE(area_remote, nullptr);
  EXPECT_EQ(area_remote->name, "remote");
  EXPECT_EQ(nic.resolve(0, b.offset, 8), area_b);
}

TEST(PublicSegment, OutOfOrderRegistrationKeepsLookupExact) {
  // The index keeps a sorted prefix plus a small unsorted tail that is
  // periodically merged (amortized insertion). Registering areas in a
  // shuffled order — enough of them to force several tail flushes — must
  // leave every lookup exact.
  PublicSegment seg(0, 8192, 2);
  std::vector<std::uint32_t> offsets;
  for (std::uint32_t i = 0; i < 200; ++i) offsets.push_back(i * 32);
  std::mt19937 rng(7);
  std::shuffle(offsets.begin(), offsets.end(), rng);
  for (const std::uint32_t offset : offsets) {
    seg.register_area(offset, 32, "a" + std::to_string(offset));
  }
  EXPECT_EQ(seg.area_count(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const Area* found = seg.find_area(i * 32, 32);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->offset, i * 32);
    // Straddles across every adjacency are still rejected.
    if (i + 1 < 200) {
      EXPECT_EQ(seg.find_area(i * 32 + 16, 32), nullptr);
    }
  }
}

TEST(PublicSegmentDeath, OverlapWithUnflushedTailIsRejected) {
  // Overlap rejection must see areas still sitting in the unsorted tail,
  // not just the sorted prefix.
  PublicSegment seg(0, 1024, 2);
  seg.register_area(64, 32, "prefix");
  seg.register_area(0, 32, "tail");  // below the prefix: lands in the tail.
  EXPECT_DEATH(seg.register_area(16, 32, "hits-tail"), "overlaps");
}

TEST(PublicSegmentDeath, BoundsArithmeticDoesNotWrapAt32Bits) {
  // offset + len near 2^32 must not wrap to a small value and pass a check.
  PublicSegment seg(0, 1 << 20, 2);
  seg.register_area(0, 64, "a");
  EXPECT_EQ(seg.find_area(16, 0xFFFFFFF8u), nullptr);
  EXPECT_DEATH(seg.read_bytes(16, 0xFFFFFFF8u), "outside the registered extent");
  EXPECT_DEATH(seg.bytes(16, 0xFFFFFFF8u), "outside the registered extent");

  PublicSegment bumped(0, 1 << 20, 2);
  bumped.allocate_area(1000, "first");
  EXPECT_DEATH(bumped.allocate_area(0xFFFFFFFFu, "huge"), "exceeds");
  EXPECT_DEATH(bumped.register_area(0xFFFFFF00u, 0x200, "wraps"), "exceeds");
}

TEST(PublicSegment, FreshlyRegisteredBytesReadZero) {
  PublicSegment seg(0, 4096, 2);
  seg.register_area(0, 64, "first");
  EXPECT_EQ(seg.read_bytes(0, 64), std::vector<std::byte>(64));
  seg.write_bytes(0, std::vector<std::byte>(64, std::byte{0xAB}));
  // A later area — adjacent, and one past a gap — materializes as zeros and
  // leaves the earlier area's bytes alone.
  seg.register_area(64, 32, "adjacent");
  seg.register_area(1024, 16, "past-gap");
  EXPECT_EQ(seg.read_bytes(64, 32), std::vector<std::byte>(32));
  EXPECT_EQ(seg.read_bytes(1024, 16), std::vector<std::byte>(16));
  EXPECT_EQ(seg.read_bytes(0, 64), std::vector<std::byte>(64, std::byte{0xAB}));
}

TEST(PublicSegment, SpansSurviveLaterRegistrations) {
  // The backing is reserved up front and only grows in place, so a span
  // taken early still addresses the same bytes after the extent grows.
  PublicSegment seg(0, 1 << 20, 2);
  seg.register_area(0, 8, "early");
  const std::span<std::byte> early = seg.bytes(0, 8);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    seg.allocate_area(512, "later" + std::to_string(i));
  }
  early[3] = std::byte{0x5A};
  EXPECT_EQ(seg.bytes(0, 8).data(), early.data());
  EXPECT_EQ(seg.read_bytes(3, 1)[0], std::byte{0x5A});
}

TEST(PublicSegmentDeath, AccessPastTheRegisteredExtentIsRejected) {
  PublicSegment seg(0, 1024, 2);
  seg.register_area(0, 64, "a");
  EXPECT_EQ(seg.resident_bytes(), 64u);
  EXPECT_EQ(seg.read_bytes(56, 8).size(), 8u);  // last registered bytes.
  // Inside the declared capacity, but past the highest registered area.
  EXPECT_DEATH(seg.read_bytes(60, 8), "outside the registered extent");
  EXPECT_DEATH(seg.write_bytes(64, std::vector<std::byte>(1)),
               "outside the registered extent");
}

TEST(PublicSegment, WorldMaterializesOnlyTheRegisteredExtent) {
  runtime::WorldConfig config;
  config.nprocs = 4;
  runtime::World world(config);
  ASSERT_EQ(world.segment(0).size(), 1u << 20);
  world.alloc(0, 8, "x");
  world.alloc(0, 8, "y");
  world.alloc(2, 8, "z");
  EXPECT_EQ(world.segment(0).resident_bytes(), 16u);
  EXPECT_EQ(world.segment(1).resident_bytes(), 0u);
  EXPECT_EQ(world.segment(2).resident_bytes(), 8u);
  EXPECT_EQ(world.segment(0).size(), 1u << 20);
}

TEST(GlobalAddress, PlusAndToString) {
  const GlobalAddress addr{3, 100};
  EXPECT_EQ(addr.plus(28).offset, 128u);
  EXPECT_EQ(addr.plus(28).rank, 3);
  EXPECT_EQ(addr.to_string(), "P3+100");
}

}  // namespace
}  // namespace dsmr::mem
