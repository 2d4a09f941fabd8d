// The sharded detector core: batch ≡ per-area verdict equivalence, shard
// partitioning as a pure locking concern (verdict-neutral at 1/2/8 shards on
// fuzzed programs, sim bit-identical / threaded signature-equal), cold-area
// storage behavior at production scale, the shared happens-before rules
// (detect/semantics.hpp) and the placement difference between the models,
// the vectorized clock compare against its scalar oracle, and the delta
// clock codec behind the piggyback wire accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/rules.hpp"
#include "detect/semantics.hpp"
#include "detect/sharded_detector.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "fuzz/thread_harness.hpp"
#include "runtime/world.hpp"
#include "util/rng.hpp"

namespace dsmr::detect {
namespace {

using clocks::VectorClock;
using core::AccessKind;
using core::DetectorMode;

// ---------------------------------------------------------------------------
// Cold areas at scale
// ---------------------------------------------------------------------------

TEST(ShardedDetector, MillionColdAreasMaterializeNoClocks) {
  // Production scale: registering 10^6 areas must not allocate per-area
  // clocks (every cold slot aliases the shared zero clock), and a batched
  // check over the whole range must collapse to one run per shard.
  constexpr std::size_t kAreas = 1'000'000;
  ShardedDetector det(4, /*home=*/0, /*shards=*/8);
  det.register_areas(kAreas);
  EXPECT_EQ(det.area_count(), kAreas);
  EXPECT_EQ(det.resident_clock_bytes(), 0u);

  VectorClock issue(4);
  issue[2] = 1;  // rank 2's first event.
  const BatchVerdict batch = det.check_range(
      DetectorMode::kDualClock, AccessKind::kWrite, 2, issue,
      AreaSpan{0, static_cast<std::uint32_t>(kAreas)});
  EXPECT_EQ(batch.checked, kAreas);
  EXPECT_EQ(batch.races, 0u);
  EXPECT_EQ(batch.runs, 8u);  // all state-identical within each shard.
  EXPECT_EQ(batch.epoch_compares + batch.full_compares, batch.runs);
}

TEST(ShardedDetector, StorageAppearsOnlyWhereAccessesLand) {
  ShardedDetector det(4, /*home=*/1, /*shards=*/2);
  det.register_areas(100);
  VectorClock clk(4);
  clk[1] = 1;
  det.store_access(7, /*owner=*/1, clk, /*is_write=*/true, /*accessor=*/3, 42);
  // One touched area: V and W lanes own separate materialized slots.
  EXPECT_EQ(det.resident_clock_bytes(), 2u * clk.fixed_wire_size());
  EXPECT_EQ(det.last_write_event(7), 42u);
  EXPECT_EQ(det.last_access_rank(7), 3);
  EXPECT_EQ(det.v_clock(7), clk);
  EXPECT_EQ(det.w_clock(7), clk);
  // A later read-only store moves V but must leave W untouched.
  VectorClock clk2 = clk;
  clk2[1] = 2;
  det.store_access(7, 1, clk2, /*is_write=*/false, /*accessor=*/0, 43);
  EXPECT_EQ(det.v_clock(7), clk2);
  EXPECT_EQ(det.w_clock(7), clk);
}

// ---------------------------------------------------------------------------
// Batch ≡ per-area ≡ legacy check_access
// ---------------------------------------------------------------------------

/// Drives a detector into a random-but-consistent state: each rank keeps a
/// genuine event clock (ticked, occasionally merged), and random areas store
/// random ranks' events. Returns the per-rank clocks for issuing queries.
std::vector<VectorClock> seed_random_state(ShardedDetector& det, std::size_t nprocs,
                                           std::size_t areas, util::Rng& rng) {
  std::vector<VectorClock> clocks(nprocs, VectorClock(nprocs));
  for (int step = 0; step < 400; ++step) {
    const auto r = static_cast<std::size_t>(rng.next() % nprocs);
    clocks[r][r] += 1;  // tick: the clock names a new event at r.
    if (rng.next() % 4 == 0) {
      clocks[r].merge_from(clocks[rng.next() % nprocs]);
    }
    const auto id = static_cast<AreaId>(rng.next() % areas);
    det.store_access(id, static_cast<Rank>(r), clocks[r],
                     /*is_write=*/rng.next() % 2 == 0, static_cast<Rank>(r),
                     static_cast<std::uint64_t>(step + 1));
  }
  return clocks;
}

TEST(ShardedDetector, BatchVerdictsMatchPerAreaChecksAtEveryShardCount) {
  constexpr std::size_t kProcs = 5;
  constexpr std::size_t kAreas = 64;
  for (const int shards : {1, 2, 8}) {
    util::Rng rng(1234);  // same state regardless of shard count.
    ShardedDetector det(kProcs, /*home=*/0, shards);
    det.register_areas(kAreas);
    auto clocks = seed_random_state(det, kProcs, kAreas, rng);

    for (int query = 0; query < 60; ++query) {
      const auto accessor = static_cast<Rank>(rng.next() % kProcs);
      auto& issue = clocks[static_cast<std::size_t>(accessor)];
      issue[static_cast<std::size_t>(accessor)] += 1;  // post-tick event clock.
      const AccessKind kind =
          rng.next() % 2 == 0 ? AccessKind::kWrite : AccessKind::kRead;
      const DetectorMode mode = rng.next() % 4 == 0
                                    ? DetectorMode::kSingleClock
                                    : DetectorMode::kDualClock;
      const auto first = static_cast<AreaId>(rng.next() % kAreas);
      const auto count =
          static_cast<std::uint32_t>(rng.next() % (kAreas - first) + 1);

      // Reference: per-area checks through both the detector's scalar entry
      // point and the legacy check_access shim over reconstructed state.
      std::vector<AreaId> expected_races;
      std::uint64_t expected_race_count = 0;
      for (AreaId id = first; id < first + count; ++id) {
        const core::Verdict one = det.check_one(mode, kind, accessor, issue, id);
        const core::StoredClocks stored{det.v_clock(id),          det.w_clock(id),
                                        det.last_access_rank(id), det.last_write_rank(id),
                                        det.v_epoch(id),          det.w_epoch(id)};
        EXPECT_EQ(one, core::check_access(mode, kind, accessor, issue, stored))
            << "area " << id << " shards " << shards;
        if (one.race) {
          expected_races.push_back(id);
          ++expected_race_count;
        }
      }

      std::vector<AreaId> batch_races;
      const BatchVerdict batch =
          det.check_range(mode, kind, accessor, issue, AreaSpan{first, count},
                          [&](AreaId id, const core::Verdict& v) {
                            EXPECT_TRUE(v.race);
                            batch_races.push_back(id);
                          });
      std::sort(batch_races.begin(), batch_races.end());
      EXPECT_EQ(batch_races, expected_races) << "shards " << shards;
      EXPECT_EQ(batch.races, expected_race_count);
      EXPECT_EQ(batch.checked, count);
      EXPECT_LE(batch.runs, count);
      EXPECT_EQ(batch.epoch_compares + batch.full_compares, batch.runs);
    }
  }
}

TEST(ShardedDetector, StoreRangeMatchesPerAreaStores) {
  constexpr std::size_t kProcs = 3;
  ShardedDetector ranged(kProcs, 0, 4);
  ShardedDetector scalar(kProcs, 0, 4);
  ranged.register_areas(32);
  scalar.register_areas(32);
  VectorClock clk(kProcs);
  clk[2] = 3;
  clk[0] = 1;
  ranged.store_range(AreaSpan{5, 20}, /*owner=*/2, clk, /*is_write=*/true,
                     /*accessor=*/2, 77);
  for (AreaId id = 5; id < 25; ++id) {
    scalar.store_access(id, 2, clk, true, 2, 77);
  }
  for (AreaId id = 0; id < 32; ++id) {
    EXPECT_EQ(ranged.v_clock(id), scalar.v_clock(id)) << id;
    EXPECT_EQ(ranged.w_clock(id), scalar.w_clock(id)) << id;
    EXPECT_EQ(ranged.v_epoch(id), scalar.v_epoch(id)) << id;
    EXPECT_EQ(ranged.last_write_event(id), scalar.last_write_event(id)) << id;
  }
  EXPECT_EQ(ranged.storage_bytes(), scalar.storage_bytes());
}

// ---------------------------------------------------------------------------
// Per-area epoch summary: fresh state, stores, out-of-range owners, storage
// ---------------------------------------------------------------------------

struct EpochSummaryCase {
  const char* name;
  std::size_t nprocs;
  Rank home;
  Rank owner;  ///< the rank the stored event occurred at; may be out of range.
  bool is_write;
};

TEST(ShardedDetector, EpochSummaryFollowsEveryStoreTableDriven) {
  constexpr std::size_t kWide = VectorClock::kInlineCapacity + 2;  // heap clocks.
  const EpochSummaryCase cases[] = {
      {"home write", 4, 2, 2, true},
      {"accessor read", 3, 0, 1, false},
      {"owner past the clock", 3, 0, 7, true},
      {"negative owner", 3, 1, -1, false},
      {"single process", 1, 0, 0, true},
      {"wide home write", kWide, 3, 3, true},
      {"wide owner past the clock", kWide, 3, static_cast<Rank>(kWide), true},
  };
  for (const EpochSummaryCase& c : cases) {
    SCOPED_TRACE(c.name);
    ShardedDetector det(c.nprocs, c.home, /*shards=*/1);
    det.register_area(0);

    // A fresh area is the zero clock summarized as the home's 0th event.
    const clocks::Epoch fresh{c.home, 0};
    EXPECT_EQ(det.v_epoch(0), fresh);
    EXPECT_EQ(det.w_epoch(0), fresh);
    EXPECT_TRUE(det.v_clock(0).is_zero());
    EXPECT_EQ(det.v_clock(0).size(), c.nprocs);
    EXPECT_EQ(det.v_storage_bytes(0), det.v_clock(0).wire_size() + fresh.wire_size());

    VectorClock event(c.nprocs);
    for (std::size_t i = 0; i < c.nprocs; ++i) event[i] = static_cast<ClockValue>(i + 2);
    const Rank accessor = static_cast<Rank>(c.nprocs - 1);
    det.store_access(0, c.owner, event, c.is_write, accessor, /*event_id=*/5);

    // A store keeps the summary iff the owner names a component of the clock.
    const bool in_range = c.owner >= 0 && static_cast<std::size_t>(c.owner) < c.nprocs;
    const clocks::Epoch stored = det.v_epoch(0);
    EXPECT_EQ(stored.valid(), in_range);
    if (in_range) {
      EXPECT_EQ(stored, (clocks::Epoch{c.owner, event[static_cast<std::size_t>(c.owner)]}));
    }
    EXPECT_EQ(det.v_clock(0), event);
    EXPECT_EQ(det.w_epoch(0), c.is_write ? stored : fresh);
    EXPECT_EQ(det.v_storage_bytes(0),
              event.wire_size() + (in_range ? stored.wire_size() : 0));

    // Summarized or not, the verdict is the legacy predicate's on the same
    // state. Rank 0 queries with its next event, once after learning the
    // stored event and once without, both kinds, every mode.
    VectorClock after = event;
    after.tick(0);
    VectorClock concurrent(c.nprocs);
    concurrent[0] = event[0] + 1;
    for (const VectorClock* issue : {&after, &concurrent}) {
      for (const DetectorMode mode :
           {DetectorMode::kOff, DetectorMode::kSingleClock, DetectorMode::kDualClock}) {
        for (const AccessKind kind : {AccessKind::kRead, AccessKind::kWrite}) {
          const core::StoredClocks state{det.v_clock(0),          det.w_clock(0),
                                         det.last_access_rank(0), det.last_write_rank(0),
                                         det.v_epoch(0),          det.w_epoch(0)};
          EXPECT_EQ(det.check_one(mode, kind, 0, *issue, 0),
                    core::check_access(mode, kind, 0, *issue, state))
              << core::to_string(mode) << " " << core::to_string(kind) << " "
              << issue->to_string();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-equivalence on fuzzed programs, sim backend: bit-identical races
// ---------------------------------------------------------------------------

/// A total, bit-exact signature of one run's race reports (order-free).
using RaceSig = std::tuple<Rank, std::uint32_t, Rank, int, std::uint64_t,
                           std::uint64_t, int, std::string, std::string>;

std::string clock_bits(const VectorClock& clock) {
  std::string out;
  for (std::size_t i = 0; i < clock.size(); ++i) {
    out += std::to_string(clock[i]) + ",";
  }
  return out;
}

std::multiset<RaceSig> sim_signature(const fuzz::Program& program, int shards) {
  runtime::WorldConfig config;
  config.nprocs = program.nprocs;
  config.seed = 7;  // one fixed schedule: shards must not perturb it.
  config.detector_shards = shards;
  runtime::World world(config);
  fuzz::spawn_program(world, std::make_shared<const fuzz::Program>(program));
  const auto report = world.run();
  EXPECT_TRUE(report.completed) << report.diagnostic;
  std::multiset<RaceSig> sig;
  for (const auto& r : world.races().reports()) {
    sig.insert(RaceSig{r.home, r.area, r.accessor, static_cast<int>(r.kind),
                       r.event_id, r.prior_event_id, static_cast<int>(r.against),
                       clock_bits(r.accessor_clock), clock_bits(r.stored_clock)});
  }
  return sig;
}

TEST(ShardEquivalence, SimVerdictsBitIdenticalAcrossShardCountsOn128Programs) {
  // The partitioning must be a pure locking concern: the same program on the
  // same schedule yields byte-for-byte the same race reports at 1, 2 and 8
  // shards. 64 seeds × {clean, planted} = 128 generated programs.
  int planted_with_races = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    for (const bool plant : {false, true}) {
      fuzz::GenConfig gen;
      gen.seed = seed;
      gen.nprocs = 4;
      gen.areas = 6;
      gen.phases = 2;
      gen.plant_bug = plant;
      const fuzz::Program program = fuzz::generate_program(gen);

      const auto base = sim_signature(program, 1);
      EXPECT_EQ(sim_signature(program, 2), base)
          << "seed " << seed << (plant ? " planted" : " clean") << ": 2 shards";
      EXPECT_EQ(sim_signature(program, 8), base)
          << "seed " << seed << (plant ? " planted" : " clean") << ": 8 shards";
      if (program.expect == fuzz::Expectation::kClean) {
        EXPECT_TRUE(base.empty()) << "clean seed " << seed;
      }
      if (plant && !base.empty()) ++planted_with_races;
    }
  }
  // The slice is not vacuous: a healthy share of planted programs manifest.
  EXPECT_GT(planted_with_races, 16);
}

// ---------------------------------------------------------------------------
// Shard-equivalence, threaded backend: expectation contract per shard count
// ---------------------------------------------------------------------------

TEST(ShardEquivalence, ThreadedContractHoldsAcrossShardCounts) {
  // Real threads have no fixed schedule, so equivalence is by the verdict
  // contract: kClean programs stay race-free and kRacy programs flag the
  // planted area at every shard count (which also exercises real contention
  // on shard mutexes shared by several areas at stripes=1 and 2).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool plant : {false, true}) {
      fuzz::GenConfig gen;
      gen.seed = seed;
      gen.nprocs = 4;
      gen.areas = 6;
      gen.phases = 2;
      gen.plant_bug = plant;
      gen.bug_kind = fuzz::BugKind::kDroppedEdge;  // always kRacy when planted.
      const fuzz::Program program = fuzz::generate_program(gen);
      if (plant && program.expect != fuzz::Expectation::kRacy) continue;

      for (const int stripes : {1, 2, 8}) {
        fuzz::ThreadRunOptions options;
        options.stripes = stripes;
        const auto outcome = fuzz::run_program_threaded(program, options);
        ASSERT_TRUE(outcome.report.completed)
            << "seed " << seed << " stripes " << stripes;
        if (program.expect == fuzz::Expectation::kClean) {
          EXPECT_EQ(outcome.report.race_count, 0u)
              << "seed " << seed << " stripes " << stripes;
        } else {
          ASSERT_TRUE(program.planted.has_value());
          const std::string planted_area = "fz" + std::to_string(program.planted->area);
          EXPECT_TRUE(outcome.racy_areas.count(planted_area) > 0)
              << "seed " << seed << " stripes " << stripes << ": planted area "
              << planted_area << " not flagged";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Semantics: the shared rules and the placement difference
// ---------------------------------------------------------------------------

/// Everything an access apply can change, for comparing two event orders.
std::string apply_state(const ShardedDetector& detector, const VectorClock& home_clock,
                        const std::vector<VectorClock>& completions) {
  std::string out = "home=" + home_clock.to_string();
  for (AreaId id = 0; id < detector.area_count(); ++id) {
    out += " a" + std::to_string(id) + " v=" + detector.v_clock(id).to_string() +
           " ve=" + detector.v_epoch(id).to_string() +
           " w=" + detector.w_clock(id).to_string() +
           " we=" + detector.w_epoch(id).to_string() +
           " la=" + std::to_string(detector.last_access_rank(id)) +
           " lw=" + std::to_string(detector.last_write_rank(id));
  }
  for (const VectorClock& completion : completions) out += " c=" + completion.to_string();
  return out;
}

TEST(Semantics, DisjointAreasOfOneHomeCommuteOnlyAtInitiatorPlacement) {
  // Two accesses to different areas with the same home (rank 0 of 3),
  // applied in both orders: at kHome each applied access folds into the
  // shared home clock, so the order shows in the stored V and in the
  // completion clock each initiator merges; at kInitiator it shows nowhere.
  struct Case {
    Placement placement;
    AccessKind first;
    AccessKind second;
    bool commutes;
  };
  const Case cases[] = {
      {Placement::kHome, AccessKind::kWrite, AccessKind::kWrite, false},
      {Placement::kHome, AccessKind::kWrite, AccessKind::kRead, false},
      {Placement::kHome, AccessKind::kRead, AccessKind::kRead, false},
      {Placement::kInitiator, AccessKind::kWrite, AccessKind::kWrite, true},
      {Placement::kInitiator, AccessKind::kWrite, AccessKind::kRead, true},
      {Placement::kInitiator, AccessKind::kRead, AccessKind::kRead, true},
  };
  for (const Case& c : cases) {
    struct Access {
      Rank accessor;
      AreaId area;
      AccessKind kind;
    };
    const Access accesses[] = {{1, 0, c.first}, {2, 1, c.second}};
    std::string states[2];
    for (int order = 0; order < 2; ++order) {
      ShardedDetector detector(3, /*home=*/0, /*shards=*/1);
      detector.register_areas(2);
      VectorClock home_clock(3);
      std::vector<VectorClock> completions(2);
      for (int k = 0; k < 2; ++k) {
        const int which = order == 0 ? k : 1 - k;
        const Access& access = accesses[which];
        VectorClock issue(3);
        issue.tick(access.accessor);
        VectorClock& completion =
            c.placement == Placement::kHome ? home_clock : completions[which];
        const VectorClock& merged =
            apply_access(c.placement, detector, access.area, access.kind, access.accessor,
                         issue, /*event_id=*/0, completion, /*wants_completion=*/true);
        completions[which] = merged;
      }
      states[order] = apply_state(detector, home_clock, completions);
    }
    SCOPED_TRACE(std::string(c.placement == Placement::kHome ? "home " : "initiator ") +
                 core::to_string(c.first) + "/" + core::to_string(c.second));
    if (c.commutes) {
      EXPECT_EQ(states[0], states[1]);
    } else {
      EXPECT_NE(states[0], states[1]);
    }
  }
}

TEST(Semantics, HomePlacementStoredVDependsOnOrder) {
  // The concrete home-placement difference: area 0's stored V is the home
  // clock of whichever event applied it, so it carries the other access
  // exactly when that access applied first.
  VectorClock stored_v[2];
  for (int order = 0; order < 2; ++order) {
    ShardedDetector detector(3, /*home=*/0, /*shards=*/1);
    detector.register_areas(2);
    VectorClock home_clock(3);
    const VectorClock one{0, 1, 0};
    const VectorClock two{0, 0, 1};
    for (int k = 0; k < 2; ++k) {
      const bool first_area = (order == 0) == (k == 0);
      apply_access(Placement::kHome, detector, first_area ? 0 : 1, AccessKind::kWrite,
                   first_area ? 1 : 2, first_area ? one : two, 0, home_clock, true);
    }
    EXPECT_EQ(home_clock, (VectorClock{2, 1, 1}));
    stored_v[order] = detector.v_clock(0);
  }
  EXPECT_EQ(stored_v[0], (VectorClock{1, 1, 0}));
  EXPECT_EQ(stored_v[1], (VectorClock{2, 1, 1}));
}

TEST(Semantics, CompletionSourcePerPlacementKindAndAck) {
  // Pre-state of area 0 at home 0: a write by rank 1 then a read by rank 2,
  // so the stored W = {0,1,0} and V = {0,0,1} differ. Rank 1 then accesses
  // it with issue clock {0,2,0}. Executors want the completion clock for
  // every get and for acked puts only.
  struct Case {
    Placement placement;
    AccessKind kind;
    bool acked;
    VectorClock completion;  ///< empty: nothing to merge.
  };
  const Case cases[] = {
      // kHome: the home's receive event, whatever the kind or ack regime.
      {Placement::kHome, AccessKind::kWrite, true, VectorClock{1, 2, 0}},
      {Placement::kHome, AccessKind::kWrite, false, VectorClock{1, 2, 0}},
      {Placement::kHome, AccessKind::kRead, true, VectorClock{1, 2, 0}},
      {Placement::kHome, AccessKind::kRead, false, VectorClock{1, 2, 0}},
      // kInitiator: pre-update V ∨ W for an acked put, W for a get.
      {Placement::kInitiator, AccessKind::kWrite, true, VectorClock{0, 1, 1}},
      {Placement::kInitiator, AccessKind::kWrite, false, VectorClock{}},
      {Placement::kInitiator, AccessKind::kRead, true, VectorClock{0, 1, 0}},
      {Placement::kInitiator, AccessKind::kRead, false, VectorClock{0, 1, 0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.placement == Placement::kHome ? "home " : "initiator ") +
                 core::to_string(c.kind) + (c.acked ? " acked" : " unacked"));
    ShardedDetector detector(3, /*home=*/0, /*shards=*/1);
    detector.register_area(0);
    detector.store_access(0, 1, VectorClock{0, 1, 0}, /*is_write=*/true, 1, 0);
    detector.store_access(0, 2, VectorClock{0, 0, 1}, /*is_write=*/false, 2, 0);
    const VectorClock issue{0, 2, 0};
    const bool wants = c.kind == AccessKind::kRead || c.acked;
    VectorClock home_clock(3);
    VectorClock buffer;
    VectorClock& completion = c.placement == Placement::kHome ? home_clock : buffer;
    const VectorClock& merged = apply_access(c.placement, detector, 0, c.kind, 1, issue,
                                             /*event_id=*/7, completion, wants);
    EXPECT_EQ(&merged, &completion);
    EXPECT_EQ(merged, c.completion);
    // The stored clock: the home's receive event, or the issue clock itself.
    const VectorClock& stored = c.placement == Placement::kHome ? home_clock : issue;
    EXPECT_EQ(detector.v_clock(0), stored);
    EXPECT_EQ(detector.v_epoch(0),
              clocks::Epoch::of_event(c.placement == Placement::kHome ? 0 : 1, stored));
    EXPECT_EQ(detector.w_clock(0),
              c.kind == AccessKind::kWrite ? stored : (VectorClock{0, 1, 0}));
    EXPECT_EQ(detector.last_access_event(0), 7u);
  }
}

TEST(Semantics, SyncTransitions) {
  // receive and acquire tick before merging; an absent or empty handoff
  // merges nothing.
  VectorClock clock{1, 0, 0};
  receive(clock, 0, VectorClock{0, 3, 1});
  EXPECT_EQ(clock, (VectorClock{2, 3, 1}));
  acquire(clock, 0, nullptr);
  EXPECT_EQ(clock, (VectorClock{3, 3, 1}));
  const VectorClock none;
  acquire(clock, 0, &none);
  EXPECT_EQ(clock, (VectorClock{4, 3, 1}));
  const VectorClock handoff{0, 5, 0};
  acquire(clock, 0, &handoff);
  EXPECT_EQ(clock, (VectorClock{5, 5, 1}));

  // The named handoff difference: the sim merges successive releases, the
  // threaded backend keeps the latest.
  struct Case {
    HandoffRule rule;
    VectorClock expected;
  };
  for (const Case& c : {Case{HandoffRule::kMerge, VectorClock{2, 1}},
                        Case{HandoffRule::kOverwrite, VectorClock{0, 1}}}) {
    VectorClock slot;
    store_handoff(slot, VectorClock{2, 0}, c.rule);
    EXPECT_EQ(slot, (VectorClock{2, 0}));
    store_handoff(slot, VectorClock{0, 1}, c.rule);
    EXPECT_EQ(slot, c.expected);
  }
}

TEST(Semantics, HomeReportQuotesTheStateTheVerdictSaw) {
  ShardedDetector detector(2, /*home=*/1, /*shards=*/1);
  detector.register_area(0);
  detector.store_access(0, 0, VectorClock{1, 0}, /*is_write=*/true, 0, /*event_id=*/41);
  const VectorClock accessor_clock{0, 1};
  const core::Verdict verdict = detector.check_one(DetectorMode::kDualClock,
                                                   AccessKind::kWrite, 1, accessor_clock, 0);
  ASSERT_TRUE(verdict.race);
  const core::RaceReport report =
      home_report(detector, 0, AccessKind::kWrite, 1, accessor_clock, verdict);
  EXPECT_EQ(report.home, 1);
  EXPECT_EQ(report.area, 0u);
  EXPECT_EQ(report.accessor, 1);
  EXPECT_EQ(report.kind, AccessKind::kWrite);
  EXPECT_EQ(report.accessor_clock, accessor_clock);
  EXPECT_EQ(report.against, verdict.against);
  EXPECT_EQ(report.stored_clock, (VectorClock{1, 0}));
  EXPECT_EQ(report.prior_event_id, 41u);
}

// ---------------------------------------------------------------------------
// Vectorized compare ≡ scalar compare
// ---------------------------------------------------------------------------

TEST(VectorizedCompare, MatchesScalarCompareOnRandomPairs) {
  util::Rng rng(99);
  for (const std::size_t n : {1u, 4u, 16u, 256u, 1024u}) {
    for (int trial = 0; trial < 200; ++trial) {
      VectorClock a(n);
      VectorClock b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.next() % 4;
        // Bias towards related clocks so all four orderings appear.
        b[i] = rng.next() % 2 == 0 ? a[i] : rng.next() % 4;
      }
      EXPECT_EQ(a.compare_vectorized(b), a.compare(b)) << "n=" << n;
      EXPECT_EQ(b.compare_vectorized(a), b.compare(a)) << "n=" << n;
      EXPECT_EQ(a.compare_vectorized(a), clocks::Ordering::kEqual);
    }
  }
}

// ---------------------------------------------------------------------------
// Delta clock codec (piggyback compression)
// ---------------------------------------------------------------------------

TEST(DeltaCodec, RoundTripsOnRandomPerturbations) {
  util::Rng rng(31);
  for (const std::size_t n : {1u, 4u, 64u, 300u}) {
    for (int trial = 0; trial < 100; ++trial) {
      VectorClock base(n);
      for (std::size_t i = 0; i < n; ++i) base[i] = rng.next() % 1000;
      VectorClock target = base;
      const std::size_t diffs = rng.next() % (n + 1);
      for (std::size_t d = 0; d < diffs; ++d) {
        target[rng.next() % n] = rng.next() % 100000;
      }
      std::vector<std::byte> wire;
      target.encode_delta(base, wire);
      EXPECT_EQ(wire.size(), target.delta_wire_size(base));
      std::size_t offset = 0;
      const VectorClock decoded = VectorClock::decode_delta(base, wire, &offset);
      EXPECT_EQ(offset, wire.size());
      EXPECT_EQ(decoded, target) << "n=" << n << " diffs=" << diffs;
    }
  }
}

TEST(DeltaCodec, EqualAndNearEqualClocksCollapse) {
  VectorClock base(64);
  for (std::size_t i = 0; i < 64; ++i) base[i] = 100 + i;
  // Identical clocks: one tag byte + a zero diff count.
  EXPECT_EQ(base.delta_wire_size(base), 2u);
  // Two diverged components: far below the plain compact encoding.
  VectorClock near = base;
  near[3] += 1;
  near[40] += 7;
  EXPECT_LT(near.delta_wire_size(base), base.wire_size() / 4);
  // Never worse than plain + tag: a fully diverged clock falls back.
  VectorClock far(64);
  for (std::size_t i = 0; i < 64; ++i) far[i] = 100000 + 1000 * i;
  EXPECT_LE(far.delta_wire_size(base), far.wire_size() + 1);
}

}  // namespace
}  // namespace dsmr::detect
