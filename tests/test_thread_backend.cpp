// Tests for the real-threads execution backend (runtime::ThreadWorld /
// net::ThreadFabric) and the differential harness's threaded leg: clean and
// always-racy fuzzed slices checked on both backends by verdict signature
// (the sim leg is the full conformance grid), the one sweep loop on every
// backend, segments sized from the program,
// quiescent shutdown with join-all (stuck ranks instead of leaked threads),
// the inline detection path on handwritten programs (which, in debug
// builds, auto-cross-checks every verdict against check_access_oracle — see
// core/rules.hpp), user-lock state created on first lock() (concurrently),
// the per-thread NIC resolver cache hammered from many threads, and the
// sharded traffic-counter fold.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/thread_harness.hpp"
#include "net/message.hpp"
#include "runtime/thread_world.hpp"
#include "runtime/world.hpp"

namespace dsmr {
namespace {

using runtime::ThreadProcess;
using runtime::ThreadWorld;
using runtime::ThreadWorldConfig;

ThreadWorldConfig small_world(int nprocs) {
  ThreadWorldConfig config;
  config.nprocs = nprocs;
  config.segment_bytes = 1 << 12;
  // Tests that deadlock on purpose must fail fast, not in 20 s.
  config.run_timeout = std::chrono::milliseconds(2'000);
  return config;
}

std::vector<std::byte> stamp_bytes(std::uint64_t value) {
  std::vector<std::byte> bytes(8);
  std::memcpy(bytes.data(), &value, sizeof(value));
  return bytes;
}

std::set<std::string> racy_areas(ThreadWorld& world) {
  std::set<std::string> names;
  for (const auto& report : world.races().unique_by_area()) {
    names.insert(report.area_name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Differential fuzzed slices (the tentpole contract)
// ---------------------------------------------------------------------------

fuzz::BackendDiffOptions quick_diff() {
  fuzz::BackendDiffOptions options;
  options.backend = fuzz::Backend::kBoth;
  options.thread_reps = 2;
  options.thread.timeout = std::chrono::milliseconds(10'000);
  return options;
}

/// The sim leg's grid: one schedule seed, the identity perturbation.
fuzz::FuzzCheckOptions quick_sim() {
  fuzz::FuzzCheckOptions options;
  options.schedule_seeds = 1;
  return options;
}

void expect_no_failures(const fuzz::BackendDiffResult& diff, const std::string& label) {
  for (const auto& failure : diff.thread.failures) ADD_FAILURE() << label << ": " << failure;
  ASSERT_TRUE(diff.sim.has_value()) << label;
  for (const auto& failure : diff.sim->failures) {
    ADD_FAILURE() << label << ": " << failure.describe();
  }
}

TEST(ThreadBackendDiff, CleanFuzzedSliceIsCleanOnBothBackends) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = false;
    const auto program = fuzz::generate_program(gen);
    ASSERT_EQ(program.expect, fuzz::Expectation::kClean);
    const auto diff = fuzz::check_program_backends(program, quick_sim(), quick_diff());
    expect_no_failures(diff, "s" + std::to_string(seed));
    EXPECT_EQ(diff.thread.manifested, 0u) << "seed " << seed;
    EXPECT_EQ(diff.sim->manifested_runs, 0u) << "seed " << seed;
    EXPECT_GT(diff.thread.checks, 0u);
  }
}

TEST(ThreadBackendDiff, AlwaysRacySliceIsFlaggedOnBothBackends) {
  for (const auto kind : {fuzz::BugKind::kDroppedEdge, fuzz::BugKind::kWrongLock}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      fuzz::GenConfig gen;
      gen.seed = seed;
      gen.plant_bug = true;
      gen.bug_kind = kind;
      const auto program = fuzz::generate_program(gen);
      ASSERT_EQ(program.expect, fuzz::Expectation::kRacy);
      const auto diff = fuzz::check_program_backends(program, quick_sim(), quick_diff());
      expect_no_failures(diff, std::string(fuzz::to_string(kind)) + " s" +
                                   std::to_string(seed));
      // "On every run" — manifested must equal the run count on both sides.
      EXPECT_EQ(diff.thread.manifested, diff.thread.runs);
      EXPECT_EQ(diff.sim->manifested_runs, diff.sim->report.runs.size());
    }
  }
}

TEST(ThreadBackendDiff, SometimesKindsAreInformationalNeverDivergences) {
  // Schedule-dependent kinds: real schedules legitimately differ from the
  // sim's, so manifestation is counted but never a failure.
  for (const auto kind : {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow}) {
    fuzz::GenConfig gen;
    gen.seed = 7;
    gen.plant_bug = true;
    gen.bug_kind = kind;
    const auto program = fuzz::generate_program(gen);
    ASSERT_EQ(program.expect, fuzz::Expectation::kSometimes);
    const auto diff = fuzz::check_program_backends(program, quick_sim(), quick_diff());
    expect_no_failures(diff, fuzz::to_string(kind));
  }
}

fuzz::FuzzSweepConfig quick_sweep(fuzz::Backend backend) {
  fuzz::FuzzSweepConfig sweep;
  sweep.seeds = util::SeedRange{1, 8};
  sweep.planted_fraction = 0.5;
  sweep.bug_kinds = fuzz::eligible_bug_kinds(sweep.base);
  sweep.check = quick_sim();
  sweep.diff = quick_diff();
  sweep.diff.backend = backend;
  return sweep;
}

TEST(ThreadBackendDiff, SweepSeedMappingMatchesUniformScheduleAndAggregates) {
  // threaded self-check is enough here.
  const auto result = fuzz::run_fuzz_sweep(quick_sweep(fuzz::Backend::kThreaded));
  EXPECT_EQ(result.programs, 8u);
  std::uint64_t clean = 0, racy = 0, sometimes = 0;
  for (const auto& outcome : result.outcomes) {
    clean += outcome.expect == fuzz::Expectation::kClean ? 1 : 0;
    racy += outcome.expect == fuzz::Expectation::kRacy ? 1 : 0;
    sometimes += outcome.expect == fuzz::Expectation::kSometimes ? 1 : 0;
  }
  EXPECT_EQ(clean + racy + sometimes, result.programs);
  EXPECT_EQ(result.thread.runs, 8u * 2u);
  // Every program got the record→replay treatment: one recorded run folded
  // offline plus two gate-forced replays, all matching the live verdicts.
  EXPECT_EQ(result.thread.record_replay_checks, 8u);
  EXPECT_GT(result.thread.checks, 0u);
  EXPECT_GT(result.thread.wall_ns, 0u);
  EXPECT_GT(result.thread.checks_per_sec(), 0.0);
  for (const auto& divergence : result.thread.failures) ADD_FAILURE() << divergence;
  // No sim leg ran.
  EXPECT_EQ(result.schedules, 0u);

  // One seed mapping for every backend: the threaded sweep draws exactly the
  // programs the uniform sim sweep draws on the same seeds.
  const auto sim = fuzz::run_fuzz_sweep(quick_sweep(fuzz::Backend::kSim));
  ASSERT_EQ(sim.outcomes.size(), result.outcomes.size());
  for (std::size_t i = 0; i < sim.outcomes.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].program_seed, sim.outcomes[i].program_seed);
    EXPECT_EQ(result.outcomes[i].arm, sim.outcomes[i].arm);
    EXPECT_EQ(result.outcomes[i].expect, sim.outcomes[i].expect);
    EXPECT_EQ(result.outcomes[i].bug, sim.outcomes[i].bug);
    EXPECT_EQ(result.outcomes[i].ops, sim.outcomes[i].ops);
  }
  EXPECT_EQ(sim.thread.runs, 0u);
}

TEST(ThreadBackendDiff, BothSweepRunsTheFullSimGridWithItsFaultHook) {
  // The sim leg of --backend both is check_program on the sweep's own
  // options, so the drop-live-reports hook reaches it: every always-racy
  // program fails planted-bug-not-detected on the sim side, while the
  // threaded leg (which the hook does not touch) still agrees.
  auto sweep = quick_sweep(fuzz::Backend::kBoth);
  sweep.seeds = util::SeedRange{1, 3};
  sweep.planted_fraction = 1.0;
  sweep.bug_kinds = {fuzz::BugKind::kDroppedEdge};
  net::FaultPlan hook;
  hook.drop_live_reports = true;
  sweep.check.fault_plans = {hook};
  const auto result = fuzz::run_fuzz_sweep(sweep);
  ASSERT_EQ(result.programs, 3u);
  for (const auto& outcome : result.outcomes) {
    ASSERT_EQ(outcome.expect, fuzz::Expectation::kRacy);
    ASSERT_FALSE(outcome.failures.empty()) << "s" << outcome.program_seed;
    for (const auto& failure : outcome.failures) {
      EXPECT_EQ(fuzz::check_name(failure.check), "planted-bug-not-detected");
    }
    EXPECT_EQ(outcome.thread.runs, 2u);
  }
  for (const auto& divergence : result.thread.failures) ADD_FAILURE() << divergence;
  EXPECT_EQ(result.schedules, 3u);
}

TEST(ThreadBackendDiff, ProgramsPastTheDefaultSegmentRunOnBothBackends) {
  // 80 areas of 64 KiB over 4 ranks: 1.25 MiB on each home, past the 1 MiB
  // runtime default, so both spawn paths must size their segment from the
  // program.
  fuzz::GenConfig gen;
  gen.seed = 1;
  gen.areas = 80;
  gen.area_bytes = 65536;
  for (const bool plant : {false, true}) {
    gen.plant_bug = plant;
    gen.bug_kind = fuzz::BugKind::kDroppedEdge;
    const auto program = fuzz::generate_program(gen);
    ASSERT_GT(fuzz::home_extent_bytes(program.nprocs, program.areas, program.area_bytes),
              std::uint64_t{1} << 20);
    const auto diff = fuzz::check_program_backends(program, quick_sim(), quick_diff());
    expect_no_failures(diff, plant ? "planted" : "clean");
    EXPECT_EQ(diff.thread.runs, 2u);
  }
}

// ---------------------------------------------------------------------------
// Shutdown and quiescence
// ---------------------------------------------------------------------------

TEST(ThreadBackend, QuiescentRunCompletesAndJoinsAllThreads) {
  ThreadWorld world(small_world(4));
  const auto area = world.alloc(0, 8, "ping");
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [area](ThreadProcess& p) {
      // A little ring of signals plus data ops: every rank both blocks and
      // wakes someone, then quiesces.
      const Rank next = static_cast<Rank>((p.rank() + 1) % p.nprocs());
      if (p.rank() == 0) p.put(area, stamp_bytes(1));
      p.signal(next, 10 + static_cast<std::uint64_t>(next));
      p.wait_signal(10 + static_cast<std::uint64_t>(p.rank()));
      p.get(area, 8);
    });
  }
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.stuck_ranks.empty());
  EXPECT_GT(report.checks, 0u);
  EXPECT_GT(report.wall_ns, 0u);
  // If the join-all contract broke, ASan/TSan builds of this test would
  // report leaked threads at exit.
}

TEST(ThreadBackend, OrphanedWaitBecomesStuckRankAndStillJoins) {
  ThreadWorldConfig config = small_world(3);
  config.run_timeout = std::chrono::milliseconds(200);
  ThreadWorld world(config);
  world.spawn(0, [](ThreadProcess& p) { p.wait_signal(42); });  // nobody signals.
  world.spawn(1, [](ThreadProcess& p) { p.sleep(1'000); });
  const auto report = world.run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.stuck_ranks, std::vector<Rank>{0});
}

TEST(ThreadBackend, StuckLockWaiterIsReportedNotWedged) {
  ThreadWorldConfig config = small_world(2);
  config.run_timeout = std::chrono::milliseconds(300);
  ThreadWorld world(config);
  const auto area = world.alloc(0, 8, "held");
  world.spawn(0, [area](ThreadProcess& p) {
    p.lock(area);
    p.signal(1, 98);    // rank 1 queues behind a lock that is already held.
    p.wait_signal(99);  // blocks forever while holding the lock.
  });
  world.spawn(1, [area](ThreadProcess& p) {
    p.wait_signal(98);
    p.lock(area);
  });
  const auto report = world.run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.stuck_ranks, (std::vector<Rank>{0, 1}));
}

// ---------------------------------------------------------------------------
// Inline detection on handwritten programs (debug builds cross-check every
// verdict against the full-VC oracle inside core::check_access)
// ---------------------------------------------------------------------------

TEST(ThreadBackend, DroppedEdgeIsFlaggedInlineOnEveryRealSchedule) {
  // The kDroppedEdge shape by hand: two ranks write the same third-rank
  // area with no synchronization. Whichever access the stripe mutex
  // serializes second observes a concurrent stored clock — flagged on
  // every real schedule, whatever the interleaving.
  for (int rep = 0; rep < 16; ++rep) {
    ThreadWorld world(small_world(3));
    const auto contested = world.alloc(2, 8, "contested");
    world.spawn(0, [contested](ThreadProcess& p) {
      p.sleep(500);
      p.put(contested, stamp_bytes(1));
    });
    world.spawn(1, [contested](ThreadProcess& p) { p.put(contested, stamp_bytes(2)); });
    const auto report = world.run();
    EXPECT_TRUE(report.completed);
    EXPECT_GE(report.race_count, 1u) << "rep " << rep;
    EXPECT_EQ(racy_areas(world), std::set<std::string>{"contested"});
  }
}

TEST(ThreadBackend, SignalEdgeOrdersTheSamePairClean) {
  for (int rep = 0; rep < 16; ++rep) {
    ThreadWorld world(small_world(3));
    const auto area = world.alloc(2, 8, "handoff");
    world.spawn(0, [area](ThreadProcess& p) {
      p.put(area, stamp_bytes(1));
      p.signal(1, 7);
    });
    world.spawn(1, [area](ThreadProcess& p) {
      p.wait_signal(7);
      p.put(area, stamp_bytes(2));
    });
    const auto report = world.run();
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.race_count, 0u) << "rep " << rep;
  }
}

TEST(ThreadBackend, LockHandoffOrdersCriticalSectionsClean) {
  for (int rep = 0; rep < 8; ++rep) {
    ThreadWorld world(small_world(4));
    const auto area = world.alloc(0, 8, "locked");
    for (Rank r = 0; r < 4; ++r) {
      world.spawn(r, [area](ThreadProcess& p) {
        for (int i = 0; i < 4; ++i) {
          p.lock(area);
          p.put(area, stamp_bytes(static_cast<std::uint64_t>(i)));
          p.get(area, 8);
          p.unlock(area);
        }
      });
    }
    const auto report = world.run();
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.race_count, 0u) << "rep " << rep;
    EXPECT_EQ(report.checks, 4u * 4u * 2u);
  }
}

TEST(ThreadBackend, ReadsDoNotRaceWithReadsUnderDualClock) {
  ThreadWorld world(small_world(4));
  const auto area = world.alloc(0, 8, "shared-read");
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [area](ThreadProcess& p) {
      for (int i = 0; i < 8; ++i) p.get(area, 8);
    });
  }
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.race_count, 0u);
}

// ---------------------------------------------------------------------------
// User-lock state: created by an area's first lock(), never at registration
// ---------------------------------------------------------------------------

/// Out-of-band start line for rank bodies: no ThreadProcess call, so it
/// adds no clock edge. Each caller arrives, then spins (yielding, bounded by
/// a generous deadline) until all `parties` have arrived.
void arrive_and_wait(std::atomic<int>& arrived, int parties) {
  arrived.fetch_add(1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < parties && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadBackend, RegistrationCreatesNoUserLockState) {
  ThreadWorldConfig config = small_world(2);
  config.segment_bytes = 1 << 20;
  ThreadWorld world(config);
  std::vector<mem::GlobalAddress> areas;
  for (int a = 0; a < 100'000; ++a) areas.push_back(world.alloc(0, 8, "a"));
  EXPECT_EQ(world.user_lock_count(0), 0u);
  // Data ops on registered areas take no user lock either.
  world.spawn(1, [&areas](ThreadProcess& p) {
    for (std::size_t a = 0; a < areas.size(); a += 1'000) {
      p.put(areas[a], stamp_bytes(a));
      p.get(areas[a], 8);
    }
  });
  ASSERT_TRUE(world.run().completed);
  EXPECT_EQ(world.user_lock_count(0), 0u);
  EXPECT_EQ(world.user_lock_count(1), 0u);
}

TEST(ThreadBackend, ConcurrentFirstLocksCreateOneLockPerArea) {
  constexpr int kRanks = 3;
  constexpr int kRounds = 200;
  // Targets: one fresh area, then two fresh areas whose ids collide mod the
  // shard count (ids 0 and `stripes`), so their first locks also race on
  // the same detector shard.
  for (const std::size_t targets : {std::size_t{1}, std::size_t{2}}) {
    for (int rep = 0; rep < 4; ++rep) {
      SCOPED_TRACE(std::to_string(targets) + " target(s), rep " + std::to_string(rep));
      ThreadWorldConfig config = small_world(kRanks);
      ThreadWorld world(config);
      std::vector<mem::GlobalAddress> areas;
      for (int a = 0; a <= config.stripes; ++a) {
        areas.push_back(world.alloc(0, 8, "area" + std::to_string(a)));
      }
      std::vector<mem::GlobalAddress> locked{areas.front()};
      if (targets == 2) locked.push_back(areas.back());
      // Plain counters, read and written only under the target's user lock:
      // TSan flags them unless the lock really excludes.
      std::vector<int> counters(targets, 0);
      std::atomic<int> arrived{0};
      for (Rank r = 0; r < kRanks; ++r) {
        world.spawn(r, [&, r](ThreadProcess& p) {
          arrive_and_wait(arrived, kRanks);  // every rank's first lock() at once.
          for (int round = 0; round < kRounds; ++round) {
            for (std::size_t k = 0; k < targets; ++k) {
              // Ranks visit the targets in different orders, so each
              // target's first lock races with the other's creation.
              const std::size_t t = (k + static_cast<std::size_t>(r)) % targets;
              p.lock(locked[t]);
              ++counters[t];
              p.get(locked[t], 8);
              p.put(locked[t], stamp_bytes(static_cast<std::uint64_t>(round)));
              p.unlock(locked[t]);
            }
          }
        });
      }
      const auto report = world.run();
      ASSERT_TRUE(report.completed);
      for (std::size_t t = 0; t < targets; ++t) {
        EXPECT_EQ(counters[t], kRanks * kRounds) << "target " << t;
      }
      EXPECT_EQ(report.race_count, 0u);
      EXPECT_EQ(world.user_lock_count(0), targets);
    }
  }
}

/// The world whose unlock the death test below expects to abort; read only
/// by that test's SIGABRT handler, in the dying child process.
const ThreadWorld* dying_world = nullptr;

TEST(ThreadBackendDeath, UnlockOfNeverLockedAreaDiesAndCreatesNoLockState) {
  EXPECT_EXIT(
      {
        ThreadWorld world(small_world(2));
        const auto held = world.alloc(0, 8, "held");
        const auto never = world.alloc(0, 8, "never-locked");
        world.spawn(0, [held, never](ThreadProcess& p) {
          p.lock(held);
          p.unlock(held);
          p.unlock(never);
        });
        // The panic aborts on the rank thread after unlock() has released
        // the lock-table mutex; the exit status reports what the table held
        // at that moment: only `held`'s lock (3), or anything else (4).
        // user_lock_count takes that mutex, which is not async-signal-safe:
        // should a later abort fire with it held, the alarm (whose default
        // action terminates) turns the hang into a failed exit status.
        dying_world = &world;
        std::signal(SIGABRT, [](int) {
          alarm(10);
          std::_Exit(dying_world->user_lock_count(0) == 1 ? 3 : 4);
        });
        world.run();
      },
      testing::ExitedWithCode(3), "unlock of an unheld lock on area never-locked");
}

// ---------------------------------------------------------------------------
// Satellite regressions: area resolution, counter sharding
// ---------------------------------------------------------------------------

TEST(ThreadBackend, SimNicResolveIsSafeAndExactUnderEightThreads) {
  // Regression held across two generations of resolver: the original
  // one-entry mutable member cache (a data race under TSan and a stale-hit
  // source), then a thread_local keyed cache, now a direct delegation to the
  // segment's read-only index. Concurrent lookups must stay exact and
  // TSan-clean with no per-thread state at all.
  runtime::WorldConfig config;
  config.nprocs = 2;
  runtime::World world(config);
  std::vector<mem::GlobalAddress> areas;
  for (int a = 0; a < 4; ++a) {
    areas.push_back(world.alloc(0, 64, "area" + std::to_string(a)));
  }
  auto& nic = world.nic(0);
  std::vector<std::thread> threads;
  std::vector<int> wrong_counts(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &nic, &areas, &wrong_counts]() {
      for (int i = 0; i < 20'000; ++i) {
        // Each thread walks the areas in its own order, so the old shared
        // entry would have been overwritten under every thread constantly.
        const auto& addr = areas[static_cast<std::size_t>((i + t) % 4)];
        const mem::Area* area = nic.resolve(0, addr.offset, 8);
        if (area == nullptr || area->offset != addr.offset) ++wrong_counts[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(wrong_counts[t], 0) << "thread " << t;
}

TEST(ThreadBackend, TrafficShardsFoldToExactPerTypeCounts) {
  ThreadWorld world(small_world(4));
  std::vector<mem::GlobalAddress> areas;
  for (Rank r = 0; r < 4; ++r) {
    areas.push_back(world.alloc(r, 8, "a" + std::to_string(r)));
  }
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [&areas](ThreadProcess& p) {
      const auto target = areas[static_cast<std::size_t>((p.rank() + 1) % p.nprocs())];
      for (int i = 0; i < 3; ++i) p.put(target, stamp_bytes(7));
      for (int i = 0; i < 2; ++i) p.get(target, 8);
      p.signal(static_cast<Rank>((p.rank() + 1) % p.nprocs()), 5);
      p.wait_signal(5);
    });
  }
  const auto report = world.run();
  ASSERT_TRUE(report.completed);
  const auto traffic = world.traffic();
  EXPECT_EQ(traffic.messages_by_type.at(net::MsgType::kPutCommit), 4u * 3u);
  EXPECT_EQ(traffic.messages_by_type.at(net::MsgType::kPutCommitAck), 4u * 3u);
  EXPECT_EQ(traffic.messages_by_type.at(net::MsgType::kGetLockedRequest), 4u * 2u);
  EXPECT_EQ(traffic.messages_by_type.at(net::MsgType::kGetLockedResponse), 4u * 2u);
  EXPECT_EQ(traffic.messages_by_type.at(net::MsgType::kSignal), 4u);
  EXPECT_EQ(traffic.total_messages, 4u * (3u + 3u + 2u + 2u) + 4u);
  // One inline check per one-sided data op.
  EXPECT_EQ(report.checks, 4u * (3u + 2u));
  // Payload bytes: 8 per put commit and per get response, charged once.
  EXPECT_EQ(traffic.payload_bytes, (4u * 3u + 4u * 2u) * 8u);
}

/// Folded ledger of a fixed three-rank program whose ranks run strictly one
/// after another (each waits for the previous rank's signal), so every
/// clock, and therefore every charged clock byte, is the same on every run.
/// Covers put, get, lock, unlock and signal (with and without payload).
/// Rank 0 first ticks its clock past 127, so a clock that has seen rank 0
/// charges a two-byte LEB128 component: the pinned byte counts tell which
/// clock each message carried, not just how many clocks there were.
net::TrafficCounters serialized_program_ledger(bool acked_puts) {
  ThreadWorldConfig config = small_world(3);
  config.acked_puts = acked_puts;
  ThreadWorld world(config);
  const auto a = world.alloc(2, 8, "a");
  const auto b = world.alloc(1, 16, "b");
  const auto l = world.alloc(0, 8, "l");
  world.spawn(0, [a, b, l](ThreadProcess& p) {
    for (int i = 0; i < 200; ++i) p.compute(0);
    p.put(a, stamp_bytes(1));
    p.get(b, 16);
    p.lock(l);
    p.put(l, stamp_bytes(2));
    p.unlock(l);
    p.signal(1, 1, std::vector<std::byte>(4));
    p.wait_signal(3);
    p.get(a, 8);
    p.lock(l);
    p.unlock(l);
  });
  world.spawn(1, [a, b, l](ThreadProcess& p) {
    p.wait_signal(1);
    p.get(a, 8);
    p.put(b, std::vector<std::byte>(16));
    p.lock(l);
    p.get(l, 8);
    p.unlock(l);
    p.signal(2, 2);
  });
  world.spawn(2, [a, b](ThreadProcess& p) {
    p.wait_signal(2);
    p.put(a, stamp_bytes(3));
    p.get(b, 16);
    p.signal(0, 3, std::vector<std::byte>(2));
  });
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.race_count, 0u);
  return world.traffic();
}

TEST(ThreadBackend, LedgerOfSerializedProgramIsPinned) {
  struct Pinned {
    bool acked_puts;
    std::uint64_t total_bytes;
    std::uint64_t clock_bytes;
  };
  for (const Pinned& pinned : {Pinned{true, 1395, 93}, Pinned{false, 1381, 79}}) {
    SCOPED_TRACE(pinned.acked_puts ? "acked" : "unacked");
    const net::TrafficCounters t = serialized_program_ledger(pinned.acked_puts);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kPutCommit), 4u);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kPutCommitAck), 4u);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kGetLockedRequest), 5u);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kGetLockedResponse), 5u);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kLockRequest), 3u);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kLockGrant), 3u);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kUnlock), 3u);
    EXPECT_EQ(t.messages_by_type.at(net::MsgType::kSignal), 3u);
    EXPECT_EQ(t.total_messages, 30u);
    EXPECT_EQ(t.data_path_messages, 14u);
    // Puts 8+8+16+8, gets 16+8+8+8+16, signal payloads 4+2.
    EXPECT_EQ(t.payload_bytes, 102u);
    EXPECT_EQ(t.clock_bytes, pinned.clock_bytes);
    EXPECT_EQ(t.total_bytes, pinned.total_bytes);
    EXPECT_EQ(t.total_bytes, 30u * net::Message::kHeaderBytes + 102u + t.clock_bytes);
  }
}

TEST(ThreadBackend, Figure2MessageCountsWithDetectionOff) {
  // Threaded twin of the sim's Runtime.Figure2MessageCounts: at kOff a put
  // is one data-path message plus its ack, a get is two, and no detection
  // clock is charged to the wire. Signals keep theirs: they are the
  // program's own synchronization.
  ThreadWorldConfig config = small_world(2);
  config.mode = core::DetectorMode::kOff;
  {
    ThreadWorld world(config);
    const auto x = world.alloc(1, 8, "x");
    world.spawn(0, [x](ThreadProcess& p) { p.put(x, stamp_bytes(1)); });
    ASSERT_TRUE(world.run().completed);
    const auto traffic = world.traffic();
    EXPECT_EQ(traffic.total_messages, 2u);      // commit + ack.
    EXPECT_EQ(traffic.data_path_messages, 1u);  // "put involves one message".
    EXPECT_EQ(traffic.clock_bytes, 0u);         // detection off: nothing charged.
  }
  {
    ThreadWorld world(config);
    const auto y = world.alloc(1, 8, "y");
    world.spawn(0, [y](ThreadProcess& p) { p.get(y, 8); });
    ASSERT_TRUE(world.run().completed);
    const auto traffic = world.traffic();
    EXPECT_EQ(traffic.total_messages, 2u);      // request + response.
    EXPECT_EQ(traffic.data_path_messages, 2u);  // "get involves two".
    EXPECT_EQ(traffic.clock_bytes, 0u);
  }
  {
    ThreadWorld world(config);
    const auto z = world.alloc(1, 8, "z");
    world.spawn(0, [z](ThreadProcess& p) {
      p.lock(z);
      p.unlock(z);
      p.signal(1, 4);
    });
    world.spawn(1, [](ThreadProcess& p) { p.wait_signal(4); });
    ASSERT_TRUE(world.run().completed);
    const auto traffic = world.traffic();
    EXPECT_EQ(traffic.total_messages, 4u);  // lock request + grant, unlock, signal.
    // Only the signal's clock is on the wire: rank 0 ticked lock, unlock
    // and signal, so it sends (3, 0) at one LEB128 byte per component.
    EXPECT_EQ(traffic.clock_bytes, 2u);
  }
}

TEST(ThreadBackend, TrafficCountersMergeAddsEveryField) {
  net::TrafficCounters a;
  net::TrafficCounters b;
  net::Message m;
  m.type = net::MsgType::kPutCommit;
  m.data.resize(16);
  a.record(m);
  b.record(m);
  b.record(m);
  b.retry_messages = 3;
  b.faults_injected = 2;
  a.merge(b);
  EXPECT_EQ(a.messages_by_type.at(net::MsgType::kPutCommit), 3u);
  EXPECT_EQ(a.total_messages, 3u);
  EXPECT_EQ(a.payload_bytes, 48u);
  EXPECT_EQ(a.retry_messages, 3u);
  EXPECT_EQ(a.faults_injected, 2u);
}

}  // namespace
}  // namespace dsmr
