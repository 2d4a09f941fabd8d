// The exhaustive-exploration subsystem (ROADMAP item 4): the independence
// relation's commutation property (both execution orders of a co-enabled
// pair reach bit-identical model state iff the relation says they commute,
// and a deliberately coarsened relation fails that test), DPOR+sleep-set
// exploration cross-checked against naive full enumeration (same verdict
// signature set, strictly fewer interleavings), witness logs that replay
// through the offline fold AND back onto real OS threads via ReplayGate,
// deterministic counters, the eligibility size gate, and the fuzz-harness
// integration (FuzzCheckOptions::exhaustive).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "explore/dpor.hpp"
#include "explore/executor.hpp"
#include "explore/model.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/program.hpp"
#include "fuzz/thread_harness.hpp"
#include "record/log.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "util/rng.hpp"

namespace dsmr::explore {
namespace {

fuzz::Op make_access(fuzz::OpKind kind, int area, bool locked = false,
                     int lock = -1) {
  fuzz::Op op;
  op.kind = kind;
  op.area = area;
  op.locked = locked;
  op.lock = lock;
  return op;
}

fuzz::Op make_sleep(sim::Time duration = 100) {
  fuzz::Op op;
  op.kind = fuzz::OpKind::kSleep;
  op.duration = duration;
  return op;
}

/// A validated single-phase program from per-rank op rows.
fuzz::Program make_program(int nprocs, int areas,
                           std::vector<std::vector<fuzz::Op>> rows,
                           fuzz::Expectation expect = fuzz::Expectation::kClean) {
  fuzz::Program program;
  program.nprocs = nprocs;
  program.areas = areas;
  program.area_bytes = 8;
  program.expect = expect;
  fuzz::Phase phase;
  phase.ops = std::move(rows);
  program.phases = {phase};
  std::string error;
  EXPECT_TRUE(fuzz::validate(program, &error)) << error;
  return program;
}

/// The generator slice dsmr_explore --exhaustive runs (small by
/// construction; every planted shape fits the size gate).
fuzz::GenConfig slice_config(std::uint64_t seed, int nprocs = 3) {
  fuzz::GenConfig config;
  config.seed = seed;
  config.nprocs = nprocs;
  config.areas = nprocs + 1;
  config.area_bytes = 8;
  config.phases = 2;
  config.max_ops_per_rank = 1;
  config.max_sync_edges = 1;
  config.collective_fraction = 0.0;
  return config;
}

/// Full model state under one interleaving: scheduler state (cursors,
/// counts, mailbox FIFO order) + the detector fold state of the synthesized
/// event stream. Two interleavings are equivalent iff these match.
std::string model_state_digest(const Executor& executor, const FlatProgram& flat) {
  const record::Log log =
      make_witness_log(flat, executor.events(), core::DetectorMode::kDualClock,
                       /*completed=*/false, /*stuck=*/{});
  return executor.scheduler_digest() + "\n--- fold ---\n" +
         record::replay_state_digest(log, core::DetectorMode::kDualClock);
}

/// Property core: random-walks `program`, and at every visited state checks
/// each co-enabled pair both ways. Returns (pairs checked, violations) —
/// a violation is a pair whose commutation disagrees with `independence`.
struct PropertyResult {
  std::uint64_t pairs = 0;
  std::uint64_t dependent_pairs = 0;
  std::uint64_t violations = 0;
};

PropertyResult check_independence_property(const fuzz::Program& program,
                                           std::uint64_t walk_seed,
                                           const IndependenceOptions& independence) {
  PropertyResult result;
  const FlatProgram flat = flatten_program(program);
  util::Rng rng(walk_seed);
  Executor executor(&flat);
  while (!executor.all_done()) {
    const std::vector<Rank> enabled = executor.enabled();
    EXPECT_FALSE(enabled.empty()) << "generated program deadlocked";
    if (enabled.empty()) return result;
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      for (std::size_t j = i + 1; j < enabled.size(); ++j) {
        const Rank a = enabled[i], b = enabled[j];
        const ExecutedStep pa = executor.peek_executed(a);
        const ExecutedStep pb = executor.peek_executed(b);
        const bool dep = dependent(pa, pb, flat.nprocs, independence);
        Executor ab = executor;
        ab.execute(a);
        ab.execute(b);
        Executor ba = executor;
        ba.execute(b);
        ba.execute(a);
        const bool same =
            model_state_digest(ab, flat) == model_state_digest(ba, flat);
        ++result.pairs;
        if (dep) ++result.dependent_pairs;
        if (same != !dep) ++result.violations;
      }
    }
    const std::size_t pick = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(enabled.size())));
    executor.execute(enabled[pick]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Satellite 1: the independence relation's commutation property.
// ---------------------------------------------------------------------------

// Both orders of every co-enabled pair reach bit-identical model state
// (scheduler + detector fold) exactly when the relation says they commute —
// over the same generated slice the exhaustive CLI certifies, planted bugs
// included, plus extra walks per program for state diversity.
TEST(Independence, CommutationPropertyOnGeneratedSlice) {
  PropertyResult total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    fuzz::GenConfig config = slice_config(seed);
    if (fuzz::plant_for_seed(seed, 0.5)) {
      config.plant_bug = true;
      config.bug_kind = fuzz::kind_for_seed(
          seed, {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow});
    }
    const fuzz::Program program = fuzz::generate_program(config);
    for (std::uint64_t walk = 0; walk < 3; ++walk) {
      const auto result =
          check_independence_property(program, seed * 100 + walk, {});
      total.pairs += result.pairs;
      total.dependent_pairs += result.dependent_pairs;
      total.violations += result.violations;
    }
  }
  EXPECT_EQ(total.violations, 0u);
  // Teeth: the walks must actually have exercised both sides.
  EXPECT_GT(total.pairs, 500u);
  EXPECT_GT(total.dependent_pairs, 10u);
  EXPECT_GT(total.pairs - total.dependent_pairs, 100u);
}

// Same-area read/read pairs are dependent: ShardedDetector::store_access
// overwrites the stored V clock on every access, reads included, so the
// orders do not commute in detector state. A relation marking them
// independent would fail the property.
TEST(Independence, ReadReadSameAreaIsDependent) {
  const fuzz::Program program = make_program(
      2, 1,
      {{make_access(fuzz::OpKind::kGet, 0)}, {make_access(fuzz::OpKind::kGet, 0)}});
  const FlatProgram flat = flatten_program(program);
  Executor executor(&flat);
  const ExecutedStep p0 = executor.peek_executed(0);
  const ExecutedStep p1 = executor.peek_executed(1);
  EXPECT_TRUE(dependent(p0, p1, flat.nprocs, {}));
  Executor ab = executor;
  ab.execute(0);
  ab.execute(1);
  Executor ba = executor;
  ba.execute(1);
  ba.execute(0);
  EXPECT_NE(model_state_digest(ab, flat), model_state_digest(ba, flat));
}

// The deliberately coarsened relation (accesses dependent iff same HOME)
// must FAIL the iff-property: different areas with a shared home genuinely
// commute in the thread model, so declaring them dependent is a violation.
// This proves the property test has teeth — it rejects wrong relations in
// both directions, not just unsound ones.
TEST(Independence, CoarsenedRelationFailsTheProperty) {
  // Areas 0 and 3 share home 0 when nprocs = 3.
  const fuzz::Program program = make_program(
      3, 4,
      {{make_access(fuzz::OpKind::kPut, 0)}, {make_access(fuzz::OpKind::kPut, 3)}, {}});
  IndependenceOptions exact;
  IndependenceOptions coarse;
  coarse.coarse_same_home = true;

  const auto exact_result = check_independence_property(program, 7, exact);
  EXPECT_EQ(exact_result.violations, 0u);
  EXPECT_GT(exact_result.pairs, 0u);

  const auto coarse_result = check_independence_property(program, 7, coarse);
  EXPECT_GT(coarse_result.violations, 0u);
}

// ---------------------------------------------------------------------------
// Satellite 2: DPOR + sleep sets vs naive full enumeration.
// ---------------------------------------------------------------------------

// Over programs small enough for naive enumeration to finish, DPOR+sleep
// must visit the same verdict-signature set with fewer interleavings —
// >= 2x fewer in aggregate (the acceptance floor), strictly fewer on at
// least one program.
TEST(Dpor, MatchesNaiveEnumerationWithFewerInterleavings) {
  std::vector<fuzz::Program> programs;
  // Crafted: two ranks, disjoint then overlapping puts (one racy pair).
  programs.push_back(make_program(
      2, 2,
      {{make_access(fuzz::OpKind::kPut, 0), make_access(fuzz::OpKind::kPut, 1)},
       {make_access(fuzz::OpKind::kPut, 1)}},
      fuzz::Expectation::kSometimes));
  // Generated 2-rank slice (no plantable kinds below 3 ranks: all clean).
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    programs.push_back(fuzz::generate_program(slice_config(seed, 2)));
  }

  ExploreOptions reduced;
  ExploreOptions naive;
  naive.dpor = false;
  naive.sleep_sets = false;

  std::uint64_t total_reduced = 0, total_naive = 0, strictly_fewer = 0;
  for (const fuzz::Program& program : programs) {
    const ExploreReport fast = explore_program(program, reduced);
    const ExploreReport full = explore_program(program, naive);
    ASSERT_TRUE(fast.complete) << fast.limit;
    ASSERT_TRUE(full.complete) << full.limit;
    EXPECT_EQ(fast.signatures, full.signatures);
    EXPECT_EQ(fast.racy_areas, full.racy_areas);
    EXPECT_LE(fast.interleavings, full.interleavings);
    EXPECT_EQ(fast.deadlocks, 0u);
    EXPECT_EQ(full.deadlocks, 0u);
    if (fast.interleavings < full.interleavings) ++strictly_fewer;
    total_reduced += fast.interleavings;
    total_naive += full.interleavings;
  }
  EXPECT_GT(strictly_fewer, 0u);
  EXPECT_GE(total_naive, 2 * total_reduced)
      << "pruning below the 2x acceptance floor: " << total_naive << " naive vs "
      << total_reduced << " reduced";
}

// Sleep sets alone must not change the signature set either (they compose
// with DPOR; the reduction is sound at every setting).
TEST(Dpor, SleepSetsPreserveSignatures) {
  const fuzz::Program program = fuzz::generate_program(slice_config(3, 2));
  ExploreOptions with;
  ExploreOptions without;
  without.sleep_sets = false;
  const ExploreReport a = explore_program(program, with);
  const ExploreReport b = explore_program(program, without);
  ASSERT_TRUE(a.complete && b.complete);
  EXPECT_EQ(a.signatures, b.signatures);
  EXPECT_LE(a.interleavings, b.interleavings);
}

// ---------------------------------------------------------------------------
// Tentpole: the exhaustive fuzz-grid invariant.
// ---------------------------------------------------------------------------

// Over the CLI's generated slice every program is eligible, every
// kSometimes planted bug is FOUND somewhere in the reduced space, every
// clean program CERTIFIES clean, and nothing deadlocks.
TEST(Exhaustive, PlantedBugsFoundAndCleanCertifiedOnSlice) {
  std::uint64_t sometimes = 0, clean = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    fuzz::GenConfig config = slice_config(seed);
    if (fuzz::plant_for_seed(seed, 0.5)) {
      config.plant_bug = true;
      config.bug_kind = fuzz::kind_for_seed(
          seed, {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow});
    }
    const fuzz::Program program = fuzz::generate_program(config);
    const Eligibility eligibility = exhaustive_eligible(program);
    ASSERT_TRUE(eligibility.eligible) << "seed " << seed << ": " << eligibility.reason;
    const ExploreReport report = explore_program(program);
    const std::vector<std::string> failures = check_exhaustive(program, report);
    EXPECT_TRUE(failures.empty())
        << "seed " << seed << ": " << failures.front();
    if (program.expect == fuzz::Expectation::kSometimes) {
      ++sometimes;
      EXPECT_GE(report.planted_flagged, 1u) << "seed " << seed;
    }
    if (program.expect == fuzz::Expectation::kClean) {
      ++clean;
      EXPECT_TRUE(report.certified_clean()) << "seed " << seed;
    }
  }
  // The slice must actually contain both populations.
  EXPECT_GT(sometimes, 5u);
  EXPECT_GT(clean, 5u);
}

// Identical counters and signature sets across repeated explorations —
// the whole search is deterministic, so CI failures replay exactly.
TEST(Exhaustive, DeterministicAcrossRuns) {
  fuzz::GenConfig config = slice_config(4);
  config.plant_bug = true;
  config.bug_kind = fuzz::BugKind::kPartialBarrier;
  const fuzz::Program program = fuzz::generate_program(config);
  const ExploreReport a = explore_program(program);
  const ExploreReport b = explore_program(program);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.interleavings, b.interleavings);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.sleep_blocked, b.sleep_blocked);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.pruned_branches, b.pruned_branches);
  EXPECT_EQ(a.racy_interleavings, b.racy_interleavings);
  EXPECT_EQ(a.planted_flagged, b.planted_flagged);
  EXPECT_EQ(a.signatures, b.signatures);
  EXPECT_EQ(a.racy_areas, b.racy_areas);
  EXPECT_EQ(a.witnesses.size(), b.witnesses.size());
}

// Tripping --max-interleavings leaves the report incomplete and
// check_exhaustive reports it as a limit failure (nothing is certified).
TEST(Exhaustive, TrippedBudgetIsALimitFailureNotACertificate) {
  const fuzz::Program program = fuzz::generate_program(slice_config(6));
  ExploreOptions options;
  options.max_interleavings = 1;
  const ExploreReport report = explore_program(program, options);
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.limit.empty());
  EXPECT_FALSE(report.certified_clean());
  const std::vector<std::string> failures = check_exhaustive(program, report);
  ASSERT_FALSE(failures.empty());
  EXPECT_EQ(failures.front().rfind("explore-limit", 0), 0u) << failures.front();
}

// ---------------------------------------------------------------------------
// Satellite 3: witnesses replay — offline fold and real threads.
// ---------------------------------------------------------------------------

// Every exported witness is a complete record/ log whose events fold to the
// signature in its live footer (check_record_replay), and whose gated
// replay on a real ThreadWorld (ReplayGate) reproduces that signature
// bit-identically. One planted program per kSometimes kind.
TEST(Witness, ReplaysThroughFoldAndRealThreads) {
  for (const fuzz::BugKind kind :
       {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow}) {
    // First slice seed whose planted program carries `kind`.
    fuzz::Program program;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
      fuzz::GenConfig config = slice_config(seed);
      config.plant_bug = true;
      config.bug_kind = kind;
      program = fuzz::generate_program(config);
      found = exhaustive_eligible(program).eligible;
    }
    ASSERT_TRUE(found) << "no eligible program for kind " << fuzz::to_string(kind);

    const ExploreReport report = explore_program(program);
    ASSERT_TRUE(report.complete) << report.limit;
    ASSERT_GE(report.planted_flagged, 1u) << fuzz::to_string(kind);
    ASSERT_FALSE(report.witnesses.empty());

    for (const record::Log& log : report.witnesses) {
      // The witness round-trips the wire format and folds to its footer.
      std::string error;
      const auto reparsed = record::Log::parse(log.serialize(), &error);
      ASSERT_TRUE(reparsed.has_value()) << error;
      const record::Log& parsed = *reparsed;
      EXPECT_EQ(record::check_record_replay(parsed), "");
      ASSERT_NE(parsed.find_metadata("schedule"), nullptr);

      // Gated replay on real OS threads reproduces the folded verdict.
      fuzz::ThreadRunOptions replaying;
      replaying.replay = &parsed;
      const fuzz::ThreadProgramOutcome outcome =
          fuzz::run_program_threaded(program, replaying);
      const record::AreaIndex areas = record::make_area_index(parsed.areas);
      const record::VerdictSignature signature = record::make_signature(
          areas, outcome.reports, outcome.report.completed,
          outcome.report.stuck_ranks);
      EXPECT_TRUE(signature == parsed.live)
          << fuzz::to_string(kind) << ": thread replay " << signature.to_string()
          << " vs witness " << parsed.live.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// The eligibility size gate.
// ---------------------------------------------------------------------------

TEST(Eligibility, GateOnRanksAndNonTickOps) {
  // Too many ranks.
  fuzz::GenConfig big = slice_config(1, 3);
  big.nprocs = 4;
  big.areas = 5;
  const Eligibility ranks = exhaustive_eligible(fuzz::generate_program(big));
  EXPECT_FALSE(ranks.eligible);
  EXPECT_NE(ranks.reason.find("ranks"), std::string::npos);

  // Nine non-tick ops on one rank: over the gate.
  std::vector<fuzz::Op> row;
  for (int i = 0; i < 9; ++i) row.push_back(make_access(fuzz::OpKind::kPut, 0));
  const Eligibility ops =
      exhaustive_eligible(make_program(2, 1, {row, {}}));
  EXPECT_FALSE(ops.eligible);
  EXPECT_NE(ops.reason.find("ops"), std::string::npos);

  // Sleeps flatten to ticks and do not count: 6 sleeps + 2 puts passes.
  std::vector<fuzz::Op> ticks;
  for (int i = 0; i < 6; ++i) ticks.push_back(make_sleep());
  ticks.push_back(make_access(fuzz::OpKind::kPut, 0));
  ticks.push_back(make_access(fuzz::OpKind::kPut, 0));
  EXPECT_TRUE(exhaustive_eligible(make_program(2, 1, {ticks, {}})).eligible);
}

// ---------------------------------------------------------------------------
// Satellite: the fuzz-harness integration (FuzzCheckOptions::exhaustive).
// ---------------------------------------------------------------------------

TEST(HarnessIntegration, ExhaustiveInvariantRunsInsideCheckProgram) {
  fuzz::GenConfig config = slice_config(4);
  config.plant_bug = true;
  config.bug_kind = fuzz::BugKind::kPartialBarrier;
  const fuzz::Program program = fuzz::generate_program(config);

  fuzz::FuzzCheckOptions options;
  options.schedule_seeds = 1;
  options.exhaustive = true;
  const fuzz::ProgramVerdict verdict = fuzz::check_program(program, options);
  EXPECT_TRUE(verdict.explored);
  EXPECT_TRUE(verdict.explore_skipped.empty()) << verdict.explore_skipped;
  EXPECT_GE(verdict.explored_interleavings, 1u);
  EXPECT_GE(verdict.explored_planted_flagged, 1u);
  for (const auto& failure : verdict.failures) {
    ADD_FAILURE() << failure.check << ": " << failure.detail;
  }
}

TEST(HarnessIntegration, OversizedProgramsAreSkippedNotFailed) {
  fuzz::GenConfig config = slice_config(2, 3);
  config.nprocs = 4;  // over the rank gate.
  config.areas = 5;
  const fuzz::Program program = fuzz::generate_program(config);
  fuzz::FuzzCheckOptions options;
  options.schedule_seeds = 1;
  options.exhaustive = true;
  const fuzz::ProgramVerdict verdict = fuzz::check_program(program, options);
  EXPECT_FALSE(verdict.explored);
  EXPECT_FALSE(verdict.explore_skipped.empty());
  EXPECT_TRUE(verdict.passed())
      << verdict.failures.front().check << ": " << verdict.failures.front().detail;
}

}  // namespace
}  // namespace dsmr::explore
