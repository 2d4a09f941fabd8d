// The record/replay subsystem: varint round-trips (the one shared integer
// wire encoding), log serialize/parse round-trips, structured diagnostics
// for every corruption mode, and the core equivalence — folding a recorded
// event stream through the shared detector reproduces the live detector's
// verdicts bit-identically, including for mode=off recordings folded under
// full dual-clock detection (the always-on production story).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "net/fault.hpp"
#include "record/log.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "runtime/process.hpp"
#include "runtime/thread_world.hpp"
#include "runtime/world.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace dsmr::record {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::ThreadProcess;
using runtime::ThreadWorld;
using runtime::ThreadWorldConfig;
using runtime::World;
using runtime::WorldConfig;

// ---------------------------------------------------------------------------
// Varint round-trip property (the shared encoding: clocks + event log).
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripProperty) {
  util::Rng rng(0xbeef);
  std::vector<std::uint64_t> values = {0,      1,       127,        128,
                                       16383,  16384,   (1u << 21), ~std::uint64_t{0},
                                       ~std::uint64_t{0} >> 1};
  for (int i = 0; i < 2000; ++i) {
    // Magnitude-stratified: uniform over bit widths, then over values.
    const int bits = static_cast<int>(rng.below(64)) + 1;
    values.push_back(rng.next() >> (64 - bits));
  }
  std::vector<std::byte> buffer;
  for (const std::uint64_t v : values) {
    const std::size_t start = buffer.size();
    util::put_varint(buffer, v);
    EXPECT_EQ(buffer.size() - start, util::varint_size(v));
  }
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    const auto decoded = util::try_get_varint(buffer, &pos);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(Varint, TruncationAndOverflowAreRejected) {
  std::vector<std::byte> buffer;
  util::put_varint(buffer, ~std::uint64_t{0});
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    std::size_t pos = 0;
    EXPECT_FALSE(util::try_get_varint({buffer.data(), cut}, &pos).has_value())
        << "cut " << cut;
  }
  // An 11-byte varint (or a 10th byte carrying more than the top bit)
  // would overflow 64 bits and must be rejected, not wrapped.
  std::vector<std::byte> overflow(10, std::byte{0x80});
  overflow.push_back(std::byte{0x01});
  std::size_t pos = 0;
  EXPECT_FALSE(util::try_get_varint(overflow, &pos).has_value());
  std::vector<std::byte> high_tenth(9, std::byte{0x80});
  high_tenth.push_back(std::byte{0x02});
  pos = 0;
  EXPECT_FALSE(util::try_get_varint(high_tenth, &pos).has_value());
}

// ---------------------------------------------------------------------------
// Log wire format.
// ---------------------------------------------------------------------------

Log sample_log() {
  Log log;
  log.header.nprocs = 3;
  log.header.backend = Backend::kSim;
  log.header.mode = core::DetectorMode::kDualClock;
  log.header.lock_clock_handoff = true;
  log.header.acked_puts = false;
  log.areas = {{0, 64, "x"}, {1, 8, "flag"}, {2, 4096, ""}};
  log.metadata = {{"program", "put 0 x\n"}, {"schedule_seed", "42"}};
  log.events = {
      {EventKind::kTick, 2},
      {EventKind::kPutIssue, 0, 1},
      {EventKind::kPutApply, 0, 1, 8},
      {EventKind::kSignal, 0, 2, 7},
      {EventKind::kWaitMatch, 2, 0, 7, 3},
      {EventKind::kThreadPut, 1, 0, 128},
  };
  log.live.completed = true;
  log.live.stuck_ranks = {};
  log.live.races = {{1, 2, core::AccessKind::kWrite, 2}};
  return log;
}

/// Rewrites the trailing checksum after a deliberate mutation, so the test
/// reaches the structural diagnostic behind the integrity check.
void fix_checksum(std::vector<std::byte>& bytes) {
  const std::uint64_t checksum = fnv1a({bytes.data(), bytes.size() - 8});
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((checksum >> (8 * i)) & 0xff);
  }
}

TEST(RecordLog, SerializeParseRoundTrip) {
  const Log log = sample_log();
  const std::vector<std::byte> bytes = log.serialize();
  std::string error;
  const auto parsed = Log::parse(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, log);
  // Serialization is canonical: parse → serialize is the identity.
  EXPECT_EQ(parsed->serialize(), bytes);
}

TEST(RecordLog, EmptyLogRoundTrips) {
  Log log;
  log.header.nprocs = 1;
  std::string error;
  const auto parsed = Log::parse(log.serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, log);
}

TEST(RecordLog, TinyFileIsTruncated) {
  std::string error;
  EXPECT_FALSE(Log::parse({}, &error).has_value());
  EXPECT_TRUE(error.starts_with("[truncated]")) << error;
  const std::vector<std::byte> half = {std::byte{'D'}, std::byte{'S'},
                                       std::byte{'M'}, std::byte{'R'}};
  EXPECT_FALSE(Log::parse(half, &error).has_value());
  EXPECT_TRUE(error.starts_with("[truncated]")) << error;
}

TEST(RecordLog, BadMagicIsStructured) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes[0] = std::byte{'X'};
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-magic]")) << error;
}

TEST(RecordLog, VersionMismatchIsStructured) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes[8] = std::byte{static_cast<std::uint8_t>(kVersion + 7)};  // version varint
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-version]")) << error;
}

TEST(RecordLog, BitFlipFailsTheChecksum) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[checksum-mismatch]")) << error;
}

TEST(RecordLog, LengthConsistentTruncationIsStructural) {
  // Drop the tail of the event stream but re-seal the checksum: integrity
  // passes, structure must still fail loudly.
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes.erase(bytes.end() - 20, bytes.end() - 8);
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[truncated]")) << error;
}

TEST(RecordLog, UnknownEventKindIsStructured) {
  Log log = sample_log();
  log.metadata.clear();
  std::vector<std::byte> bytes = log.serialize();
  // The first event starts right after the one-byte event count; find it by
  // re-serializing without events and diffing lengths.
  Log no_events = log;
  no_events.events.clear();
  const std::size_t prefix = no_events.serialize().size() - 8 -
                             1 /*event count varint (0 and 6 both 1 byte)*/;
  bytes[prefix + 1] = std::byte{0xee};
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-event-kind]")) << error;
}

TEST(RecordLog, TrailingGarbageIsStructured) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes.insert(bytes.end() - 8, std::byte{0x00});
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[trailing-garbage]")) << error;
}

TEST(RecordLog, HeaderRangeIsValidated) {
  Log log = sample_log();
  log.header.mode = static_cast<core::DetectorMode>(9);
  std::vector<std::byte> bytes = log.serialize();
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-field]")) << error;
}

TEST(RecordLog, RankCountIsBoundedSoTheFoldStaysSmall) {
  // A few bytes of header may not make the fold allocate nprocs² clocks:
  // past the bound (and at 2^20, a 34-byte file) the header is rejected.
  Log log;
  log.areas = {{0, 8, "x"}};
  for (const std::uint32_t nprocs : {kMaxLogRanks + 1, std::uint32_t{1} << 20}) {
    log.header.nprocs = nprocs;
    std::string error;
    EXPECT_FALSE(Log::parse(log.serialize(), &error).has_value()) << nprocs;
    EXPECT_TRUE(error.starts_with("[bad-field]")) << error;
  }
  // At the bound the log parses and folds.
  log.header.nprocs = kMaxLogRanks;
  std::string error;
  const auto parsed = Log::parse(log.serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const ReplayResult folded = replay_fold(*parsed, core::DetectorMode::kDualClock);
  EXPECT_TRUE(folded.ok()) << folded.error;
  // Anything recordable is parseable: the recorder enforces the same bound.
  EXPECT_DEATH(Recorder(kMaxLogRanks + 1, Backend::kSim, core::DetectorMode::kOff,
                        /*lock_clock_handoff=*/true, /*acked_puts=*/true),
               "at most 4096");
}

// ---------------------------------------------------------------------------
// Area index: (home, AreaId) -> flat registration index.
// ---------------------------------------------------------------------------

TEST(AreaIndex, ManyAreasOnSeveralHomesGetDenseFlatIndicesInAllocationOrder) {
  // 3 x 10^5 registrations: a scan-based index would be quadratic here.
  constexpr Rank kHomes = 3;
  constexpr std::uint32_t kPerHome = 100'000;
  Recorder recorder(kHomes, Backend::kThread, core::DetectorMode::kDualClock,
                    /*lock_clock_handoff=*/true, /*acked_puts=*/true);
  // Interleaved allocation order across homes, as a program allocating one
  // area per home in turn produces.
  for (std::uint32_t id = 0; id < kPerHome; ++id) {
    for (Rank home = 0; home < kHomes; ++home) recorder.register_area(home, id, 64, "a");
  }
  const AreaIndex& areas = recorder.areas();
  EXPECT_EQ(areas.size(), std::size_t{kHomes} * kPerHome);
  for (std::uint32_t id = 0; id < kPerHome; ++id) {
    for (Rank home = 0; home < kHomes; ++home) {
      const std::uint64_t expected = std::uint64_t{id} * kHomes + static_cast<std::uint64_t>(home);
      ASSERT_EQ(recorder.area_index(home, id), expected) << "home " << home << " id " << id;
    }
  }
  EXPECT_FALSE(areas.contains(0, kPerHome));
  EXPECT_FALSE(areas.contains(kHomes, 0));
  EXPECT_FALSE(areas.contains(-1, 0));
  // The parsed-log rebuild assigns the same indices.
  recorder.finish({}, /*completed=*/true, {});
  const AreaIndex rebuilt = make_area_index(recorder.log().areas);
  EXPECT_EQ(rebuilt.size(), areas.size());
  EXPECT_EQ(rebuilt.at(2, kPerHome - 1), areas.at(2, kPerHome - 1));
}

TEST(AreaIndex, DuplicateAndUnknownAreasAreRejected) {
  AreaIndex areas;
  EXPECT_EQ(areas.add(0, 0), 0u);
  EXPECT_EQ(areas.add(1, 0), 1u);
  EXPECT_EQ(areas.add(0, 1), 2u);
  EXPECT_DEATH(areas.add(0, 1), "area registered twice");
  EXPECT_DEATH(areas.add(1, 0), "area registered twice");
  EXPECT_DEATH(areas.add(1, 5), "out of allocation order");
  EXPECT_DEATH((void)areas.at(0, 2), "area not registered");
  EXPECT_DEATH((void)areas.at(2, 0), "area not registered");
  EXPECT_DEATH((void)areas.at(-1, 0), "area not registered");
}

// ---------------------------------------------------------------------------
// Sim recording → fold equivalence.
// ---------------------------------------------------------------------------

/// Runs `setup` on a fresh recorded World and returns the sealed log.
template <typename Setup>
Log record_sim(WorldConfig config, Setup&& setup) {
  World world(config);
  Recorder recorder(static_cast<std::uint32_t>(config.nprocs), Backend::kSim,
                    config.mode, config.lock_clock_handoff, config.acked_puts);
  world.set_recorder(&recorder);
  setup(world);
  const runtime::RunReport report = world.run();
  recorder.finish(world.races().reports(), report.completed,
                  report.stuck_ranks);
  return recorder.log();
}

WorldConfig sim_config(int nprocs, core::DetectorMode mode) {
  WorldConfig config;
  config.nprocs = nprocs;
  config.mode = mode;
  return config;
}

void spawn_racy_pair(World& world) {
  // Two unsynchronized writers to the same area: a race on every schedule.
  const GlobalAddress x = world.alloc(0, 8, "x");
  for (Rank r : {0, 1}) {
    world.spawn(r, [x](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{1});
    });
  }
}

void spawn_synced(World& world) {
  // Locks, signals and reads with full synchronization: race-free.
  const GlobalAddress x = world.alloc(0, 8, "x");
  const GlobalAddress y = world.alloc(1, 8, "y");
  world.spawn(0, [x, y](Process& p) -> sim::Task {
    co_await p.lock(x);
    co_await p.put_value(x, std::uint64_t{1});
    co_await p.unlock(x);
    p.signal(1, 7);
    co_await p.wait_signal(9);
    co_await p.get_value<std::uint64_t>(y);
  });
  world.spawn(1, [x, y](Process& p) -> sim::Task {
    co_await p.wait_signal(7);
    co_await p.lock(x);
    co_await p.get_value<std::uint64_t>(x);
    co_await p.unlock(x);
    co_await p.put_value(y, std::uint64_t{2});
    p.signal(0, 9);
  });
}

TEST(RecordReplay, FoldReproducesARacyRun) {
  const Log log =
      record_sim(sim_config(2, core::DetectorMode::kDualClock), spawn_racy_pair);
  EXPECT_TRUE(log.live.completed);
  ASSERT_FALSE(log.live.races.empty());
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
  EXPECT_GT(folded.checks, 0u);
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
}

TEST(RecordReplay, FoldReproducesASynchronizedRun) {
  const Log log =
      record_sim(sim_config(2, core::DetectorMode::kDualClock), spawn_synced);
  EXPECT_TRUE(log.live.completed);
  EXPECT_TRUE(log.live.races.empty());
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
}

TEST(RecordReplay, SingleClockModeFoldMatches) {
  const Log log = record_sim(sim_config(2, core::DetectorMode::kSingleClock),
                             spawn_synced);
  // Single-clock flags the concurrent-read false positives — whatever the
  // live run reported, the fold must agree exactly.
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
}

TEST(RecordReplay, OffRecordingFoldsUnderFullDetection) {
  // The production split: record with the detector OFF (near-zero cost, no
  // clock bytes on the wire), then fold the log offline under dual-clock.
  const Log log =
      record_sim(sim_config(2, core::DetectorMode::kOff), spawn_racy_pair);
  EXPECT_TRUE(log.live.races.empty());  // live detector was off.
  const ReplayResult off = replay_fold(log, core::DetectorMode::kOff);
  ASSERT_TRUE(off.ok()) << off.error;
  EXPECT_TRUE(off.signature.races.empty());
  const ReplayResult dual = replay_fold(log, core::DetectorMode::kDualClock);
  ASSERT_TRUE(dual.ok()) << dual.error;
  ASSERT_FALSE(dual.signature.races.empty());
  EXPECT_EQ(dual.signature.races.front().area, 0u);
  // The racy pair is write/write on area x; the fold names the racing
  // accessor and kind.
  EXPECT_EQ(dual.signature.races.front().kind, core::AccessKind::kWrite);
}

TEST(RecordReplay, UnackedPutsRegimeFolds) {
  WorldConfig config = sim_config(3, core::DetectorMode::kDualClock);
  config.acked_puts = false;
  config.lock_clock_handoff = false;
  const Log log = record_sim(config, spawn_racy_pair);
  EXPECT_FALSE(log.header.acked_puts);
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
}

TEST(RecordReplay, PerturbedSchedulesFoldOverFuzzedPrograms) {
  // The heart of the fuzz-grid invariant, in-process: fuzzed programs
  // (locks, signals, collective phases, planted bugs) recorded under
  // perturbed schedules must fold to the live verdicts, through the full
  // serialize → parse round-trip.
  int divergences = 0;
  int races_seen = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3 + static_cast<int>(seed % 2);
    gen.areas = gen.nprocs + 1;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program =
        std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    for (const std::uint64_t schedule : {1ull, 5ull}) {
      WorldConfig config = sim_config(program->nprocs, core::DetectorMode::kDualClock);
      config.seed = schedule;
      config.perturb = sim::PerturbConfig{0, 4'000, schedule};
      const Log log = record_sim(config, [&](World& world) {
        fuzz::spawn_program(world, program);
      });
      races_seen += static_cast<int>(log.live.races.size());
      const std::string divergence = check_record_replay_bytes(log.serialize());
      EXPECT_EQ(divergence, "") << "seed " << seed << " schedule " << schedule;
      if (!divergence.empty()) ++divergences;
    }
  }
  EXPECT_EQ(divergences, 0);
  EXPECT_GT(races_seen, 0);  // the planted bugs actually exercised races.
}

TEST(RecordReplay, RecoverableFaultPlansFold) {
  // Duplicated/delayed/dropped-but-retransmitted messages perturb delivery
  // order; the recorded order is what happened, so the fold must still
  // match — including signal reordering handled by kWaitMatch field d.
  net::FaultPlan plan;
  plan.drop_ppm = 120'000;
  plan.dup_ppm = 120'000;
  plan.delay_ppm = 250'000;
  plan.delay_min_ns = 1'000;
  plan.delay_max_ns = 40'000;
  plan.salt = 13;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed + 100;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3;
    gen.areas = 4;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program =
        std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    WorldConfig config = sim_config(program->nprocs, core::DetectorMode::kDualClock);
    config.seed = seed;
    config.fault = plan;
    const Log log = record_sim(config, [&](World& world) {
      fuzz::spawn_program(world, program);
    });
    EXPECT_EQ(check_record_replay_bytes(log.serialize()), "")
        << "seed " << seed;
  }
}

TEST(RecordReplay, BadTraceFailsLoudly) {
  Log log = record_sim(sim_config(2, core::DetectorMode::kDualClock),
                       spawn_racy_pair);
  // A completion with no pending issue is a trace inconsistency, not a crash.
  log.events.insert(log.events.begin(),
                    Event{EventKind::kPutAck, 0, 0});
  const ReplayResult folded = replay_fold(log, log.header.mode);
  EXPECT_FALSE(folded.ok());
  EXPECT_TRUE(folded.error.starts_with("[bad-trace]")) << folded.error;
  // So is an area homed outside the process range (a hand-built log; parse
  // rejects it earlier).
  log.areas.push_back({5, 8, "stray"});
  const ReplayResult stray = replay_fold(log, log.header.mode);
  EXPECT_TRUE(stray.error.starts_with("[bad-trace] area 1 home rank 5")) << stray.error;
}

// ---------------------------------------------------------------------------
// Pinned fold state: the complete post-fold detector state of a fixed corpus,
// hashed per mode. Any change to how the fold evolves clocks, V/W state,
// epochs, prior ranks, handoffs or in-flight queues moves these hashes.
// ---------------------------------------------------------------------------

/// A hand-ordered threaded-backend log covering every kThread* kind plus
/// signal/wait: a lock-ordered put→get pair, a race on each of two areas,
/// a signal chain, and one signal left undelivered.
Log pinned_thread_log(bool acked_puts, bool lock_clock_handoff) {
  Log log;
  log.header.nprocs = 3;
  log.header.backend = Backend::kThread;
  log.header.mode = core::DetectorMode::kOff;
  log.header.acked_puts = acked_puts;
  log.header.lock_clock_handoff = lock_clock_handoff;
  log.areas = {{0, 8, "x"}, {1, 8, "y"}, {2, 8, "z"}};
  log.events = {
      {EventKind::kThreadLock, 0, 0},
      {EventKind::kThreadPut, 0, 0, 8},
      {EventKind::kThreadUnlock, 0, 0},
      {EventKind::kSignal, 0, 1, 7},         // rank 0 component 4.
      {EventKind::kThreadGet, 2, 0, 8},      // unordered with the put.
      {EventKind::kWaitMatch, 1, 0, 7, 4},
      {EventKind::kThreadLock, 1, 0},
      {EventKind::kThreadGet, 1, 0, 8},
      {EventKind::kThreadPut, 1, 1, 8},
      {EventKind::kThreadUnlock, 1, 0},
      {EventKind::kThreadPut, 2, 1, 8},      // races rank 1's put.
      {EventKind::kSignal, 1, 2, 3},         // rank 1 component 6.
      {EventKind::kWaitMatch, 2, 1, 3, 6},
      {EventKind::kThreadGet, 2, 1, 8},
      {EventKind::kThreadPut, 0, 2, 8},
      {EventKind::kThreadGet, 1, 2, 8},
      {EventKind::kSignal, 2, 0, 5},         // never consumed.
  };
  return log;
}

std::vector<Log> pinned_fold_corpus() {
  std::vector<Log> corpus;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3 + static_cast<int>(seed % 3);
    gen.areas = gen.nprocs + 2;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program =
        std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    // Acked puts, unacked puts, handoff off, and a detector-off recording.
    for (int variant = 0; variant < 4; ++variant) {
      WorldConfig config = sim_config(program->nprocs, core::DetectorMode::kDualClock);
      config.seed = seed;
      config.perturb = sim::PerturbConfig{0, 3'000, seed + 17};
      if (variant == 1) config.acked_puts = false;
      if (variant == 2) config.lock_clock_handoff = false;
      if (variant == 3) config.mode = core::DetectorMode::kOff;
      corpus.push_back(record_sim(config, [&](World& world) {
        fuzz::spawn_program(world, program);
      }));
    }
  }
  corpus.push_back(pinned_thread_log(/*acked_puts=*/true, /*lock_clock_handoff=*/true));
  corpus.push_back(pinned_thread_log(/*acked_puts=*/false, /*lock_clock_handoff=*/false));
  return corpus;
}

TEST(FoldDigest, PinnedOverAFixedCorpusAtEveryMode) {
  const std::vector<Log> corpus = pinned_fold_corpus();
  const std::pair<core::DetectorMode, std::uint64_t> pinned[] = {
      {core::DetectorMode::kOff, 0xcd49e9dbe8b081b3ull},
      {core::DetectorMode::kSingleClock, 0x59df1391fb9a39f7ull},
      {core::DetectorMode::kDualClock, 0x08f1c73cd57392d9ull},
  };
  for (const auto& [mode, expected] : pinned) {
    std::string all;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const std::string digest = replay_state_digest(corpus[i], mode);
      ASSERT_FALSE(digest.starts_with("[bad-trace]")) << "log " << i << ": " << digest;
      all += digest;
      all += '\x1e';
    }
    const std::uint64_t hash =
        fnv1a(std::as_bytes(std::span<const char>(all.data(), all.size())));
    EXPECT_EQ(hash, expected) << "mode " << core::to_string(mode) << " digest hash 0x"
                              << std::hex << hash;
  }
  // The corpus actually exercises races at full detection.
  EXPECT_NE(replay_state_digest(corpus.back(), core::DetectorMode::kDualClock).find("race "),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Threaded recording → fold + gated deterministic replay.
// ---------------------------------------------------------------------------

std::vector<std::byte> bytes8(std::uint64_t value) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &value, 8);
  return out;
}

ThreadWorldConfig thread_config(int nprocs, core::DetectorMode mode) {
  ThreadWorldConfig config;
  config.nprocs = nprocs;
  config.mode = mode;
  return config;
}

/// Records one threaded run of `setup` and returns the sealed log.
template <typename Setup>
Log record_threaded(ThreadWorldConfig config, Setup&& setup) {
  Recorder recorder(static_cast<std::uint32_t>(config.nprocs), Backend::kThread,
                    config.mode, config.lock_clock_handoff, config.acked_puts);
  config.recorder = &recorder;
  ThreadWorld world(config);
  setup(world);
  const runtime::ThreadRunReport report = world.run();
  recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
  return recorder.log();
}

/// Replays `log` through the gate and returns the re-executed run's verdict
/// signature.
template <typename Setup>
VerdictSignature replay_threaded(ThreadWorldConfig config, const Log& log,
                                 Setup&& setup) {
  config.replay = &log;
  config.recorder = nullptr;
  ThreadWorld world(config);
  setup(world);
  const runtime::ThreadRunReport report = world.run();
  const AreaIndex areas = make_area_index(log.areas);
  return make_signature(areas, world.races().reports(), report.completed,
                        report.stuck_ranks);
}

/// Full op coverage (put/get/lock/signal/wait/sleep/compute), race-free.
void spawn_thread_synced(ThreadWorld& world) {
  const GlobalAddress x = world.alloc(0, 8, "x");
  const GlobalAddress y = world.alloc(1, 8, "y");
  world.spawn(0, [x, y](ThreadProcess& p) {
    p.lock(x);
    p.put(x, bytes8(1));
    p.unlock(x);
    p.signal(1, 7);
    p.wait_signal(9);
    p.get(y, 8);
    p.compute(500);
    p.put(y, bytes8(3));
  });
  world.spawn(1, [x, y](ThreadProcess& p) {
    p.wait_signal(7);
    p.lock(x);
    p.get(x, 8);
    p.unlock(x);
    p.put(y, bytes8(2));
    p.sleep(500);
    p.signal(0, 9);
  });
}

void spawn_thread_racy(ThreadWorld& world) {
  const GlobalAddress x = world.alloc(0, 8, "x");
  for (Rank r : {0, 1}) {
    world.spawn(r, [x, r](ThreadProcess& p) { p.put(x, bytes8(static_cast<std::uint64_t>(r))); });
  }
}

TEST(ThreadRecordReplay, SyncedRunFoldsAndReplaysIdentically) {
  const ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  const Log log = record_threaded(config, spawn_thread_synced);
  EXPECT_TRUE(log.live.completed);
  EXPECT_TRUE(log.live.races.empty());
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
  const VerdictSignature first = replay_threaded(config, log, spawn_thread_synced);
  const VerdictSignature second = replay_threaded(config, log, spawn_thread_synced);
  EXPECT_EQ(first, log.live);
  EXPECT_EQ(second, first);
}

TEST(ThreadRecordReplay, RacyRunReplaysDeterministically) {
  const ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  const Log log = record_threaded(config, spawn_thread_racy);
  EXPECT_TRUE(log.live.completed);
  ASSERT_FALSE(log.live.races.empty());
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
  // The real schedule decided WHICH writer got flagged; both replays must
  // re-derive that exact verdict, not just "some race on x".
  const VerdictSignature first = replay_threaded(config, log, spawn_thread_racy);
  const VerdictSignature second = replay_threaded(config, log, spawn_thread_racy);
  EXPECT_EQ(first, log.live) << first.to_string() << " vs " << log.live.to_string();
  EXPECT_EQ(second, first);
}

TEST(ThreadRecordReplay, ScheduleLuckRacesBecomeReplayable) {
  // The kSometimes shape — detection luck, not race luck: rank 0's read R1
  // races with rank 1's write W, but rank 1's own earlier read R2 is
  // program-ordered before W. The online detector compares each access only
  // against the area's LATEST access, so when R1 lands before R2 the read
  // clock rank 1's write sees is R2 (ordered → no flag) and the R1∥W race
  // is hidden; when R1 lands after R2 the write (or the late read) compares
  // against a concurrent access and flags. Each run forces one of the two
  // orders with an out-of-band handshake: one rank spins until the other
  // rank's read has returned. The handshake is no ThreadProcess call, so it
  // adds no clock edge, and it holds under the replay gate too (the gate
  // reproduces the same order).
  const auto program = [](bool r1_after_r2) {
    return [r1_after_r2](ThreadWorld& world) {
      const GlobalAddress x = world.alloc(0, 8, "x");
      // Fresh per run: the record and each replay get their own handshake.
      const auto read_done = std::make_shared<std::atomic<bool>>(false);
      const auto wait_for_read = [read_done]() {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!read_done->load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      };
      world.spawn(0, [x, r1_after_r2, read_done, wait_for_read](ThreadProcess& p) {
        if (r1_after_r2) wait_for_read();
        p.get(x, 8);  // R1 — races with W on every schedule (ground truth).
        if (!r1_after_r2) read_done->store(true);
      });
      world.spawn(1, [x, r1_after_r2, read_done, wait_for_read](ThreadProcess& p) {
        if (!r1_after_r2) wait_for_read();
        p.get(x, 8);          // R2 — overwrites the area's read clock.
        if (r1_after_r2) read_done->store(true);
        p.put(x, bytes8(2));  // W — sees R2, not R1, on the clean order.
      });
    };
  };
  const ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const bool r1_after_r2 = attempt % 2 == 0;
    SCOPED_TRACE(r1_after_r2 ? "R1 after R2" : "R1 before R2");
    const Log log = record_threaded(config, program(r1_after_r2));
    ASSERT_TRUE(log.live.completed);
    // Whatever the schedule produced, the invariant holds: the fold and a
    // gated replay both reproduce this run's verdicts exactly.
    EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
    const VerdictSignature replayed = replay_threaded(config, log, program(r1_after_r2));
    EXPECT_EQ(replayed, log.live)
        << replayed.to_string() << " vs " << log.live.to_string();
    // The forced order decides the verdict exactly: a manifested
    // schedule-luck race was recorded and flagged again on replay; the
    // clean order of the same program replayed clean.
    EXPECT_EQ(log.live.races.empty(), !r1_after_r2) << log.live.to_string();
  }
}

TEST(ThreadRecordReplay, OffRecordingReplaysUnderDualClock) {
  // Record with the detector off (production recording cost), then re-run
  // the log under the full dual-clock detector: the gate pins the schedule,
  // so detection happens "live" on an execution that already finished.
  const Log log = record_threaded(thread_config(2, core::DetectorMode::kOff),
                                  spawn_thread_racy);
  EXPECT_TRUE(log.live.races.empty());  // detector was off.
  ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  const VerdictSignature first = replay_threaded(config, log, spawn_thread_racy);
  const VerdictSignature second = replay_threaded(config, log, spawn_thread_racy);
  ASSERT_FALSE(first.races.empty());
  EXPECT_EQ(second, first);
  // The offline fold at dual-clock agrees with the gated dual-clock rerun.
  const ReplayResult folded = replay_fold(log, core::DetectorMode::kDualClock);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature.races, first.races);
}

TEST(ThreadRecordReplay, StuckRecordingReproducesStuckRanksFast) {
  const auto program = [](ThreadWorld& world) {
    const GlobalAddress x = world.alloc(0, 8, "x");
    world.spawn(0, [](ThreadProcess& p) { p.wait_signal(99); });  // never sent.
    world.spawn(1, [x](ThreadProcess& p) { p.put(x, bytes8(1)); });
  };
  ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  config.run_timeout = std::chrono::milliseconds(300);
  const Log log = record_threaded(config, program);
  EXPECT_FALSE(log.live.completed);
  ASSERT_EQ(log.live.stuck_ranks, (std::vector<Rank>{0}));
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
  // Replay does NOT wait out the deadline: rank 0 has no logged events left
  // at its wait, so the gate reports it stuck immediately.
  config.run_timeout = std::chrono::milliseconds(10'000);
  const auto start = std::chrono::steady_clock::now();
  const VerdictSignature replayed = replay_threaded(config, log, program);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(replayed, log.live);
  EXPECT_LT(elapsed, std::chrono::milliseconds(5'000));
}

}  // namespace
}  // namespace dsmr::record
