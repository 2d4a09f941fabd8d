// Running fuzz::Programs on the real-threads backend.
//
// The same Program IR drives both backends: spawn_program (fuzz/program.hpp)
// installs coroutines on the sim World, spawn_program_threaded installs the
// blocking twin of the same interpreter on a ThreadWorld — op for op, with
// every phase boundary executed as a dissemination barrier over tagged
// signals (every BoundaryKind is a full happens-before frontier and the
// collective *values* never affect detection, so the barrier is
// verdict-equivalent; Phase::skip_rank maps to the arrive-only half, as in
// pgas::Team::barrier_arrive).
//
// A threaded run uses the default detection regime (dual-clock, acked puts,
// lock handoff), the one the generator's cleanliness proof assumes. The
// differential harness that holds these runs to the program's contract, next
// to the sim grid, is fuzz::check_program_backends (fuzz/harness.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fuzz/program.hpp"
#include "record/recorder.hpp"
#include "runtime/thread_world.hpp"

namespace dsmr::fuzz {

/// Tag of the dissemination-barrier signal for (phase, round) on the
/// threaded backend. Exported so explore/model.hpp flattens phase
/// boundaries into exactly the signal/wait micro-ops run_boundary executes
/// (one source of truth: a synthesized log replays through ReplayGate only
/// if every tag matches).
std::uint64_t boundary_signal_tag(std::size_t phase, std::uint32_t round);

/// Knobs for one threaded execution of a program.
struct ThreadRunOptions {
  int stripes = 8;
  std::chrono::milliseconds timeout{10'000};
  /// Record this run's ordering (record/recorder.hpp); finish() is called
  /// with the run's verdicts before run_program_threaded returns.
  record::Recorder* recorder = nullptr;
  /// Replay a recorded log instead of free-running (gated, deterministic).
  const record::Log* replay = nullptr;
};

/// Allocates the program's areas (same homes and "fz<i>" names as the sim
/// spawn path) and installs the blocking interpreter on every rank of a
/// not-yet-run ThreadWorld.
ProgramHandles spawn_program_threaded(runtime::ThreadWorld& world,
                                      std::shared_ptr<const Program> program);

/// One threaded run's verdict signature.
struct ThreadProgramOutcome {
  runtime::ThreadRunReport report;
  std::set<std::string> racy_areas;          ///< area names with >= 1 report.
  std::vector<core::RaceReport> reports;     ///< full reports, for signatures.
};

ThreadProgramOutcome run_program_threaded(const Program& program,
                                          const ThreadRunOptions& options);

}  // namespace dsmr::fuzz
