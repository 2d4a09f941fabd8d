#include "fuzz/thread_harness.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace dsmr::fuzz {

namespace {

using runtime::ThreadProcess;
using runtime::ThreadWorld;

/// Boundary-barrier tags: top byte distinct from user tags (< 2^56, see
/// kMaxSignalTag) and from pgas::Team's collective range (kinds 1..5 in the
/// top byte). Phase index and round share the low bits without collision:
/// phases < 4096 (12 bits, shifted past the round) and rounds < 10 for
/// kMaxProcs = 1024.
constexpr std::uint64_t kBoundaryTagBase = 0xB5ULL << 56;

std::uint64_t boundary_tag(std::size_t phase, std::uint32_t round) {
  return boundary_signal_tag(phase, round);
}

/// Every BoundaryKind as a full frontier: the dissemination barrier, with
/// the same sequential send-round-k / wait-round-k structure as
/// pgas::Team::barrier. The collective kinds' data movement is omitted —
/// their values never affect detection, only their edges do, and the
/// barrier produces a superset-equivalent frontier.
void run_boundary(ThreadProcess& p, const Phase& phase, std::size_t phase_index) {
  const int n = p.nprocs();
  const Rank r = p.rank();
  const bool arrive_only =
      phase.entry.kind == BoundaryKind::kBarrier && phase.skip_rank == r;
  for (std::uint32_t round = 0; (1 << round) < n; ++round) {
    const int dist = 1 << round;
    const Rank to = static_cast<Rank>((r + dist) % n);
    p.signal(to, boundary_tag(phase_index, round));
    if (!arrive_only) p.wait_signal(boundary_tag(phase_index, round));
  }
}

/// The blocking twin of program.cpp's program_task: same ops, same order,
/// same payload stamps.
void run_rank(ThreadProcess& p, const Program& program,
              const std::vector<mem::GlobalAddress>& areas) {
  const auto rank = static_cast<std::size_t>(p.rank());
  std::uint64_t stamp = (static_cast<std::uint64_t>(p.rank()) + 1) << 32;
  for (std::size_t ph = 0; ph < program.phases.size(); ++ph) {
    if (ph > 0) run_boundary(p, program.phases[ph], ph);
    for (const Op& op : program.phases[ph].ops[rank]) {
      const auto lock_area = [&op]() {
        return static_cast<std::size_t>(op.lock == -1 ? op.area : op.lock);
      };
      switch (op.kind) {
        case OpKind::kPut: {
          if (op.locked) p.lock(areas[lock_area()]);
          std::vector<std::byte> bytes(program.area_bytes, std::byte{0});
          ++stamp;
          std::memcpy(bytes.data(), &stamp, std::min(sizeof(stamp), bytes.size()));
          p.put(areas[static_cast<std::size_t>(op.area)], bytes);
          if (op.locked) p.unlock(areas[lock_area()]);
          break;
        }
        case OpKind::kGet:
          if (op.locked) p.lock(areas[lock_area()]);
          p.get(areas[static_cast<std::size_t>(op.area)], program.area_bytes);
          if (op.locked) p.unlock(areas[lock_area()]);
          break;
        case OpKind::kSignal:
          p.signal(static_cast<Rank>(op.peer), op.tag);
          break;
        case OpKind::kWait:
          p.wait_signal(op.tag);
          break;
        case OpKind::kSleep:
          p.sleep(static_cast<std::uint64_t>(op.duration));
          break;
        case OpKind::kCompute:
          p.compute(static_cast<std::uint64_t>(op.duration));
          break;
      }
    }
  }
}

}  // namespace

std::uint64_t boundary_signal_tag(std::size_t phase, std::uint32_t round) {
  return kBoundaryTagBase | (static_cast<std::uint64_t>(phase) << 8) | round;
}

ProgramHandles spawn_program_threaded(ThreadWorld& world,
                                      std::shared_ptr<const Program> program) {
  DSMR_REQUIRE(program != nullptr, "spawn_program_threaded needs a program");
  std::string error;
  DSMR_REQUIRE(validate(*program, &error), "spawn of invalid program: " << error);
  DSMR_REQUIRE(world.nprocs() == program->nprocs,
               "program generated for " << program->nprocs << " ranks, world has "
                                        << world.nprocs());
  ProgramHandles handles;
  for (int a = 0; a < program->areas; ++a) {
    const Rank home = static_cast<Rank>(a % program->nprocs);
    handles.areas.push_back(
        world.alloc(home, program->area_bytes, "fz" + std::to_string(a)));
  }
  for (Rank r = 0; r < world.nprocs(); ++r) {
    world.spawn(r, [program, areas = handles.areas](ThreadProcess& p) {
      run_rank(p, *program, areas);
    });
  }
  return handles;
}

ThreadProgramOutcome run_program_threaded(const Program& program,
                                          const ThreadRunOptions& options) {
  runtime::ThreadWorldConfig config;
  config.nprocs = program.nprocs;
  config.stripes = options.stripes;
  config.run_timeout = options.timeout;
  config.segment_bytes = segment_bytes(program);
  config.recorder = options.recorder;
  config.replay = options.replay;
  ThreadWorld world(config);
  spawn_program_threaded(world, std::make_shared<Program>(program));
  ThreadProgramOutcome outcome;
  outcome.report = world.run();
  for (const auto& report : world.races().unique_by_area()) {
    outcome.racy_areas.insert(report.area_name);
  }
  outcome.reports = world.races().reports();
  if (options.recorder != nullptr) {
    options.recorder->finish(outcome.reports, outcome.report.completed,
                             outcome.report.stuck_ranks);
  }
  return outcome;
}

}  // namespace dsmr::fuzz
