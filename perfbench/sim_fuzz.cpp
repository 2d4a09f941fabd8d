// The sim_fuzz workload: single thread, closed loop over generated programs.
// Each program comes from fuzz::generate_program (mixed profile, 8 ranks,
// half of them with a planted bug of any eligible kind) and is checked with
// fuzz::check_program on dsmr_fuzz's default grid (3 schedule seeds × the
// base + 1 perturbed variant, record ≡ live on every run). This is the only
// workload where the sim engine, the sim NIC and replay_fold do the work,
// with 8-wide clocks.
//
// --trace 0 reports the end-to-end metrics; an "op" here is one simulated
// put/get access taken through the whole grid, so op latency is a program's
// check time divided by the accesses it checked. Throughput is the median
// over chunks of consecutive programs and latency percentiles are taken over
// the faster half of windows of consecutive programs: the reference
// machine's speed wanders over seconds, and both shed a slow stretch.
// --trace 1 times every schedule of the grid from outside: it rebuilds each
// (schedule seed, perturbation) World itself with a Recorder attached and
// times construction + spawn, World::run, Recorder::finish and the
// record ≡ live fold; whatever check_program spends beyond those spans is
// fuzz.other_share.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/program.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "runtime/world.hpp"
#include "sim/perturb.hpp"

namespace perfbench {
namespace {

namespace fuzz = dsmr::fuzz;
namespace record = dsmr::record;

constexpr int kProgramRanks = 8;
constexpr double kPlantedFraction = 0.5;
constexpr int kMinPrograms = 8;
/// Throughput is the median over consecutive chunks of this many programs:
/// each chunk averages over the program mix, the median sheds noise bursts.
constexpr std::uint64_t kChunk = 64;
/// Latency percentiles pool the faster half of consecutive windows of this
/// many programs (see interference_shed).
constexpr std::size_t kLatencyWindow = 128;

fuzz::GenConfig base_config() {
  fuzz::GenConfig config;
  fuzz::apply_profile("mixed", config);
  config.nprocs = kProgramRanks;
  return config;
}

fuzz::FuzzCheckOptions grid_options() {
  fuzz::FuzzCheckOptions options;
  options.schedule_seeds = 3;
  options.perturbations = dsmr::sim::perturb_variants(0, 4'000, 1);
  options.threads = 1;
  return options;
}

fuzz::Program generate(const fuzz::GenConfig& base,
                       const std::vector<fuzz::BugKind>& kinds, std::uint64_t seed) {
  fuzz::GenConfig config = base;
  config.seed = seed;
  config.plant_bug = fuzz::plant_for_seed(seed, kPlantedFraction);
  if (config.plant_bug) config.bug_kind = fuzz::kind_for_seed(seed, kinds);
  return fuzz::generate_program(config);
}

std::uint64_t data_ops(const fuzz::Program& program) {
  std::uint64_t count = 0;
  for (const auto& phase : program.phases) {
    for (const auto& ops : phase.ops) {
      for (const auto& op : ops) {
        if (op.kind == fuzz::OpKind::kPut || op.kind == fuzz::OpKind::kGet) ++count;
      }
    }
  }
  return count;
}

/// Outside-in spans of one program's grid, summed over its schedules.
struct GridSpans {
  std::uint64_t schedules = 0;
  std::uint64_t spawn_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t finish_ns = 0;
  std::uint64_t fold_ns = 0;
  std::uint64_t fold_events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t mismatches = 0;
};

void time_grid(const std::shared_ptr<const fuzz::Program>& program,
               const fuzz::FuzzCheckOptions& options, GridSpans& spans) {
  for (std::uint64_t s = 0; s < options.schedule_seeds; ++s) {
    for (const auto& perturb : options.perturbations) {
      dsmr::runtime::WorldConfig config;
      config.nprocs = program->nprocs;
      config.seed = options.first_schedule_seed + s;
      config.perturb = perturb;
      record::Recorder recorder(static_cast<std::uint32_t>(config.nprocs),
                                record::Backend::kSim, config.mode,
                                config.lock_clock_handoff, config.acked_puts);
      std::uint64_t t = now_ns();
      dsmr::runtime::World world(config);
      world.set_recorder(&recorder);
      fuzz::spawn_program(world, program);
      spans.spawn_ns += now_ns() - t;
      t = now_ns();
      const dsmr::runtime::RunReport report = world.run();
      spans.run_ns += now_ns() - t;
      t = now_ns();
      recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
      spans.finish_ns += now_ns() - t;
      t = now_ns();
      const std::string mismatch = record::check_record_replay(recorder.log());
      spans.fold_ns += now_ns() - t;
      if (!mismatch.empty()) {
        std::fprintf(stderr, "perfbench: record != live: %s\n", mismatch.c_str());
        ++spans.mismatches;
      }
      ++spans.schedules;
      spans.engine_events += report.engine_events;
      spans.fold_events += recorder.log().events.size();
      spans.msgs += world.traffic().total_messages;
      spans.bytes += world.traffic().total_bytes;
    }
  }
}

/// The samples of the faster half of consecutive kLatencyWindow-sample
/// windows, ranked by window median; all samples when there are fewer than
/// two windows. The host's speed wanders by 10-20% over seconds, and a slow
/// stretch of a few seconds filled the tail of a run's pooled sample (its
/// p99 spread 0.2 of the median across seeds). Interference only ever slows
/// a window down, and programs are drawn independently of their position,
/// so the faster half holds the same program mix with less of the host in
/// it. A 35 s run keeps over 1000 samples, 10 beyond its p99.
std::vector<double> interference_shed(const std::vector<double>& samples) {
  const std::size_t windows = samples.size() / kLatencyWindow;
  if (windows < 2) return samples;
  std::vector<std::pair<double, std::size_t>> ranked;  // (window median, first sample)
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * kLatencyWindow);
    ranked.emplace_back(median(std::vector<double>(first, first + kLatencyWindow)),
                        w * kLatencyWindow);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<double> kept;
  for (std::size_t w = 0; w < windows / 2; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(ranked[w].second);
    kept.insert(kept.end(), first, first + kLatencyWindow);
  }
  return kept;
}

}  // namespace

Result run_sim_fuzz(const Options& options) {
  const fuzz::GenConfig base = base_config();
  const std::vector<fuzz::BugKind> kinds = fuzz::eligible_bug_kinds(base);
  const fuzz::FuzzCheckOptions grid = grid_options();
  dsmr::util::SplitMix64 seeds(options.seed);

  Result result;
  std::vector<double> setup_s, op_ns, chunk_ops_per_s, chunk_programs_per_s;
  std::uint64_t programs = 0, check_ns = 0, generate_ns = 0;
  std::uint64_t chunk_programs = 0, chunk_accesses = 0, chunk_ns = 0;
  auto close_chunk = [&]() {
    chunk_ops_per_s.push_back(
        per(static_cast<double>(chunk_accesses) * 1e9, static_cast<double>(chunk_ns)));
    chunk_programs_per_s.push_back(
        per(static_cast<double>(chunk_programs) * 1e9, static_cast<double>(chunk_ns)));
    chunk_programs = chunk_accesses = chunk_ns = 0;
  };
  GridSpans spans;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(options.seconds * 1e9);
  while (programs < kMinPrograms || now_ns() - start < budget) {
    std::uint64_t t = now_ns();
    auto program = std::make_shared<const fuzz::Program>(generate(base, kinds, seeds.next()));
    const std::uint64_t generated = now_ns() - t;
    generate_ns += generated;
    setup_s.push_back(static_cast<double>(generated) * 1e-9);

    t = now_ns();
    const fuzz::ProgramVerdict verdict = fuzz::check_program(*program, grid);
    const std::uint64_t checked = now_ns() - t;
    check_ns += checked;
    const std::uint64_t program_accesses = data_ops(*program) * verdict.report.runs.size();
    op_ns.push_back(per(static_cast<double>(checked), static_cast<double>(program_accesses)));
    chunk_accesses += program_accesses;
    chunk_ns += checked;
    if (++chunk_programs == kChunk) close_chunk();
    ++programs;
    ++result.attempted;
    if (!verdict.passed()) {
      ++result.failed;
      std::fprintf(stderr, "perfbench: program %llu failed check_program: %s\n",
                   static_cast<unsigned long long>(programs),
                   verdict.failures.front().check.c_str());
    }
    if (options.trace) {
      const std::uint64_t before = spans.mismatches;
      time_grid(program, grid, spans);
      if (spans.mismatches != before && verdict.passed()) ++result.failed;
    }
  }
  // A trailing partial chunk counts only when no chunk completed.
  if (chunk_ops_per_s.empty()) close_chunk();
  {
    std::vector<double> sorted = chunk_ops_per_s;
    std::fprintf(stderr,
                 "perfbench: %llu programs checked, %zu chunks of accesses/s min %.0f "
                 "median %.0f max %.0f\n",
                 static_cast<unsigned long long>(programs), sorted.size(),
                 quantile(sorted, 0), quantile(sorted, 0.5), quantile(sorted, 1));
  }

  if (!options.trace) {
    result.add("ops_per_s", median(chunk_ops_per_s), "1/s");
    std::vector<double> latency = interference_shed(op_ns);
    result.add("op_p50_ns", quantile(latency, 0.50), "ns");
    result.add("op_p99_ns", quantile(latency, 0.99), "ns");
    result.add("programs_per_s", median(chunk_programs_per_s), "1/s");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }
  const double schedules = static_cast<double>(spans.schedules);
  const double covered = static_cast<double>(spans.spawn_ns + spans.run_ns + spans.finish_ns +
                                             spans.fold_ns);
  result.add("runtime.spawn_ns", per(static_cast<double>(spans.spawn_ns), schedules), "ns");
  result.add("sim.run_ns", per(static_cast<double>(spans.run_ns), schedules), "ns");
  result.add("sim.events_per_s",
             per(static_cast<double>(spans.engine_events) * 1e9, static_cast<double>(spans.run_ns)),
             "1/s");
  result.add("record.finish_ns", per(static_cast<double>(spans.finish_ns), schedules), "ns");
  result.add("record.fold_ns", per(static_cast<double>(spans.fold_ns), schedules), "ns");
  result.add("record.fold_events_per_s",
             per(static_cast<double>(spans.fold_events) * 1e9, static_cast<double>(spans.fold_ns)),
             "1/s");
  result.add("net.msgs_per_schedule", per(static_cast<double>(spans.msgs), schedules), "msg");
  result.add("net.bytes_per_schedule", per(static_cast<double>(spans.bytes), schedules), "B");
  result.add("fuzz.other_share", 1.0 - per(covered, static_cast<double>(check_ns)), "ratio");
  result.add("fuzz.generate_ns",
             per(static_cast<double>(generate_ns), static_cast<double>(programs)), "ns");
  return result;
}

}  // namespace perfbench
