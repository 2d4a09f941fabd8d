// Recording overhead (ROADMAP item 3): what does the always-on ordering
// recorder cost per operation?
//
// Three comparisons, the production story in numbers:
//
//  * wall-clock per-op on the real-threads backend — detector off,
//    off + recorder (the "always-on recording" production config), full
//    dual-clock live, and dual-clock + recorder. The record/plain ratio is
//    the headline number and is gated (tools/bench_gate.py) against
//    bench/baseline.json: machine speed cancels in the ratio. It is the
//    median over kPairs interleaved (plain, recorded) run pairs, so a host
//    slowdown that outlasts one pair cancels inside that pair's ratio.
//  * virtual-time invariance on the simulator — the recorder hooks the
//    engine, not the wire, so recorded runs must cost EXACTLY the same
//    virtual ns/op as unrecorded ones (deterministic, exact-gated).
//  * log density — bytes per recorded event and per op for a fixed sim
//    schedule (deterministic: LEB128 sizes of a seeded run).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "record/recorder.hpp"
#include "runtime/thread_world.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::ThreadProcess;
using runtime::ThreadWorld;
using runtime::ThreadWorldConfig;
using runtime::World;

constexpr int kRanks = 4;
constexpr int kOpsPerRank = 5'000;  // × 2 ops (put + get) per iteration.
constexpr int kPairs = 9;           // interleaved (plain, recorded) runs per config.

struct ThreadCost {
  double wall_ns_per_op = 0;
  double log_bytes_per_op = 0;
};

/// One threaded run: every rank hammers its own area with put+get pairs
/// (disjoint areas — pure per-op engine + recorder cost, no contention
/// beyond stripe sharing).
ThreadCost measure_thread(core::DetectorMode mode, bool record) {
  const double ops = static_cast<double>(kRanks) * kOpsPerRank * 2;
  ThreadWorldConfig config;
  config.nprocs = kRanks;
  config.mode = mode;
  record::Recorder recorder(kRanks, record::Backend::kThread, mode,
                            config.lock_clock_handoff, config.acked_puts);
  if (record) config.recorder = &recorder;
  ThreadWorld world(config);
  std::vector<GlobalAddress> areas;
  for (int r = 0; r < kRanks; ++r) {
    std::string name = "a";
    name += std::to_string(r);
    areas.push_back(world.alloc(r, 8, name));
  }
  for (int r = 0; r < kRanks; ++r) {
    world.spawn(r, [r, areas](ThreadProcess& p) {
      std::vector<std::byte> value(8);
      for (int i = 0; i < kOpsPerRank; ++i) {
        std::memcpy(value.data(), &i, sizeof(i));
        p.put(areas[static_cast<std::size_t>(r)], value);
        p.get(areas[static_cast<std::size_t>(r)], 8);
      }
    });
  }
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  ThreadCost cost;
  cost.wall_ns_per_op = static_cast<double>(report.wall_ns) / ops;
  if (record) {
    recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
    cost.log_bytes_per_op = static_cast<double>(recorder.log().serialize().size()) / ops;
  }
  return cost;
}

/// Value at quantile `q` of `values` (nearest rank; sorts a copy).
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5)];
}

/// Recorded vs plain cost of one detector mode over kPairs interleaved run
/// pairs. Each pair runs the two configs back to back, alternating which
/// goes first, and contributes one recorded/plain ratio.
struct PairedCost {
  double plain_ns = 0;     ///< median plain wall ns/op.
  double recorded_ns = 0;  ///< median recorded wall ns/op.
  double ratio = 0;        ///< median of the per-pair recorded/plain ratios.
  double ratio_q1 = 0;
  double ratio_q3 = 0;
  double log_bytes_per_op = 0;
};

PairedCost measure_pairs(core::DetectorMode mode) {
  std::vector<double> plain;
  std::vector<double> recorded;
  std::vector<double> ratios;
  PairedCost cost;
  for (int pair = 0; pair < kPairs; ++pair) {
    ThreadCost p;
    ThreadCost r;
    if (pair % 2 == 0) {
      p = measure_thread(mode, false);
      r = measure_thread(mode, true);
    } else {
      r = measure_thread(mode, true);
      p = measure_thread(mode, false);
    }
    plain.push_back(p.wall_ns_per_op);
    recorded.push_back(r.wall_ns_per_op);
    ratios.push_back(r.wall_ns_per_op / p.wall_ns_per_op);
    cost.log_bytes_per_op = r.log_bytes_per_op;
  }
  cost.plain_ns = quantile(plain, 0.5);
  cost.recorded_ns = quantile(recorded, 0.5);
  cost.ratio = quantile(ratios, 0.5);
  cost.ratio_q1 = quantile(ratios, 0.25);
  cost.ratio_q3 = quantile(ratios, 0.75);
  return cost;
}

/// Virtual put cost on the sim backend with a recorder attached — must be
/// bit-identical to the unrecorded cost (the recorder is engine-side).
double measure_sim_virtual(bool record) {
  constexpr int kOps = 64;
  auto config = world_config(kRanks, core::DetectorMode::kOff,
                             core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  World world(config);
  record::Recorder recorder(kRanks, record::Backend::kSim,
                            core::DetectorMode::kOff,
                            config.lock_clock_handoff, config.acked_puts);
  if (record) world.set_recorder(&recorder);
  const GlobalAddress x = world.alloc(kRanks - 1, 8, "x");
  sim::Time busy = 0;
  world.spawn(0, [x, &busy](Process& p) -> sim::Task {
    const sim::Time start = p.now();
    for (int i = 0; i < kOps; ++i) co_await p.put_value(x, std::uint64_t{1});
    busy = p.now() - start;
  });
  DSMR_CHECK(world.run().completed);
  return static_cast<double>(busy) / kOps;
}

/// Log density on a fixed seeded sim schedule: bytes per event and per op.
struct LogDensity {
  double bytes_per_event = 0;
  double bytes_per_op = 0;
  std::uint64_t events = 0;
};

LogDensity measure_log_density() {
  constexpr int kOps = 64;
  auto config = world_config(kRanks, core::DetectorMode::kDualClock,
                             core::Transport::kHomeSide);
  World world(config);
  record::Recorder recorder(kRanks, record::Backend::kSim,
                            core::DetectorMode::kDualClock,
                            config.lock_clock_handoff, config.acked_puts);
  world.set_recorder(&recorder);
  const GlobalAddress x = world.alloc(kRanks - 1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    for (int i = 0; i < kOps; ++i) {
      co_await p.put_value(x, std::uint64_t{1});
      co_await p.get(x, 8);
    }
  });
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
  const auto bytes = recorder.log().serialize();
  LogDensity density;
  density.events = recorder.log().events.size();
  density.bytes_per_event = static_cast<double>(bytes.size()) /
                            static_cast<double>(density.events);
  density.bytes_per_op = static_cast<double>(bytes.size()) / (2.0 * kOps);
  return density;
}

void BM_ThreadOpRecorded(benchmark::State& state) {
  const auto mode = static_cast<core::DetectorMode>(state.range(0));
  const bool record = state.range(1) != 0;
  ThreadCost cost;
  for (auto _ : state) cost = measure_thread(mode, record);
  state.counters["wall_ns_per_op"] = cost.wall_ns_per_op;
}
BENCHMARK(BM_ThreadOpRecorded)
    ->ArgsProduct({{0, 2}, {0, 1}})
    ->ArgNames({"mode", "record"});

void print_summary() {
  const std::pair<const char*, core::DetectorMode> modes[] = {
      {"off", core::DetectorMode::kOff},
      {"dual-clock", core::DetectorMode::kDualClock},
  };
  util::Table table({"config", "plain ns/op", "recorded ns/op", "ratio (median)",
                     "ratio q1..q3", "log B/op"});
  for (const auto& [label, mode] : modes) {
    const PairedCost cost = measure_pairs(mode);
    table.add_row({label, util::Table::fmt(cost.plain_ns, 0),
                   util::Table::fmt(cost.recorded_ns, 0), util::Table::fmt(cost.ratio, 2),
                   util::Table::fmt(cost.ratio_q1, 2) + ".." +
                       util::Table::fmt(cost.ratio_q3, 2),
                   util::Table::fmt(cost.log_bytes_per_op, 1)});
    const std::string recorded_label = std::string(label) + "+record";
    json_add("record_op_wall", {{"backend", "thread"}, {"config", label}}, cost.plain_ns);
    json_add("record_op_wall", {{"backend", "thread"}, {"config", recorded_label}},
             cost.recorded_ns);
    json_add("record_op_ratio", {{"backend", "thread"}, {"config", label}}, cost.ratio);
  }
  print_table(
      "=== recording overhead: threaded backend, wall clock per op (n=4) ===\n"
      "(recorded/plain, median of " + std::to_string(kPairs) +
          " interleaved pairs, is the gated ratio — the always-on production cost)",
      table);

  {
    const double off = measure_sim_virtual(false);
    const double recorded = measure_sim_virtual(true);
    util::Table virt({"config", "put virtual ns", "delta"});
    virt.add_row({"off", util::Table::fmt(off, 0), "-"});
    virt.add_row({"off+record", util::Table::fmt(recorded, 0),
                  util::Table::fmt(recorded - off, 0)});
    print_table(
        "=== recording is virtually free: sim virtual put cost (exact-gated) ===",
        virt);
    json_add("put_protocol_record_virtual",
             {{"n", std::to_string(kRanks)}, {"mode", "off"}, {"record", "on"}},
             recorded);
  }
  {
    const LogDensity density = measure_log_density();
    util::Table log_table({"events", "bytes/event", "bytes/op"});
    log_table.add_row({util::Table::fmt_int(density.events),
                       util::Table::fmt(density.bytes_per_event, 2),
                       util::Table::fmt(density.bytes_per_op, 2)});
    print_table("=== log density: fixed dual-clock sim schedule (exact-gated) ===",
                log_table);
    json_add("record_log_density_virtual",
             {{"n", std::to_string(kRanks)}, {"backend", "sim"}, {"seed", "1"}},
             density.bytes_per_event, density.bytes_per_op);
  }
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::bench::init_json(&argc, argv, "record_overhead");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dsmr::bench::print_summary();
  dsmr::bench::write_json();
  return 0;
}
