// EXPERIMENTS: FIG3 — "a put operation is delayed until the end of the get
// operation on the same data" — and the NIC lock manager under load.
//
// Measures (a) the delay imposed on a put landing during an in-flight get
// as a function of the transfer size (the Fig. 3 semantics made
// quantitative), (b) lock-manager behaviour when many ranks hammer one
// hot area, and (c) the wall cost of a lock/unlock pair on the threaded
// backend when ranks lock different areas of one home.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/thread_world.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::World;

/// Returns (put completion delay beyond its uncontended cost, get duration)
/// when a SMALL (8-byte) put lands while a `size`-byte get response is in
/// flight. The put message arrives at the home in a couple of µs; the get
/// holds the area lock until its transfer completes, so the put's delay is
/// essentially the remaining transfer time — the Fig. 3 semantics.
struct Fig3Point {
  double put_delay_ns = 0;
  double get_ns = 0;
};

Fig3Point measure_fig3(std::uint32_t size) {
  auto config = world_config(3, core::DetectorMode::kOff, core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  config.segment_bytes = size + 4096;

  // Uncontended 8-byte put cost first.
  sim::Time solo_put = 0;
  {
    World world(config);
    const GlobalAddress x = world.alloc(1, size, "x");
    world.spawn(0, [x, &solo_put](Process& p) -> sim::Task {
      const sim::Time start = p.now();
      co_await p.put_value(x, std::uint64_t{1});
      solo_put = p.now() - start;
    });
    DSMR_CHECK(world.run().completed);
  }

  World world(config);
  const GlobalAddress x = world.alloc(1, size, "x");
  sim::Time put_cost = 0, get_cost = 0;
  world.spawn(2, [x, size, &get_cost](Process& p) -> sim::Task {
    const sim::Time start = p.now();
    co_await p.get(x, size);
    get_cost = p.now() - start;
  });
  world.spawn(0, [x, &put_cost](Process& p) -> sim::Task {
    co_await p.sleep(5'000);  // land inside the get's transfer window.
    const sim::Time start = p.now();
    co_await p.put_value(x, std::uint64_t{2});
    put_cost = p.now() - start;
  });
  DSMR_CHECK(world.run().completed);
  return {static_cast<double>(put_cost) - static_cast<double>(solo_put),
          static_cast<double>(get_cost)};
}

void BM_Fig3Delay(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Fig3Point point;
  for (auto _ : state) point = measure_fig3(size);
  state.counters["put_delay_ns"] = point.put_delay_ns;
}
BENCHMARK(BM_Fig3Delay)->Arg(4096)->Arg(65536)->Arg(1 << 20)->ArgName("bytes");

/// Hot-area stress: every rank does locked increments on one counter.
struct ContentionPoint {
  double virtual_ns_per_op = 0;
  std::uint64_t contended = 0;
  std::uint64_t max_queue = 0;
};

ContentionPoint measure_contention(int nprocs) {
  auto config = world_config(nprocs, core::DetectorMode::kDualClock,
                             core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  World world(config);
  const GlobalAddress counter = world.alloc(0, 8, "hot");
  constexpr int kOpsPerRank = 10;
  for (Rank r = 0; r < nprocs; ++r) {
    world.spawn(r, [counter](Process& p) -> sim::Task {
      for (int i = 0; i < kOpsPerRank; ++i) {
        co_await p.lock(counter);
        const auto v = co_await p.get_value<std::uint64_t>(counter);
        co_await p.put_value(counter, v + 1);
        co_await p.unlock(counter);
      }
    });
  }
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  DSMR_CHECK(world.races().count() == 0);
  ContentionPoint point;
  point.virtual_ns_per_op = static_cast<double>(report.end_time) /
                            (static_cast<double>(nprocs) * kOpsPerRank);
  point.contended = world.nic(0).locks().stats().contended;
  point.max_queue = world.nic(0).locks().stats().max_queue;
  return point;
}

void BM_HotLock(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  ContentionPoint point;
  for (auto _ : state) point = measure_contention(nprocs);
  state.counters["virt_ns_per_op"] = point.virtual_ns_per_op;
  state.counters["max_queue"] = static_cast<double>(point.max_queue);
}
BENCHMARK(BM_HotLock)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->ArgName("n");

/// Wall ns per lock+unlock pair on the threaded backend, median of 5 runs:
/// `nprocs` rank threads each lock and unlock their own area of home 0,
/// so only the home's lock table is shared, never a user lock.
double measure_thread_lock(int nprocs) {
  constexpr int kRounds = 100'000;
  std::vector<double> runs;
  for (int run = 0; run < 5; ++run) {
    runtime::ThreadWorldConfig config;
    config.nprocs = nprocs;
    runtime::ThreadWorld world(config);
    for (Rank r = 0; r < nprocs; ++r) {
      const GlobalAddress area = world.alloc(0, 8, "lock" + std::to_string(r));
      world.spawn(r, [area](runtime::ThreadProcess& p) {
        for (int i = 0; i < kRounds; ++i) {
          p.lock(area);
          p.unlock(area);
        }
      });
    }
    const auto report = world.run();
    DSMR_CHECK(report.completed);
    runs.push_back(static_cast<double>(report.wall_ns) /
                   (static_cast<double>(nprocs) * kRounds));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

void print_summary() {
  {
    util::Table table({"get transfer bytes", "get ns", "put delay ns", "delayed?"});
    for (const std::uint32_t size : {4096u, 65536u, 262144u, 1048576u}) {
      const auto point = measure_fig3(size);
      table.add_row({util::Table::fmt_int(size), util::Table::fmt(point.get_ns, 0),
                     util::Table::fmt(point.put_delay_ns, 0),
                     point.put_delay_ns > 0 ? "yes (Fig. 3)" : "no"});
    }
    print_table(
        "=== FIG3: a put landing mid-get waits for the transfer to finish ===",
        table);
  }
  {
    util::Table table({"n procs", "virtual ns/op", "contended acquires", "max queue"});
    for (const int n : {2, 4, 8, 16}) {
      const auto point = measure_contention(n);
      table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(n)),
                     util::Table::fmt(point.virtual_ns_per_op, 0),
                     util::Table::fmt_int(point.contended),
                     util::Table::fmt_int(point.max_queue)});
    }
    print_table("=== NIC lock manager under hot-area contention (locked RMW) ===",
                table);
  }
  {
    util::Table table({"rank threads", "wall ns per lock+unlock"});
    for (const int n : {1, 4}) {
      const double ns = measure_thread_lock(n);
      table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(n)),
                     util::Table::fmt(ns, 1)});
      json_add("thread_lock", {{"ranks", std::to_string(n)}}, ns);
    }
    print_table("=== Threaded user lock, each rank on its own area of one home ===",
                table);
  }
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::bench::init_json(&argc, argv, "lock_contention");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dsmr::bench::print_summary();
  dsmr::bench::write_json();
  return 0;
}
