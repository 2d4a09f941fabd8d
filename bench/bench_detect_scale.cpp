// The sharded detector core at production scale (ISSUE 10 tentpole).
//
// Four claims, each gated by tools/bench_gate.py against bench/baseline.json:
//  * batched range checks beat the legacy per-area check_access pattern by
//    >= 4x per check at 10^6 areas (the cache-shaped API claim), measured at
//    n=64 and at n=1024 ranks;
//  * checks/sec scales with the shard count under real 8-thread contention
//    (8 shards must not be slower than 2 beyond CI-machine slack);
//  * area registration stays amortized O(1): ns/area at 10^6 areas within a
//    small factor of ns/area at 16k (the PublicSegment sorted-index fix);
//  * piggybacking both area clocks charges the second as a delta against the
//    first — exact deterministic bytes per message, equal clocks collapsing
//    to two bytes;
//  * a registered area stays cheap on the threaded backend: heap bytes per
//    area of ThreadWorld::alloc at 10^6 areas, under a fixed ceiling.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "net/message.hpp"
#include "runtime/thread_world.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using clocks::VectorClock;
using detect::AreaSpan;
using detect::ShardedDetector;

constexpr std::size_t kAreas = 1'000'000;
constexpr std::size_t kBlock = 64;  ///< areas per same-state block (hot pattern).

/// Builds the bench detector: `hot` stores one distinct event per 4th block
/// of 64 areas (a mixed hot/cold lane with real run boundaries); cold leaves
/// every area aliasing the shared zero clock.
std::unique_ptr<ShardedDetector> make_detector(std::size_t nprocs, int shards,
                                               bool hot) {
  auto det = std::make_unique<ShardedDetector>(nprocs, /*home=*/0, shards);
  det->register_areas(kAreas);
  if (hot) {
    VectorClock clk(nprocs);
    std::uint64_t event = 0;
    for (std::size_t first = 0; first < kAreas; first += 4 * kBlock) {
      clk[0] += 1;  // a fresh home event per hot block.
      det->store_range(AreaSpan{static_cast<detect::AreaId>(first),
                                static_cast<std::uint32_t>(kBlock)},
                       /*owner=*/0, clk, /*is_write=*/true, /*accessor=*/0,
                       ++event);
    }
  }
  return det;
}

VectorClock issue_clock(std::size_t nprocs, Rank accessor) {
  VectorClock issue(nprocs);
  issue[0] = kAreas;  // dominates every stored home event: ordered, no races.
  issue[static_cast<std::size_t>(accessor)] += 1;
  return issue;
}

/// ns per area-check through the batched API, over `passes` full sweeps.
double batch_ns_per_check(const ShardedDetector& det, const VectorClock& issue,
                          Rank accessor, int passes) {
  std::uint64_t races = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    const auto batch = det.check_range(
        core::DetectorMode::kDualClock, core::AccessKind::kWrite, accessor, issue,
        AreaSpan{0, static_cast<std::uint32_t>(det.area_count())});
    races += batch.races;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  DSMR_CHECK(races == 0);
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         (static_cast<double>(passes) * static_cast<double>(det.area_count()));
}

/// ns per area-check through the legacy pattern the NIC used before the
/// extraction: per area, assemble StoredClocks from the stored state and
/// call core::check_access.
double scalar_ns_per_check(const ShardedDetector& det, const VectorClock& issue,
                           Rank accessor, int passes) {
  std::uint64_t races = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    for (detect::AreaId id = 0; id < det.area_count(); ++id) {
      const core::StoredClocks stored{
          det.v_clock(id),          det.w_clock(id),
          det.last_access_rank(id), det.last_write_rank(id),
          det.v_epoch(id),          det.w_epoch(id)};
      const auto verdict =
          core::check_access(core::DetectorMode::kDualClock,
                             core::AccessKind::kWrite, accessor, issue, stored);
      races += verdict.race ? 1 : 0;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  DSMR_CHECK(races == 0);
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         (static_cast<double>(passes) * static_cast<double>(det.area_count()));
}

/// ns per op with 8 threads doing check+store rounds against one detector
/// partitioned into `shards` shards — the ThreadWorld inline-path shape.
double contended_ns_per_op(int shards) {
  constexpr std::size_t kProcs = 8;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 100'000;
  constexpr std::size_t kHotAreas = 4096;  // small enough to collide, mod shards.
  ShardedDetector det(kProcs, /*home=*/0, shards);
  det.register_areas(kHotAreas);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &det]() {
      const auto rank = static_cast<Rank>(t);
      VectorClock clk(kProcs);
      std::uint64_t x = static_cast<std::uint64_t>(t) * 2654435761u + 1;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;  // xorshift: cheap, deterministic per thread.
        const auto id = static_cast<detect::AreaId>(x % kHotAreas);
        clk[static_cast<std::size_t>(rank)] += 1;
        std::lock_guard<std::mutex> guard(det.shard_mutex(id));
        const auto verdict =
            det.check_one(core::DetectorMode::kDualClock, core::AccessKind::kWrite,
                          rank, clk, id);
        benchmark::DoNotOptimize(verdict);
        det.store_access(id, rank, clk, /*is_write=*/true, rank, i + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         static_cast<double>(kThreads * kOpsPerThread);
}

/// ns per registered area along the full World::alloc path — PublicSegment
/// bump allocation through the amortized sorted index, plus detector
/// registration — at two scales. Amortized O(1) keeps them within a small
/// factor (the old always-sorted insert was what this bench guards against).
double registration_ns_per_area(std::size_t count) {
  const auto start = std::chrono::steady_clock::now();
  mem::PublicSegment segment(0, static_cast<std::uint32_t>(8 * count), 64);
  ShardedDetector det(64, /*home=*/0, /*shards=*/8);
  for (std::size_t i = 0; i < count; ++i) {
    const mem::AreaId id = segment.allocate_area(8, "x");
    det.register_area(id);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  DSMR_CHECK(det.area_count() == count && segment.area_count() == count);
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         static_cast<double>(count);
}

struct ThreadAllocCost {
  double ns_per_area = 0;
  double heap_bytes_per_area = 0;
};

/// Heap bytes in use, mmapped blocks included (large vectors live there).
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// The full threaded registration path: ThreadWorld::alloc of `count`
/// 8-byte areas on one home (area table and index, detector lanes, and any
/// per-area lock state). Heap bytes are the in-use delta over the allocs,
/// so the world's fixed construction cost — including the segment's
/// reserved, not yet materialized, backing — is excluded.
ThreadAllocCost thread_alloc_cost(std::size_t count) {
  runtime::ThreadWorldConfig config;
  config.nprocs = 1;
  config.segment_bytes = static_cast<std::uint32_t>(8 * count);
  runtime::ThreadWorld world(config);
  const std::size_t heap_before = heap_in_use();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) world.alloc(0, 8, "x");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::size_t heap_after = heap_in_use();
  DSMR_CHECK(world.segment(0).area_count() == count);
  const auto n = static_cast<double>(count);
  return ThreadAllocCost{
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) / n,
      (static_cast<double>(heap_after) - static_cast<double>(heap_before)) / n};
}

/// Exact charged clock bytes for a dual-clock message at n=64: the V clock
/// plain, the W clock delta-encoded against it (net::Message accounting).
double piggyback_clock_bytes(bool diverged) {
  net::Message m;
  m.clock = VectorClock(64);
  for (std::size_t i = 0; i < 64; ++i) m.clock[i] = 100 + i;
  m.clock2 = m.clock;
  if (diverged) {
    m.clock2[3] += 1;
    m.clock2[40] += 7;
  }
  return static_cast<double>(m.charged_clock_bytes());
}

// ---------------------------------------------------------------------------
// google-benchmark registrations (CI smoke filter: BM_DetectCheckRange).
// ---------------------------------------------------------------------------

void BM_DetectCheckRange(benchmark::State& state) {
  const auto nprocs = static_cast<std::size_t>(state.range(0));
  const bool hot = state.range(1) != 0;
  const auto det = make_detector(nprocs, 8, hot);
  const Rank accessor = 1;
  const VectorClock issue = issue_clock(nprocs, accessor);
  std::uint64_t races = 0;
  for (auto _ : state) {
    const auto batch = det->check_range(
        core::DetectorMode::kDualClock, core::AccessKind::kWrite, accessor, issue,
        AreaSpan{0, static_cast<std::uint32_t>(kAreas)});
    races += batch.races;
    benchmark::DoNotOptimize(batch);
  }
  DSMR_CHECK(races == 0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAreas));
}
BENCHMARK(BM_DetectCheckRange)
    ->ArgsProduct({{64, 1024}, {0, 1}})
    ->ArgNames({"n", "hot"})
    ->Unit(benchmark::kMillisecond);

void print_summary() {
  {
    // Batch vs scalar at 10^6 areas. Cold at n=64 and n=1024 (the production
    // claim: 10^8 checks through the batch path in this one table), hot at
    // n=64 (real run boundaries every 64 areas).
    util::Table table({"n", "pattern", "batch ns/check", "scalar ns/check",
                       "speedup", "checks"});
    struct Axis {
      std::size_t nprocs;
      bool hot;
      int batch_passes;
      int scalar_passes;
    };
    const Axis axes[] = {{64, false, 100, 3}, {64, true, 20, 3}, {1024, false, 20, 3}};
    for (const Axis& axis : axes) {
      const auto det = make_detector(axis.nprocs, 8, axis.hot);
      const Rank accessor = 1;
      const VectorClock issue = issue_clock(axis.nprocs, accessor);
      const double batch_ns =
          batch_ns_per_check(*det, issue, accessor, axis.batch_passes);
      const double scalar_ns =
          scalar_ns_per_check(*det, issue, accessor, axis.scalar_passes);
      const char* pattern = axis.hot ? "blocks64" : "cold";
      table.add_row({util::Table::fmt_int(axis.nprocs), pattern,
                     util::Table::fmt(batch_ns, 2), util::Table::fmt(scalar_ns, 2),
                     util::Table::fmt(scalar_ns / batch_ns, 1),
                     util::Table::fmt_int(static_cast<std::uint64_t>(
                         axis.batch_passes) * kAreas)});
      json_add("detect_check_scale",
               {{"n", std::to_string(axis.nprocs)},
                {"areas", std::to_string(kAreas)},
                {"pattern", pattern},
                {"path", "batch"}},
               batch_ns);
      json_add("detect_check_scale",
               {{"n", std::to_string(axis.nprocs)},
                {"areas", std::to_string(kAreas)},
                {"pattern", pattern},
                {"path", "scalar"}},
               scalar_ns);
    }
    print_table(
        "=== Sharded detector: batched vs per-area checks, 10^6 areas ===", table);
  }
  {
    util::Table table({"shards", "ns/op (8 threads)", "Mops/s"});
    for (const int shards : {1, 2, 8}) {
      const double ns = contended_ns_per_op(shards);
      table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(shards)),
                     util::Table::fmt(ns, 1), util::Table::fmt(1000.0 / ns, 1)});
      json_add("detect_shard_scaling", {{"threads", "8"}, {"shards", std::to_string(shards)}},
               ns);
    }
    print_table(
        "=== Sharded detector: 8-thread check+store contention vs shard count ===",
        table);
  }
  {
    util::Table table({"areas", "ns/area"});
    const double small = registration_ns_per_area(16'384);
    const double large = registration_ns_per_area(kAreas);
    table.add_row({"16384", util::Table::fmt(small, 1)});
    table.add_row({"1000000", util::Table::fmt(large, 1)});
    json_add("detect_registration", {{"areas", "16384"}}, small);
    json_add("detect_registration", {{"areas", "1000000"}}, large);
    print_table("=== Area registration stays amortized O(1) ===", table);
  }
  {
    util::Table table({"areas (8 B, one home)", "ns/area", "heap B/area"});
    const ThreadAllocCost cost = thread_alloc_cost(kAreas);
    table.add_row({"1000000", util::Table::fmt(cost.ns_per_area, 1),
                   util::Table::fmt(cost.heap_bytes_per_area, 1)});
    json_add("thread_alloc", {{"areas", std::to_string(kAreas)}, {"area_bytes", "8"}},
             cost.ns_per_area, cost.heap_bytes_per_area);
    print_table("=== What a registered area costs: ThreadWorld::alloc ===", table);
  }
  {
    util::Table table({"clock state (n=64)", "charged bytes"});
    const double equal = piggyback_clock_bytes(false);
    const double diverged = piggyback_clock_bytes(true);
    table.add_row({"V == W", util::Table::fmt(equal, 0)});
    table.add_row({"W diverges in 2 slots", util::Table::fmt(diverged, 0)});
    json_add("piggyback_clock_bytes", {{"n", "64"}, {"state", "equal"}}, 0.0, equal);
    json_add("piggyback_clock_bytes", {{"n", "64"}, {"state", "diverged"}}, 0.0,
             diverged);
    print_table("=== Piggyback cost: dual clocks, second delta-encoded ===", table);
  }
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::bench::init_json(&argc, argv, "detect_scale");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dsmr::bench::print_summary();
  dsmr::bench::write_json();
  return 0;
}
