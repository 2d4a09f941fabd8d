// The threaded workloads: 3 rank threads on runtime::ThreadWorld with
// dual-clock detection, closed loop (each rank starts its next put/get when
// the previous one returns). A run is a sequence of fixed-size *programs* —
// one ThreadWorld each, built, run, output-checked and torn down — so memory
// stays bounded however long the run is and set-up is sampled many times.
// The rank threads share one CPU (main.cpp pins the process): they
// interleave through the same mutexes, recorder and clocks instead of
// running in parallel, and a rank waits on a shard mutex only when another
// rank was preempted while holding it.
//
//  * thread_contended — every area lives on rank 0: a read-shared table of
//    8 areas that rank 0 writes before a signal barrier, plus one private
//    8-byte area per rank. After the barrier each rank makes 3 table gets
//    per private put, with a Recorder attached (the always-on production
//    configuration). Readers and writers pile onto a few shard mutexes and
//    the recorder's shared sequence.
//  * thread_spread — no recorder; every home registers 10^5 areas of 64 B
//    and each rank alternates put/get on uniformly random areas of its own
//    disjoint slice on every home: area resolve, 64-B copies, cold-lane
//    clock materialization and registration, with little lock contention.
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the per-layer
// ledger: each program runs on the real ThreadWorld at dual-clock and at
// DetectorMode::kOff (untraced), then its op streams are replayed on 3
// threads through a *decomposed loop* that calls each layer's public
// functions in the order ThreadProcess::put/get does, stamping the layer
// boundaries of one op in kTraceStride.
#include <cstring>
#include <latch>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "net/message.hpp"
#include "net/thread_fabric.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "runtime/thread_world.hpp"

namespace perfbench {
namespace {

using dsmr::Rank;
using dsmr::clocks::VectorClock;
using dsmr::core::AccessKind;
using dsmr::core::DetectorMode;
using dsmr::mem::GlobalAddress;
namespace record = dsmr::record;
namespace rt = dsmr::runtime;

constexpr int kRanks = 3;
constexpr int kTableAreas = 8;
constexpr std::uint64_t kBarrierTag = 1;
constexpr std::size_t kLatencyStride = 8;  // one put/get in 8 is timed.
constexpr std::size_t kTraceStride = 8;    // one op in 8 is stamped per layer.
// A put/get costs a few us; a stamped op spanning more was switched out.
constexpr double kPreemptedNs = 50'000;
constexpr int kMinPrograms = 3;

enum class Shape { kContended, kSpread };

struct Spec {
  Shape shape;
  bool record;                 ///< attach a Recorder (thread_contended).
  std::size_t ops_per_rank;    ///< put/get calls per rank per program.
  std::uint32_t area_bytes;
  std::uint32_t areas_per_home;
  std::uint32_t segment_bytes;
  int shards;                  ///< detector shards (ThreadWorldConfig::stripes) per home.
};

// thread_contended keeps the default 8 shards; thread_spread uses enough
// shards that two ranks rarely meet on one mutex, which is what makes it the
// uncontended counterpart.
constexpr Spec kContendedSpec{Shape::kContended, true, 30'000, 8, kTableAreas + kRanks,
                              1u << 12, 8};
constexpr Spec kSpreadSpec{Shape::kSpread, false, 100'000, 64, 100'000, 100'000 * 64, 256};

int homes(const Spec& spec) { return spec.shape == Shape::kContended ? 1 : kRanks; }

/// thread_spread: rank r owns area ids [lo, hi) on every home.
std::uint32_t slice_lo(const Spec& spec, Rank r) {
  return static_cast<std::uint32_t>(std::uint64_t{spec.areas_per_home} *
                                    static_cast<std::uint64_t>(r) / kRanks);
}
std::uint32_t slice_hi(const Spec& spec, Rank r) { return slice_lo(spec, r + 1); }

struct Op {
  bool put = false;
  std::uint8_t home = 0;
  std::uint32_t area = 0;  ///< area id on `home`.
};

/// One program's inputs, all derived from (seed, program index).
struct Program {
  std::vector<std::vector<Op>> ops;  ///< per rank; after the barrier.
  std::vector<std::uint64_t> table;  ///< thread_contended table values.
};

Program make_program(const Spec& spec, std::uint64_t seed, std::uint64_t index) {
  Program program;
  program.ops.resize(kRanks);
  if (spec.shape == Shape::kContended) {
    for (int i = 0; i < kTableAreas; ++i) {
      program.table.push_back(mix_seed(seed, index, 1000 + i) | 1);
    }
  }
  for (Rank r = 0; r < kRanks; ++r) {
    dsmr::util::Rng rng(mix_seed(seed, index, static_cast<std::uint64_t>(r)));
    auto& ops = program.ops[static_cast<std::size_t>(r)];
    ops.reserve(spec.ops_per_rank);
    if (spec.shape == Shape::kContended) {
      // Rounds of one private put and three table gets, put position random.
      while (ops.size() < spec.ops_per_rank) {
        const std::uint64_t put_at = rng.below(4);
        for (std::uint64_t k = 0; k < 4 && ops.size() < spec.ops_per_rank; ++k) {
          if (k == put_at) {
            ops.push_back(Op{true, 0, static_cast<std::uint32_t>(kTableAreas + r)});
          } else {
            ops.push_back(Op{false, 0, static_cast<std::uint32_t>(rng.below(kTableAreas))});
          }
        }
      }
    } else {
      const std::uint32_t lo = slice_lo(spec, r);
      const std::uint32_t span = slice_hi(spec, r) - lo;
      for (std::size_t i = 0; i < spec.ops_per_rank; ++i) {
        ops.push_back(Op{i % 2 == 0, static_cast<std::uint8_t>(rng.below(kRanks)),
                         lo + static_cast<std::uint32_t>(rng.below(span))});
      }
    }
  }
  return program;
}

std::string area_name(const Spec& spec, std::uint32_t id) {
  if (spec.shape == Shape::kContended) {
    return id < kTableAreas ? "table" + std::to_string(id)
                            : "private" + std::to_string(id - kTableAreas);
  }
  return "s" + std::to_string(id);
}

/// What one rank wrote and must read back: every payload word of a put
/// carries the rank's next tag; a get must return the table value
/// (thread_contended) or the last tag this rank put there (thread_spread).
class RankChecker {
 public:
  RankChecker(const Spec& spec, const Program& program, Rank rank)
      : spec_(spec), program_(program), rank_(rank) {
    if (spec.shape == Shape::kSpread) {
      shadow_.assign(static_cast<std::size_t>(kRanks) *
                         (slice_hi(spec, rank) - slice_lo(spec, rank)),
                     0);
    }
  }

  void prepare_put(const Op& op, std::vector<std::byte>& value) {
    last_tag_ = (static_cast<std::uint64_t>(rank_ + 1) << 48) | ++puts_;
    fill(value, last_tag_);
    if (spec_.shape == Shape::kSpread) shadow_[slot(op)] = last_tag_;
  }

  bool get_ok(const Op& op, const std::vector<std::byte>& got) const {
    const std::uint64_t want = spec_.shape == Shape::kContended
                                   ? program_.table[op.area]
                                   : shadow_[slot(op)];
    return holds(got, want, spec_.area_bytes);
  }

  std::uint64_t last_tag() const { return last_tag_; }

  static void fill(std::vector<std::byte>& value, std::uint64_t word) {
    for (std::size_t at = 0; at + 8 <= value.size(); at += 8) {
      std::memcpy(value.data() + at, &word, 8);
    }
  }
  static bool holds(const std::vector<std::byte>& got, std::uint64_t word,
                    std::uint32_t bytes) {
    if (got.size() != bytes) return false;
    for (std::size_t at = 0; at + 8 <= got.size(); at += 8) {
      std::uint64_t seen = 0;
      std::memcpy(&seen, got.data() + at, 8);
      if (seen != word) return false;
    }
    return true;
  }

 private:
  std::size_t slot(const Op& op) const {
    const std::size_t span = slice_hi(spec_, rank_) - slice_lo(spec_, rank_);
    return op.home * span + (op.area - slice_lo(spec_, rank_));
  }

  const Spec& spec_;
  const Program& program_;
  Rank rank_;
  std::uint64_t puts_ = 0;
  std::uint64_t last_tag_ = 0;
  std::vector<std::uint64_t> shadow_;
};

std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// ---------------------------------------------------------------------------
// The real ThreadWorld run of one program.
// ---------------------------------------------------------------------------

struct RealRun {
  std::uint64_t setup_ns = 0;   ///< world build + registration + spawn.
  std::uint64_t run_ns = 0;     ///< ThreadWorld::run() wall.
  std::uint64_t check_ns = 0;   ///< output checks incl. record finish + fold.
  std::uint64_t ops = 0;        ///< put/get calls (the run's check count).
  std::uint64_t races = 0;
  std::uint64_t failed = 0;     ///< failed put/get calls (whole program on a bad run).
  std::uint64_t finish_ns = 0;  ///< Recorder::finish.
  std::uint64_t fold_ns = 0;    ///< record::check_record_replay of the sealed log.
  std::uint64_t events = 0;     ///< sealed log events.
  std::uint64_t recorder_heap = 0;  ///< heap growth across run() (trace only).
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t resident_clock_bytes = 0;
};

void barrier(rt::ThreadProcess& p) {
  for (Rank to = 0; to < kRanks; ++to) {
    if (to != p.rank()) p.signal(to, kBarrierTag);
  }
  for (int k = 0; k < kRanks - 1; ++k) p.wait_signal(kBarrierTag);
}

/// One rank's timed put/get latencies (ns) for the current program. A cache
/// line apart from its neighbours: each rank thread appends to its own.
struct alignas(64) LatencySamples {
  std::vector<double> ns;
};

/// `latency`, when given, holds one sample set per rank (appended to) and
/// `scale` converts the tick samples to ns.
RealRun run_real(const Spec& spec, const Program& program, DetectorMode mode,
                 std::vector<LatencySamples>* latency, const TickScale& scale,
                 bool measure_heap) {
  RealRun out;
  const std::uint64_t setup_start = now_ns();
  rt::ThreadWorldConfig config;
  config.nprocs = kRanks;
  config.mode = mode;
  config.stripes = spec.shards;
  config.segment_bytes = spec.segment_bytes;
  std::optional<record::Recorder> recorder;
  if (spec.record) {
    recorder.emplace(kRanks, record::Backend::kThread, mode, config.lock_clock_handoff,
                     config.acked_puts);
    config.recorder = &*recorder;
  }
  rt::ThreadWorld world(config);
  std::vector<std::vector<GlobalAddress>> addr(static_cast<std::size_t>(homes(spec)));
  for (Rank h = 0; h < homes(spec); ++h) {
    auto& table = addr[static_cast<std::size_t>(h)];
    table.reserve(spec.areas_per_home);
    for (std::uint32_t id = 0; id < spec.areas_per_home; ++id) {
      table.push_back(world.alloc(h, spec.area_bytes, area_name(spec, id)));
    }
  }
  struct alignas(64) RankOut {
    std::uint64_t bad = 0;
    std::uint64_t last_tag = 0;
  };
  std::vector<RankOut> rank_out(kRanks);
  for (Rank r = 0; r < kRanks; ++r) {
    world.spawn(r, [&, r](rt::ThreadProcess& p) {
      const auto& ops = program.ops[static_cast<std::size_t>(r)];
      RankChecker checker(spec, program, r);
      std::vector<std::byte> value(spec.area_bytes);
      if (spec.shape == Shape::kContended) {
        if (r == 0) {
          for (int i = 0; i < kTableAreas; ++i) {
            RankChecker::fill(value, program.table[static_cast<std::size_t>(i)]);
            p.put(addr[0][static_cast<std::size_t>(i)], value);
          }
        }
        barrier(p);
      }
      std::vector<double>* lat =
          latency != nullptr ? &(*latency)[static_cast<std::size_t>(r)].ns : nullptr;
      RankOut& mine = rank_out[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        const GlobalAddress at = addr[op.home][op.area];
        const bool timed = lat != nullptr && i % kLatencyStride == 0;
        if (op.put) {
          checker.prepare_put(op, value);
          const std::uint64_t t0 = timed ? ticks() : 0;
          p.put(at, value);
          if (timed) lat->push_back(scale.ns(ticks() - t0));
        } else {
          const std::uint64_t t0 = timed ? ticks() : 0;
          const std::vector<std::byte> got = p.get(at, spec.area_bytes);
          if (timed) lat->push_back(scale.ns(ticks() - t0));
          if (!checker.get_ok(op, got)) ++mine.bad;
        }
      }
      mine.last_tag = checker.last_tag();
    });
  }
  const std::size_t heap_before = measure_heap ? heap_in_use() : 0;
  out.setup_ns = now_ns() - setup_start;

  const rt::ThreadRunReport report = world.run();
  out.run_ns = report.wall_ns;
  if (measure_heap) {
    const std::size_t heap_after = heap_in_use();
    out.recorder_heap = heap_after > heap_before ? heap_after - heap_before : 0;
  }

  const std::uint64_t check_start = now_ns();
  out.ops = report.checks;
  out.races = report.race_count;
  std::uint64_t failed = report.race_count;
  for (Rank r = 0; r < kRanks; ++r) {
    const RankOut& mine = rank_out[static_cast<std::size_t>(r)];
    failed += mine.bad;
    if (spec.shape == Shape::kContended && mine.last_tag != 0) {
      // The private area must hold its owner's last put.
      const GlobalAddress at = addr[0][static_cast<std::size_t>(kTableAreas + r)];
      if (!RankChecker::holds(world.segment(0).read_bytes(at.offset, spec.area_bytes),
                              mine.last_tag, spec.area_bytes)) {
        ++failed;
      }
    }
  }
  if (!report.completed) {
    std::fprintf(stderr, "perfbench: program did not complete (%zu stuck ranks)\n",
                 report.stuck_ranks.size());
    failed = out.ops;
  }
  if (recorder) {
    std::uint64_t t = now_ns();
    recorder->finish(world.races().reports(), report.completed, report.stuck_ranks);
    out.finish_ns = now_ns() - t;
    t = now_ns();
    const std::string mismatch = record::check_record_replay(recorder->log());
    out.fold_ns = now_ns() - t;
    out.events = recorder->log().events.size();
    if (!mismatch.empty()) {
      std::fprintf(stderr, "perfbench: record != live: %s\n", mismatch.c_str());
      failed = out.ops;
    }
  }
  out.failed = std::min(failed, out.ops);
  const dsmr::net::TrafficCounters traffic = world.traffic();
  out.msgs = traffic.total_messages;
  out.bytes = traffic.total_bytes;
  for (Rank h = 0; h < kRanks; ++h) {
    out.resident_clock_bytes += world.detector(h).resident_clock_bytes();
  }
  out.check_ns = now_ns() - check_start;
  return out;
}

// ---------------------------------------------------------------------------
// The decomposed loop: ThreadProcess::put/get spelled out layer by layer.
// ---------------------------------------------------------------------------

/// Consecutive stamp intervals of one op, in call order.
enum Segment : int {
  kResolve,   ///< PublicSegment::find_area.
  kAreaIndex, ///< Recorder::area_index (record layer).
  kTick,      ///< clock tick + event id (clocks layer).
  kWait,      ///< shard mutex acquire.
  kAppend,    ///< Recorder::record_thread under the mutex.
  kCheck,     ///< ShardedDetector::check_one.
  kSnapshot,  ///< completion / reads-from clock copy (clocks layer).
  kStore,     ///< ShardedDetector::store_access.
  kCopy,      ///< write_bytes / read_bytes.
  kRelease,   ///< shard mutex release.
  kMerge,     ///< clock merge after the critical section (clocks layer).
  kNet,       ///< message build + ThreadFabric shard record.
  kSegments,
};

struct alignas(64) RankLedger {
  std::uint64_t stamped = 0;
  std::uint64_t preempted = 0;  ///< stamped ops set aside (see add).
  std::uint64_t seg[kSegments] = {};
  std::uint64_t hold = 0;  ///< acquire → release, ticks.
  std::uint64_t checks = 0;
  std::uint64_t races = 0;
  std::uint64_t bad = 0;

  /// Adds one stamped op, unless it spans more than `preempted_ticks`: the
  /// ranks share one CPU, so such an op was switched out mid-way and its
  /// segments hold the other ranks' time slices, not its own layers.
  void add(const std::uint64_t (&t)[kSegments + 1], std::uint64_t preempted_ticks) {
    if (t[kSegments] - t[0] > preempted_ticks) {
      ++preempted;
      return;
    }
    ++stamped;
    for (int s = 0; s < kSegments; ++s) seg[s] += t[s + 1] - t[s];
    hold += t[kRelease + 1] - t[kWait + 1];
  }

  void merge(const RankLedger& other) {
    stamped += other.stamped;
    preempted += other.preempted;
    for (int s = 0; s < kSegments; ++s) seg[s] += other.seg[s];
    hold += other.hold;
    checks += other.checks;
    races += other.races;
    bad += other.bad;
  }
};

struct LedgerWorld {
  struct Home {
    Home(Rank rank, const Spec& spec)
        : segment(rank, spec.segment_bytes, kRanks), detector(kRanks, rank, spec.shards) {}
    dsmr::mem::PublicSegment segment;
    dsmr::detect::ShardedDetector detector;
    std::vector<std::uint32_t> offsets;  ///< by area id.
  };
  std::vector<std::unique_ptr<Home>> homes;
  std::optional<record::Recorder> recorder;
  dsmr::net::ThreadFabric fabric{kRanks};
  std::uint64_t register_ns = 0;
  std::uint64_t registered = 0;
  std::uint64_t preempted_ticks = 0;  ///< see RankLedger::add.
};

void build_ledger_world(const Spec& spec, LedgerWorld& w) {
  if (spec.record) {
    w.recorder.emplace(kRanks, record::Backend::kThread, DetectorMode::kDualClock, true,
                       true);
  }
  for (Rank h = 0; h < kRanks; ++h) {
    w.homes.push_back(std::make_unique<LedgerWorld::Home>(h, spec));
  }
  for (Rank h = 0; h < homes(spec); ++h) {
    LedgerWorld::Home& home = *w.homes[static_cast<std::size_t>(h)];
    home.offsets.reserve(spec.areas_per_home);
    for (std::uint32_t id = 0; id < spec.areas_per_home; ++id) {
      const auto area = home.segment.allocate_area(spec.area_bytes, area_name(spec, id));
      home.offsets.push_back(home.segment.area(area).offset);
      if (w.recorder) w.recorder->register_area(h, area, spec.area_bytes, area_name(spec, id));
    }
    const std::uint64_t t = now_ns();
    for (std::uint32_t id = 0; id < spec.areas_per_home; ++id) home.detector.register_area(id);
    w.register_ns += now_ns() - t;
    w.registered += spec.areas_per_home;
  }
}

template <bool kStamp>
std::uint64_t stamp() {
  if constexpr (kStamp) {
    return ticks();
  } else {
    return 0;
  }
}

void account(LedgerWorld& w, Rank rank, dsmr::net::Message m) {
  w.fabric.shard(rank).record(m);
}

template <bool kStamp>
void ledger_put(LedgerWorld& w, Rank rank, const Op& op, const std::vector<std::byte>& data,
                VectorClock& clock, std::uint64_t& op_seq, RankLedger& ledger) {
  namespace net = dsmr::net;
  std::uint64_t t[kSegments + 1];
  t[kResolve] = stamp<kStamp>();
  LedgerWorld::Home& home = *w.homes[op.home];
  const std::uint32_t offset = home.offsets[op.area];
  dsmr::mem::Area* area =
      home.segment.find_area(offset, static_cast<std::uint32_t>(data.size()));
  t[kAreaIndex] = stamp<kStamp>();
  record::Recorder* const rec = w.recorder ? &*w.recorder : nullptr;
  const std::uint64_t flat = rec != nullptr ? rec->area_index(op.home, area->id) : 0;
  t[kTick] = stamp<kStamp>();
  clock.tick(rank);
  const std::uint64_t event_id = (static_cast<std::uint64_t>(rank) << 40) | ++op_seq;
  VectorClock completion;
  dsmr::detect::ShardedDetector& det = home.detector;
  t[kWait] = stamp<kStamp>();
  std::unique_lock<std::mutex> guard(det.shard_mutex(area->id));
  t[kAppend] = stamp<kStamp>();
  ++ledger.checks;
  if (rec != nullptr) rec->record_thread(rank, record::EventKind::kThreadPut, flat, data.size());
  t[kCheck] = stamp<kStamp>();
  const dsmr::core::Verdict verdict =
      det.check_one(DetectorMode::kDualClock, AccessKind::kWrite, rank, clock, area->id);
  if (verdict.race) ++ledger.races;
  t[kSnapshot] = stamp<kStamp>();
  completion = det.v_clock(area->id);
  completion.merge_from(det.w_clock(area->id));
  t[kStore] = stamp<kStamp>();
  det.store_access(area->id, rank, clock, /*is_write=*/true, rank, event_id);
  t[kCopy] = stamp<kStamp>();
  home.segment.write_bytes(offset, data);
  t[kRelease] = stamp<kStamp>();
  guard.unlock();
  t[kMerge] = stamp<kStamp>();
  clock.merge_from(completion);
  t[kNet] = stamp<kStamp>();
  net::Message commit;
  commit.type = net::MsgType::kPutCommit;
  commit.src = rank;
  commit.dst = op.home;
  commit.area = area->id;
  commit.data.resize(data.size());
  commit.clock = clock;
  account(w, rank, std::move(commit));
  net::Message ack;
  ack.type = net::MsgType::kPutCommitAck;
  ack.src = op.home;
  ack.dst = rank;
  ack.area = area->id;
  ack.clock = completion;
  account(w, rank, std::move(ack));
  t[kSegments] = stamp<kStamp>();
  if constexpr (kStamp) ledger.add(t, w.preempted_ticks);
}

template <bool kStamp>
std::vector<std::byte> ledger_get(LedgerWorld& w, Rank rank, const Op& op, std::uint32_t len,
                                  VectorClock& clock, std::uint64_t& op_seq,
                                  RankLedger& ledger) {
  namespace net = dsmr::net;
  std::uint64_t t[kSegments + 1];
  t[kResolve] = stamp<kStamp>();
  LedgerWorld::Home& home = *w.homes[op.home];
  const std::uint32_t offset = home.offsets[op.area];
  dsmr::mem::Area* area = home.segment.find_area(offset, len);
  t[kAreaIndex] = stamp<kStamp>();
  record::Recorder* const rec = w.recorder ? &*w.recorder : nullptr;
  const std::uint64_t flat = rec != nullptr ? rec->area_index(op.home, area->id) : 0;
  t[kTick] = stamp<kStamp>();
  clock.tick(rank);
  const std::uint64_t event_id = (static_cast<std::uint64_t>(rank) << 40) | ++op_seq;
  VectorClock reads_from;
  std::vector<std::byte> data;
  dsmr::detect::ShardedDetector& det = home.detector;
  t[kWait] = stamp<kStamp>();
  std::unique_lock<std::mutex> guard(det.shard_mutex(area->id));
  t[kAppend] = stamp<kStamp>();
  ++ledger.checks;
  if (rec != nullptr) rec->record_thread(rank, record::EventKind::kThreadGet, flat, len);
  t[kCheck] = stamp<kStamp>();
  const dsmr::core::Verdict verdict =
      det.check_one(DetectorMode::kDualClock, AccessKind::kRead, rank, clock, area->id);
  if (verdict.race) ++ledger.races;
  t[kSnapshot] = stamp<kStamp>();
  reads_from = det.w_clock(area->id);
  t[kStore] = stamp<kStamp>();
  det.store_access(area->id, rank, clock, /*is_write=*/false, rank, event_id);
  t[kCopy] = stamp<kStamp>();
  data = home.segment.read_bytes(offset, len);
  t[kRelease] = stamp<kStamp>();
  guard.unlock();
  t[kMerge] = stamp<kStamp>();
  clock.merge_from(reads_from);
  t[kNet] = stamp<kStamp>();
  net::Message request;
  request.type = net::MsgType::kGetLockedRequest;
  request.src = rank;
  request.dst = op.home;
  request.area = area->id;
  request.clock = clock;
  account(w, rank, std::move(request));
  net::Message response;
  response.type = net::MsgType::kGetLockedResponse;
  response.src = op.home;
  response.dst = rank;
  response.area = area->id;
  response.data.resize(len);
  response.clock = reads_from;
  account(w, rank, std::move(response));
  t[kSegments] = stamp<kStamp>();
  if constexpr (kStamp) ledger.add(t, w.preempted_ticks);
  return data;
}

struct LedgerRun {
  RankLedger total;
  std::uint64_t wall_ns = 0;  ///< rank threads' start to join, as ThreadWorld::run.
  std::uint64_t register_ns = 0;
  std::uint64_t registered = 0;
};

LedgerRun run_ledger(const Spec& spec, const Program& program, std::uint64_t preempted_ticks) {
  LedgerWorld w;
  w.preempted_ticks = preempted_ticks;
  build_ledger_world(spec, w);
  // Per-rank state, one cache line apart: the ranks of ThreadWorld live in
  // separate allocations, and false sharing here would bill other layers.
  struct alignas(64) RankState {
    VectorClock clock = VectorClock(kRanks);
    std::uint64_t op_seq = 0;
  };
  std::vector<RankState> state(kRanks);
  std::vector<RankLedger> ledgers(kRanks);
  if (spec.shape == Shape::kContended) {
    // Rank 0's table writes, then the barrier's happens-before edge: every
    // rank ticks and joins every rank's clock, as the signal barrier does.
    std::vector<std::byte> value(spec.area_bytes);
    for (int i = 0; i < kTableAreas; ++i) {
      RankChecker::fill(value, program.table[static_cast<std::size_t>(i)]);
      ledger_put<false>(w, 0, Op{true, 0, static_cast<std::uint32_t>(i)}, value,
                        state[0].clock, state[0].op_seq, ledgers[0]);
    }
    VectorClock joined(kRanks);
    for (Rank r = 0; r < kRanks; ++r) {
      state[static_cast<std::size_t>(r)].clock.tick(r);
      joined.merge_from(state[static_cast<std::size_t>(r)].clock);
    }
    for (RankState& rank : state) rank.clock.merge_from(joined);
  }
  std::latch go(kRanks);
  std::vector<std::thread> threads;
  const std::uint64_t start = now_ns();
  for (Rank r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r]() {
      const auto& ops = program.ops[static_cast<std::size_t>(r)];
      RankChecker checker(spec, program, r);
      RankLedger& ledger = ledgers[static_cast<std::size_t>(r)];
      VectorClock& clock = state[static_cast<std::size_t>(r)].clock;
      std::uint64_t& seq = state[static_cast<std::size_t>(r)].op_seq;
      std::vector<std::byte> value(spec.area_bytes);
      go.arrive_and_wait();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        const bool traced = i % kTraceStride == 0;
        if (op.put) {
          checker.prepare_put(op, value);
          if (traced) {
            ledger_put<true>(w, r, op, value, clock, seq, ledger);
          } else {
            ledger_put<false>(w, r, op, value, clock, seq, ledger);
          }
        } else {
          const std::vector<std::byte> got =
              traced ? ledger_get<true>(w, r, op, spec.area_bytes, clock, seq, ledger)
                     : ledger_get<false>(w, r, op, spec.area_bytes, clock, seq, ledger);
          if (!checker.get_ok(op, got)) ++ledger.bad;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  LedgerRun out;
  out.wall_ns = now_ns() - start;
  out.register_ns = w.register_ns;
  out.registered = w.registered;
  for (const RankLedger& ledger : ledgers) out.total.merge(ledger);
  return out;
}

// ---------------------------------------------------------------------------
// The two modes of a run.
// ---------------------------------------------------------------------------

/// Every figure is a median over the run's programs (each program's own
/// throughput, latency percentiles and busy time), so a burst of noise that
/// hits a minority of programs does not move it.
Result end_to_end(const Spec& spec, const Options& options) {
  const TickScale scale = calibrate_ticks();
  std::vector<LatencySamples> latency(kRanks);
  for (LatencySamples& samples : latency) {
    samples.ns.reserve(spec.ops_per_rank / kLatencyStride + 1);
  }
  std::vector<double> pooled;
  pooled.reserve(kRanks * (spec.ops_per_rank / kLatencyStride + 1));
  Result result;
  std::vector<double> setup_s, ops_per_s, p50_ns, p99_ns, busy_s;
  std::uint64_t programs = 0;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(options.seconds * 1e9);
  while (programs < kMinPrograms || now_ns() - start < budget) {
    const std::uint64_t t = now_ns();
    const Program program = make_program(spec, options.seed, programs);
    const std::uint64_t generate_ns = now_ns() - t;
    for (LatencySamples& samples : latency) samples.ns.clear();
    const RealRun run = run_real(spec, program, DetectorMode::kDualClock, &latency, scale, false);
    pooled.clear();
    for (const LatencySamples& samples : latency) {
      pooled.insert(pooled.end(), samples.ns.begin(), samples.ns.end());
    }
    setup_s.push_back(static_cast<double>(generate_ns + run.setup_ns) * 1e-9);
    ops_per_s.push_back(per(static_cast<double>(run.ops) * 1e9, static_cast<double>(run.run_ns)));
    p50_ns.push_back(quantile(pooled, 0.50));
    p99_ns.push_back(quantile(pooled, 0.99));
    busy_s.push_back(static_cast<double>(run.run_ns + run.check_ns) * 1e-9);
    result.attempted += run.ops;
    result.failed += run.failed;
    ++programs;
  }
  std::fprintf(stderr, "perfbench: %llu programs, %zu latency samples per program\n",
               static_cast<unsigned long long>(programs), pooled.size());
  result.add("ops_per_s", median(ops_per_s), "1/s");
  result.add("op_p50_ns", median(p50_ns), "ns");
  result.add("op_p99_ns", median(p99_ns), "ns");
  result.add("programs_per_s", per(1, median(busy_s)), "1/s");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

Result ledger(const Spec& spec, const Options& options) {
  const TickScale scale = calibrate_ticks();
  const auto preempted_ticks = static_cast<std::uint64_t>(kPreemptedNs * scale.ticks_per_ns);
  Result result;
  RealRun dual_sum, off_sum;
  LedgerRun led_sum;
  std::uint64_t programs = 0;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(options.seconds * 1e9);
  auto accumulate = [](RealRun& sum, const RealRun& run) {
    sum.ops += run.ops;
    sum.run_ns += run.run_ns;
    sum.finish_ns += run.finish_ns;
    sum.fold_ns += run.fold_ns;
    sum.events += run.events;
    sum.recorder_heap += run.recorder_heap;
    sum.msgs += run.msgs;
    sum.bytes += run.bytes;
    sum.resident_clock_bytes += run.resident_clock_bytes;
  };
  while (programs < 2 || now_ns() - start < budget) {
    const Program program = make_program(spec, options.seed, programs);
    const RealRun dual = run_real(spec, program, DetectorMode::kDualClock, nullptr, scale, true);
    const RealRun off = run_real(spec, program, DetectorMode::kOff, nullptr, scale, false);
    const LedgerRun led = run_ledger(spec, program, preempted_ticks);
    accumulate(dual_sum, dual);
    accumulate(off_sum, off);
    led_sum.wall_ns += led.wall_ns;
    led_sum.register_ns += led.register_ns;
    led_sum.registered += led.registered;
    led_sum.total.merge(led.total);

    // The decomposed loop must be the same program as the real run: same
    // check count, zero races in both, every get read back correctly.
    const std::uint64_t led_ops = led.total.checks;
    std::uint64_t led_failed = led.total.bad + led.total.races;
    if (led.total.checks != dual.ops || led.total.races != 0 || dual.races != 0) {
      std::fprintf(stderr,
                   "perfbench: decomposed loop diverges from ThreadWorld: checks %llu vs "
                   "%llu, races %llu vs %llu\n",
                   static_cast<unsigned long long>(led.total.checks),
                   static_cast<unsigned long long>(dual.ops),
                   static_cast<unsigned long long>(led.total.races),
                   static_cast<unsigned long long>(dual.races));
      led_failed = led_ops;
    }
    result.attempted += dual.ops + off.ops + led_ops;
    result.failed += dual.failed + off.failed + std::min(led_failed, led_ops);
    ++programs;
  }
  std::fprintf(stderr, "perfbench: %llu traced programs, %llu stamped ops, %llu set aside as preempted\n",
               static_cast<unsigned long long>(programs),
               static_cast<unsigned long long>(led_sum.total.stamped),
               static_cast<unsigned long long>(led_sum.total.preempted));

  const RankLedger& led = led_sum.total;
  const double stamped = std::max<double>(static_cast<double>(led.stamped), 1);
  auto seg_ns = [&](std::initializer_list<Segment> segments) {
    double ns = 0;
    for (const Segment s : segments) {
      ns += scale.ns(led.seg[s]) / stamped - scale.stamp_ns;
    }
    return std::max(ns, 0.0);
  };
  const double resolve = seg_ns({kResolve});
  const double append = seg_ns({kAreaIndex, kAppend});
  const double clocks = seg_ns({kTick, kSnapshot, kMerge});
  const double wait = seg_ns({kWait});
  const double check = seg_ns({kCheck});
  const double store = seg_ns({kStore});
  const double copy = seg_ns({kCopy});
  const double release = seg_ns({kRelease});
  const double net = seg_ns({kNet});
  // Hold spans the six in-lock segments (append .. release).
  const double hold = std::max(
      scale.ns(led.hold) / stamped - 6 * scale.stamp_ns, 0.0);
  const double layer_sum = resolve + append + clocks + wait + check + store + copy + release + net;
  // One CPU runs every rank, so a program's wall per op is the CPU cost of
  // an op, which is what the layer self times of an op add up to.
  const double real_ns_per_op =
      per(static_cast<double>(dual_sum.run_ns), static_cast<double>(dual_sum.ops));
  const double off_ns_per_op =
      per(static_cast<double>(off_sum.run_ns), static_cast<double>(off_sum.ops));
  const double traced_ns_per_op =
      per(static_cast<double>(led_sum.wall_ns), static_cast<double>(led.checks));

  result.add("mem.resolve_ns", resolve, "ns");
  result.add("detect.lock_wait_ns", wait, "ns");
  result.add("detect.lock_hold_ns", hold, "ns");
  result.add("detect.check_ns", check, "ns");
  result.add("detect.store_ns", store, "ns");
  result.add("mem.copy_ns", copy, "ns");
  result.add("clocks.merge_ns", clocks, "ns");
  result.add("net.account_ns", net, "ns");
  result.add("record.append_ns", append, "ns");
  result.add("layer_sum_ratio", per(layer_sum, real_ns_per_op), "ratio");
  result.add("tracing_overhead", per(traced_ns_per_op, real_ns_per_op) - 1, "ratio");
  result.add("detect.overhead_ratio", per(real_ns_per_op, off_ns_per_op), "ratio");
  result.add("detect.register_ns_per_area",
             per(static_cast<double>(led_sum.register_ns), static_cast<double>(led_sum.registered)),
             "ns");
  result.add("detect.resident_clock_bytes",
             per(static_cast<double>(dual_sum.resident_clock_bytes), static_cast<double>(programs)),
             "B");
  result.add("net.msgs_per_op",
             per(static_cast<double>(dual_sum.msgs), static_cast<double>(dual_sum.ops)), "msg/op");
  result.add("net.bytes_per_op",
             per(static_cast<double>(dual_sum.bytes), static_cast<double>(dual_sum.ops)), "B/op");
  if (spec.record) {
    result.add("record.bytes_per_op",
               per(static_cast<double>(dual_sum.recorder_heap), static_cast<double>(dual_sum.ops)),
               "B/op");
    result.add("record.finish_ns_per_event",
               per(static_cast<double>(dual_sum.finish_ns), static_cast<double>(dual_sum.events)),
               "ns");
    result.add("record.fold_ns_per_event",
               per(static_cast<double>(dual_sum.fold_ns), static_cast<double>(dual_sum.events)),
               "ns");
  }
  return result;
}

Result run(const Spec& spec, const Options& options) {
  return options.trace ? ledger(spec, options) : end_to_end(spec, options);
}

}  // namespace

Result run_thread_contended(const Options& options) { return run(kContendedSpec, options); }
Result run_thread_spread(const Options& options) { return run(kSpreadSpec, options); }

}  // namespace perfbench
