#include "runtime/thread_world.hpp"

#include <algorithm>
#include <thread>

#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "util/assert.hpp"

namespace dsmr::runtime {

namespace {

/// Real-pause caps for the virtual-duration ops: long virtual sleeps must
/// still shake the thread scheduler without making runs wall-clock slow.
constexpr std::chrono::microseconds kMaxSleep{50};
constexpr std::chrono::microseconds kMaxCompute{5};

std::chrono::microseconds capped(std::uint64_t virtual_ns,
                                 std::chrono::microseconds cap) {
  const auto want = std::chrono::microseconds(virtual_ns / 1000);
  return std::min(want, cap);
}

}  // namespace

ThreadWorld::Node::Node(Rank rank, const ThreadWorldConfig& config)
    : segment(rank, config.segment_bytes, static_cast<std::size_t>(config.nprocs)),
      detector(static_cast<std::size_t>(config.nprocs), rank, config.stripes) {}

ThreadWorld::ThreadWorld(ThreadWorldConfig config)
    : config_(config), fabric_(config.nprocs) {
  DSMR_REQUIRE(config_.nprocs > 0, "ThreadWorld needs at least one rank");
  DSMR_REQUIRE(config_.stripes > 0, "ThreadWorld needs at least one detector shard");
  if (config_.recorder != nullptr) {
    const record::LogHeader& header = config_.recorder->header();
    DSMR_REQUIRE(header.backend == record::Backend::kThread &&
                     header.nprocs == static_cast<std::uint32_t>(config_.nprocs) &&
                     header.mode == config_.mode &&
                     header.lock_clock_handoff == config_.lock_clock_handoff &&
                     header.acked_puts == config_.acked_puts,
                 "recorder header does not match this ThreadWorld's config");
  }
  if (config_.replay != nullptr) {
    const record::LogHeader& header = config_.replay->header;
    DSMR_REQUIRE(header.backend == record::Backend::kThread,
                 "replay of a " << record::to_string(header.backend)
                                << " log on the threaded backend");
    DSMR_REQUIRE(header.nprocs == static_cast<std::uint32_t>(config_.nprocs),
                 "replay log has " << header.nprocs << " ranks, world has "
                                   << config_.nprocs);
    DSMR_REQUIRE(header.lock_clock_handoff == config_.lock_clock_handoff &&
                     header.acked_puts == config_.acked_puts,
                 "replay log was recorded under a different clock regime");
    gate_ = std::make_unique<record::ReplayGate>(*config_.replay);
  }
  for (Rank r = 0; r < config_.nprocs; ++r) {
    nodes_.push_back(std::make_unique<Node>(r, config_));
    processes_.push_back(std::make_unique<ThreadProcess>(r, *this));
  }
  bodies_.resize(static_cast<std::size_t>(config_.nprocs));
  if (config_.print_races) {
    races_.add_observer([](const core::RaceReport& report) {
      std::fprintf(stderr, "%s\n", report.describe().c_str());
    });
  }
}

ThreadWorld::~ThreadWorld() = default;

mem::GlobalAddress ThreadWorld::alloc(Rank home, std::uint32_t bytes, std::string name) {
  DSMR_REQUIRE(!ran_, "alloc after run(): the area index is immutable once threads start");
  DSMR_REQUIRE(home >= 0 && home < config_.nprocs, "alloc home " << home << " out of range");
  Node& node = *nodes_[static_cast<std::size_t>(home)];
  const mem::AreaId id = node.segment.allocate_area(bytes, std::move(name));
  node.detector.register_area(id);
  node.user_locks.push_back(std::make_unique<UserLock>());
  DSMR_CHECK_MSG(node.user_locks.size() == node.segment.area_count(),
                 "user-lock table out of step with the area table");
  if (config_.recorder != nullptr) {
    config_.recorder->register_area(home, id, bytes, node.segment.area(id).name);
  }
  if (config_.replay != nullptr) {
    // Replay re-executes the recorded program, so allocations must rebuild
    // the recorded area table entry for entry.
    const std::uint64_t flat = replay_areas_.add(home, id);
    DSMR_REQUIRE(flat < config_.replay->areas.size(),
                 "replay program allocates more areas than the log records");
    const record::AreaEntry& entry = config_.replay->areas[flat];
    DSMR_REQUIRE(entry.home == home && entry.size == bytes,
                 "replay area #" << flat << " (" << node.segment.area(id).name
                                 << ") does not match the recorded table");
  }
  return mem::GlobalAddress{home, node.segment.area(id).offset};
}

void ThreadWorld::spawn(Rank rank, std::function<void(ThreadProcess&)> body) {
  DSMR_REQUIRE(!ran_, "spawn after run()");
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "spawn rank " << rank << " out of range");
  auto& slot = bodies_[static_cast<std::size_t>(rank)];
  DSMR_REQUIRE(!slot, "rank " << rank << " already has a program");
  slot = std::move(body);
}

ThreadRunReport ThreadWorld::run() {
  DSMR_REQUIRE(!ran_, "a ThreadWorld is single-use");
  ran_ = true;
  const auto start = std::chrono::steady_clock::now();
  deadline_ = start + config_.run_timeout;

  std::mutex stuck_mutex;
  std::vector<Rank> stuck;
  std::vector<std::thread> threads;
  for (Rank r = 0; r < config_.nprocs; ++r) {
    auto& body = bodies_[static_cast<std::size_t>(r)];
    if (!body) continue;
    threads.emplace_back([this, r, &body, &stuck_mutex, &stuck]() {
      try {
        body(*processes_[static_cast<std::size_t>(r)]);
      } catch (const StuckRank&) {
        std::lock_guard<std::mutex> guard(stuck_mutex);
        stuck.push_back(r);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ThreadRunReport report;
  std::sort(stuck.begin(), stuck.end());
  report.stuck_ranks = std::move(stuck);
  report.completed = report.stuck_ranks.empty();
  report.race_count = races_.count();
  for (const auto& process : processes_) report.checks += process->checks();
  report.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return report;
}

mem::PublicSegment& ThreadWorld::segment(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "segment rank out of range");
  return nodes_[static_cast<std::size_t>(rank)]->segment;
}

ThreadProcess& ThreadWorld::process(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "process rank out of range");
  return *processes_[static_cast<std::size_t>(rank)];
}

detect::ShardedDetector& ThreadWorld::detector(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "detector rank out of range");
  return nodes_[static_cast<std::size_t>(rank)]->detector;
}

const record::Event* ThreadWorld::replay_enter(Rank rank, record::EventKind kind,
                                               std::uint64_t detail) {
  if (!gate_) return nullptr;
  const record::Event* event = nullptr;
  switch (gate_->enter(rank, deadline_, &event)) {
    case record::ReplayGate::Enter::kOk:
      break;
    case record::ReplayGate::Enter::kExhausted:
      // The recorded run had this rank blocked past this point; reproduce
      // the stuck verdict without waiting out the deadline.
      throw StuckRank{};
    case record::ReplayGate::Enter::kTimeout:
      throw StuckRank{};
  }
  // A wait names only its tag up front (the log pins the sender); every
  // other kind is discriminated by field b (area / destination).
  const std::uint64_t logged =
      kind == record::EventKind::kWaitMatch ? event->c : event->b;
  DSMR_CHECK_MSG(event->kind == kind && logged == detail,
                 "replay divergence at event #" << gate_->cursor() << ": log has "
                     << record::to_string(event->kind) << "(" << logged
                     << "), program executed " << record::to_string(kind) << "("
                     << detail << ") on rank " << rank);
  return event;
}

void ThreadWorld::replay_advance() {
  if (gate_) gate_->advance();
}

void ThreadWorld::record_race(core::AccessKind kind, Rank accessor, Rank home,
                              const mem::Area& area,
                              const clocks::VectorClock& accessor_clock,
                              const core::Verdict& verdict, std::uint64_t event_id,
                              std::uint64_t prior_event_id) {
  core::RaceReport report;
  report.home = home;
  report.area = area.id;
  report.area_name = area.name;
  report.accessor = accessor;
  report.kind = kind;
  report.event_id = event_id;
  report.accessor_clock = accessor_clock;
  report.against = verdict.against;
  // Caller holds the area's shard mutex, so this read is under the same
  // critical section as the verdict it explains.
  report.stored_clock =
      nodes_[static_cast<std::size_t>(home)]->detector.prior_clock(area.id,
                                                                   verdict.against);
  report.prior_event_id = prior_event_id;
  std::lock_guard<std::mutex> guard(races_mutex_);
  races_.record(std::move(report));
}

// ---------------------------------------------------------------------------
// ThreadProcess
// ---------------------------------------------------------------------------

ThreadProcess::ThreadProcess(Rank rank, ThreadWorld& world)
    : rank_(rank),
      world_(world),
      clock_(static_cast<std::size_t>(world.nprocs())) {}

ThreadProcess::Resolved ThreadProcess::resolve(mem::GlobalAddress addr,
                                               std::uint32_t len) {
  DSMR_REQUIRE(addr.rank >= 0 && addr.rank < world_.nprocs(),
               "access to rank " << addr.rank << " out of range");
  ThreadWorld::Node* node = world_.nodes_[static_cast<std::size_t>(addr.rank)].get();
  mem::Area* area = node->segment.find_area(addr.offset, len);
  DSMR_REQUIRE(area != nullptr, "access to unregistered range " << addr.to_string()
                                                                << "+" << len);
  return Resolved{node, area};
}

void ThreadProcess::account(net::MsgType type, std::size_t payload_bytes,
                            std::size_t clock_bytes) {
  world_.fabric_.shard(rank_).record_shape(type, payload_bytes, clock_bytes);
}

std::size_t ThreadProcess::detection_clock_bytes(const clocks::VectorClock& clock) const {
  return world_.config_.mode == core::DetectorMode::kOff ? 0 : clock.wire_size();
}

std::uint64_t ThreadProcess::recorded_area(Rank home, mem::AreaId area_id) const {
  // When replaying, the log's table is authoritative (a re-record run has
  // both attached, and alloc() keeps the two tables identical).
  if (world_.config_.replay != nullptr) return world_.replay_areas_.at(home, area_id);
  return world_.config_.recorder->area_index(home, area_id);
}

void ThreadProcess::put(mem::GlobalAddress dst, const std::vector<std::byte>& data) {
  record::Recorder* const rec = world_.config_.recorder;
  auto [node, area] = resolve(dst, static_cast<std::uint32_t>(data.size()));
  const std::uint64_t flat = (rec != nullptr || world_.config_.replay != nullptr)
                                 ? recorded_area(dst.rank, area->id)
                                 : 0;
  world_.replay_enter(rank_, record::EventKind::kThreadPut, flat);
  clock_.tick(rank_);
  const std::uint64_t event_id = next_event_id();
  const bool acked = world_.config_.acked_puts;
  clocks::VectorClock completion;  ///< pre-update V ∨ W, merged on ack.
  {
    detect::ShardedDetector& det = node->detector;
    std::lock_guard<std::mutex> guard(det.shard_mutex(area->id));
    ++checks_;
    // Linearization point: the stamp is taken under the shard mutex, so
    // the merged log orders this op against every other op on the area
    // exactly as the run did.
    if (rec != nullptr) {
      rec->record_thread(rank_, record::EventKind::kThreadPut, flat, data.size());
    }
    const core::Verdict verdict = det.check_one(
        world_.config_.mode, core::AccessKind::kWrite, rank_, clock_, area->id);
    if (verdict.race) {
      world_.record_race(core::AccessKind::kWrite, rank_, dst.rank, *area, clock_,
                         verdict, event_id,
                         det.prior_event(area->id, verdict.against));
    }
    if (acked) {
      completion = det.v_clock(area->id);
      completion.merge_from(det.w_clock(area->id));
    }
    det.store_access(area->id, rank_, clock_, /*is_write=*/true, rank_, event_id);
    node->segment.write_bytes(dst.offset, data);
  }
  if (acked) clock_.merge_from(completion);

  // Wire-equivalent accounting, kHomeSide shapes: one commit carrying the
  // initiator clock, one ack (carrying the completion clock when acked).
  account(net::MsgType::kPutCommit, data.size(), detection_clock_bytes(clock_));
  account(net::MsgType::kPutCommitAck, 0, acked ? detection_clock_bytes(completion) : 0);
  world_.replay_advance();
}

std::vector<std::byte> ThreadProcess::get(mem::GlobalAddress src, std::uint32_t len) {
  record::Recorder* const rec = world_.config_.recorder;
  auto [node, area] = resolve(src, len);
  const std::uint64_t flat = (rec != nullptr || world_.config_.replay != nullptr)
                                 ? recorded_area(src.rank, area->id)
                                 : 0;
  world_.replay_enter(rank_, record::EventKind::kThreadGet, flat);
  clock_.tick(rank_);
  const std::uint64_t event_id = next_event_id();
  clocks::VectorClock reads_from;  ///< the stored W this get observed.
  std::vector<std::byte> data;
  {
    detect::ShardedDetector& det = node->detector;
    std::lock_guard<std::mutex> guard(det.shard_mutex(area->id));
    ++checks_;
    if (rec != nullptr) {
      rec->record_thread(rank_, record::EventKind::kThreadGet, flat, len);
    }
    const core::Verdict verdict = det.check_one(
        world_.config_.mode, core::AccessKind::kRead, rank_, clock_, area->id);
    if (verdict.race) {
      world_.record_race(core::AccessKind::kRead, rank_, src.rank, *area, clock_,
                         verdict, event_id,
                         det.prior_event(area->id, verdict.against));
    }
    reads_from = det.w_clock(area->id);
    det.store_access(area->id, rank_, clock_, /*is_write=*/false, rank_, event_id);
    data = node->segment.read_bytes(src.offset, len);
  }
  clock_.merge_from(reads_from);

  account(net::MsgType::kGetLockedRequest, 0, detection_clock_bytes(clock_));
  account(net::MsgType::kGetLockedResponse, len, detection_clock_bytes(reads_from));
  world_.replay_advance();
  return data;
}

void ThreadProcess::lock(mem::GlobalAddress addr) {
  record::Recorder* const rec = world_.config_.recorder;
  auto [node, area] = resolve(addr, 1);
  const std::uint64_t flat = (rec != nullptr || world_.config_.replay != nullptr)
                                 ? recorded_area(addr.rank, area->id)
                                 : 0;
  // Gate BEFORE taking a ticket: the FIFO queue then hands out tickets in
  // the logged grant order, so the grant is immediate (the logged previous
  // holder's unlock has already executed and advanced the gate).
  world_.replay_enter(rank_, record::EventKind::kThreadLock, flat);
  ThreadWorld::UserLock& user_lock = *node->user_locks[area->id];
  std::unique_lock<std::mutex> guard(user_lock.mutex);
  const std::uint64_t ticket = user_lock.next_ticket++;
  const bool granted = user_lock.turn.wait_until(
      guard, world_.deadline_,
      [&user_lock, ticket]() { return user_lock.now_serving == ticket; });
  if (!granted) {
    // Leave a tombstone so releases skip this ticket: one stuck rank must
    // not wedge every later waiter in the queue.
    user_lock.abandoned.insert(ticket);
    throw ThreadWorld::StuckRank{};
  }
  clock_.tick(rank_);
  if (world_.config_.lock_clock_handoff && user_lock.handoff.size() > 0) {
    clock_.merge_from(user_lock.handoff);
  }
  // Stamped under the user-lock mutex: grant order IS the logged order.
  if (rec != nullptr) rec->record_thread(rank_, record::EventKind::kThreadLock, flat);
  account(net::MsgType::kLockRequest, 0, 0);
  account(net::MsgType::kLockGrant, 0,
          world_.config_.lock_clock_handoff ? detection_clock_bytes(clock_) : 0);
  world_.replay_advance();
}

void ThreadProcess::unlock(mem::GlobalAddress addr) {
  record::Recorder* const rec = world_.config_.recorder;
  auto [node, area] = resolve(addr, 1);
  const std::uint64_t flat = (rec != nullptr || world_.config_.replay != nullptr)
                                 ? recorded_area(addr.rank, area->id)
                                 : 0;
  world_.replay_enter(rank_, record::EventKind::kThreadUnlock, flat);
  ThreadWorld::UserLock& user_lock = *node->user_locks[area->id];
  clock_.tick(rank_);
  {
    std::lock_guard<std::mutex> guard(user_lock.mutex);
    DSMR_REQUIRE(user_lock.now_serving < user_lock.next_ticket,
                 "unlock of an unheld lock on area " << area->name);
    user_lock.handoff = clock_;
    if (rec != nullptr) {
      rec->record_thread(rank_, record::EventKind::kThreadUnlock, flat);
    }
    ++user_lock.now_serving;
    while (user_lock.abandoned.erase(user_lock.now_serving) > 0) {
      ++user_lock.now_serving;
    }
  }
  user_lock.turn.notify_all();
  account(net::MsgType::kUnlock, 0, 0);
  world_.replay_advance();
}

void ThreadProcess::signal(Rank to, std::uint64_t tag, std::vector<std::byte> payload) {
  record::Recorder* const rec = world_.config_.recorder;
  world_.replay_enter(rank_, record::EventKind::kSignal,
                      static_cast<std::uint64_t>(to));
  clock_.tick(rank_);
  // Stamped before the mailbox append: the matching wait stamps after its
  // pop, and pop happens-after append, so send < wait in the merged log.
  if (rec != nullptr) {
    rec->record_thread(rank_, record::EventKind::kSignal,
                       static_cast<std::uint64_t>(to), tag);
  }
  // Signals are the program's own synchronization, not detection metadata:
  // their clock is charged in every mode, as on the sim NIC.
  account(net::MsgType::kSignal, payload.size(), clock_.wire_size());
  world_.fabric_.signal(to, tag, net::ThreadSignal{rank_, clock_, std::move(payload)});
  world_.replay_advance();
}

std::vector<std::byte> ThreadProcess::wait_signal(std::uint64_t tag) {
  record::Recorder* const rec = world_.config_.recorder;
  std::optional<net::ThreadSignal> message;
  if (const record::Event* event =
          world_.replay_enter(rank_, record::EventKind::kWaitMatch, tag)) {
    // The log pins WHICH sender's signal this wait consumed; the mailbox
    // already holds it (its send is earlier in the log and has advanced).
    message = world_.fabric_.wait_signal_from(
        rank_, tag, static_cast<Rank>(event->b), world_.deadline_);
  } else {
    message = world_.fabric_.wait_signal(rank_, tag, world_.deadline_);
  }
  if (!message) throw ThreadWorld::StuckRank{};
  if (rec != nullptr) {
    rec->record_thread(rank_, record::EventKind::kWaitMatch,
                       static_cast<std::uint64_t>(message->src), tag,
                       message->clock[static_cast<std::size_t>(message->src)]);
  }
  clock_.tick(rank_);
  clock_.merge_from(message->clock);
  world_.replay_advance();
  return std::move(message->payload);
}

void ThreadProcess::sleep(std::uint64_t ns) {
  record::Recorder* const rec = world_.config_.recorder;
  world_.replay_enter(rank_, record::EventKind::kTick, 0);
  clock_.tick(rank_);
  if (rec != nullptr) rec->record_thread(rank_, record::EventKind::kTick);
  // The pause only shakes the live scheduler; under the gate the
  // interleaving is already forced, so replay skips it.
  if (world_.config_.replay == nullptr) {
    const auto pause = capped(ns, kMaxSleep);
    if (pause.count() > 0) {
      std::this_thread::sleep_for(pause);
    } else {
      std::this_thread::yield();
    }
  }
  world_.replay_advance();
}

void ThreadProcess::compute(std::uint64_t ns) {
  record::Recorder* const rec = world_.config_.recorder;
  world_.replay_enter(rank_, record::EventKind::kTick, 0);
  clock_.tick(rank_);
  if (rec != nullptr) rec->record_thread(rank_, record::EventKind::kTick);
  if (world_.config_.replay == nullptr) {
    const auto pause = capped(ns, kMaxCompute);
    if (pause.count() > 0) {
      std::this_thread::sleep_for(pause);
    } else {
      std::this_thread::yield();
    }
  }
  world_.replay_advance();
}

}  // namespace dsmr::runtime
