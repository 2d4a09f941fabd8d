#include "record/replay.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "clocks/epoch.hpp"
#include "clocks/vector_clock.hpp"
#include "detect/sharded_detector.hpp"
#include "util/assert.hpp"

namespace dsmr::record {
namespace {

using clocks::VectorClock;

/// The fold keeps the state the live engines keep: per-area V/W state in one
/// detect::ShardedDetector per home (the detector the sim NIC and
/// ThreadWorld drive), the per-node NodeClock (one per rank — in the sim a
/// rank's Process and its home NIC share a clock, which is why puts and gets
/// are split into issue/apply/completion events), the lock-manager handoff
/// clocks, and the in-flight ack/response payloads. Identical state +
/// identical check inputs => bit-identical verdicts, including the epoch
/// fast-path decisions.
struct FoldState {
  struct Area {
    Rank home = kInvalidRank;
    detect::AreaId id = 0;  ///< per-home id in `detectors[home]`.
    std::string name;
    VectorClock handoff;
    bool has_handoff = false;
  };

  std::vector<VectorClock> clocks;  // per rank
  std::vector<Area> areas;
  /// One single-shard detector per home that owns an area, null elsewhere.
  /// The fold is single-threaded, so it never takes the shard lock.
  std::vector<std::unique_ptr<detect::ShardedDetector>> detectors;
  // In-flight payload clocks keyed by (initiator, area). Each initiator op
  // is a blocking await, so every queue's depth is at most 1; deques keep
  // the fold honest if a malformed log violates that.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::deque<VectorClock>>
      put_issue, put_ack, get_issue, get_merge, unlock_release;
  // Undelivered signal clocks keyed by (src, dst, tag). Matching is by the
  // sender's own clock component (Event::d), not FIFO: same-channel signals
  // can be reordered by perturbation or fault retries.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           std::deque<VectorClock>>
      signals;

  detect::ShardedDetector& detector(const Area& area) const {
    return *detectors[static_cast<std::size_t>(area.home)];
  }
};

class Folder {
 public:
  Folder(const Log& log, core::DetectorMode mode) : log_(log), mode_(mode) {
    const std::size_t n = log.header.nprocs;
    state_.clocks.assign(n, VectorClock(n));
    state_.detectors.resize(n);
    state_.areas.reserve(log.areas.size());
    for (const AreaEntry& entry : log.areas) {
      if (entry.home < 0 || static_cast<std::size_t>(entry.home) >= n) {
        result_.error = "[bad-trace] area " + std::to_string(state_.areas.size()) +
                        " home rank " + std::to_string(entry.home) + " out of range";
        return;
      }
      auto& detector = state_.detectors[static_cast<std::size_t>(entry.home)];
      if (detector == nullptr) {
        detector = std::make_unique<detect::ShardedDetector>(n, entry.home, /*shards=*/1);
      }
      FoldState::Area area;
      area.home = entry.home;
      area.id = static_cast<detect::AreaId>(detector->area_count());
      area.name = entry.name;
      detector->register_area(area.id);
      state_.areas.push_back(std::move(area));
    }
  }

  ReplayResult run() {
    for (std::size_t i = 0; i < log_.events.size() && result_.ok(); ++i) {
      index_ = i;
      fold(log_.events[i]);
      if (result_.ok()) ++result_.events;
    }
    if (result_.ok()) {
      result_.signature.completed = log_.live.completed;
      result_.signature.stuck_ranks = log_.live.stuck_ranks;
      std::map<std::tuple<std::uint64_t, Rank, int>, std::uint64_t> counts;
      for (const core::RaceReport& report : result_.reports) {
        counts[{report.area, report.accessor, static_cast<int>(report.kind)}] +=
            1;
      }
      for (const auto& [key, count] : counts) {
        result_.signature.races.push_back(
            RaceCount{std::get<0>(key), std::get<1>(key),
                      static_cast<core::AccessKind>(std::get<2>(key)), count});
      }
    }
    return std::move(result_);
  }

 private:
  void fail(const Event& event, const std::string& what) {
    if (!result_.ok()) return;
    result_.error = "[bad-trace] event #" + std::to_string(index_) + " (" +
                    to_string(event.kind) + "): " + what;
  }

  bool valid_rank(const Event& event, std::uint64_t rank) {
    if (rank < state_.clocks.size()) return true;
    fail(event, "rank " + std::to_string(rank) + " out of range");
    return false;
  }

  FoldState::Area* valid_area(const Event& event, std::uint64_t index) {
    if (index < state_.areas.size()) return &state_.areas[index];
    fail(event, "area " + std::to_string(index) + " out of range");
    return nullptr;
  }

  /// Pops the single in-flight payload of (rank, area) from `queue`.
  bool pop(const Event& event,
           std::map<std::pair<std::uint64_t, std::uint64_t>,
                    std::deque<VectorClock>>& queue,
           std::uint64_t rank, std::uint64_t area, VectorClock* out,
           const char* what) {
    auto it = queue.find({rank, area});
    if (it == queue.end() || it->second.empty()) {
      fail(event, std::string("no pending ") + what + " for rank " +
                      std::to_string(rank) + " area " + std::to_string(area));
      return false;
    }
    *out = std::move(it->second.front());
    it->second.pop_front();
    return true;
  }

  /// One access through the shared detector, with exactly the inputs the
  /// live engine passes (pre-update stored state, post-tick event clock).
  void check(std::uint64_t area_index, const FoldState::Area& area,
             core::AccessKind kind, Rank accessor,
             const VectorClock& accessor_clock) {
    ++result_.checks;
    const detect::ShardedDetector& detector = state_.detector(area);
    const core::Verdict verdict =
        detector.check_one(mode_, kind, accessor, accessor_clock, area.id);
    if (!verdict.race) return;
    core::RaceReport report;
    report.id = result_.reports.size() + 1;
    report.home = area.home;
    // The fold speaks flat area-table indices (per-segment ids are not in
    // the log); signatures are built in the same coordinates.
    report.area = static_cast<std::uint32_t>(area_index);
    report.area_name = area.name;
    report.accessor = accessor;
    report.kind = kind;
    report.accessor_clock = accessor_clock;
    report.against = verdict.against;
    report.stored_clock = detector.prior_clock(area.id, verdict.against);
    result_.reports.push_back(std::move(report));
  }

  /// Stores one access into the area's V lane (and W for a write). Replay
  /// never assigns event ids, so every stored event id is 0.
  void store(const FoldState::Area& area, Rank owner, const VectorClock& clock,
             bool is_write, Rank accessor) {
    state_.detector(area).store_access(area.id, owner, clock, is_write, accessor,
                                       /*event_id=*/0);
  }

  void fold(const Event& event) {
    switch (event.kind) {
      case EventKind::kTick: {
        if (!valid_rank(event, event.a)) return;
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        return;
      }
      case EventKind::kPutIssue:
      case EventKind::kGetIssue: {
        if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
        auto& queue = event.kind == EventKind::kPutIssue ? state_.put_issue
                                                         : state_.get_issue;
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        queue[{event.a, event.b}].push_back(state_.clocks[event.a]);
        return;
      }
      case EventKind::kPutApply: {
        FoldState::Area* area = valid_area(event, event.b);
        if (!valid_rank(event, event.a) || area == nullptr) return;
        VectorClock issue;
        if (!pop(event, state_.put_issue, event.a, event.b, &issue,
                 "put issue"))
          return;
        const auto src = static_cast<Rank>(event.a);
        check(event.b, *area, core::AccessKind::kWrite, src, issue);
        // Home NIC receive_event + store, unconditionally (mode-independent).
        VectorClock& home_clock = state_.clocks[static_cast<std::size_t>(area->home)];
        home_clock.tick(area->home);
        home_clock.merge_from(issue);
        store(*area, area->home, home_clock, /*is_write=*/true, src);
        if (log_.header.acked_puts) {
          state_.put_ack[{event.a, event.b}].push_back(home_clock);
        }
        return;
      }
      case EventKind::kGetApply: {
        FoldState::Area* area = valid_area(event, event.b);
        if (!valid_rank(event, event.a) || area == nullptr) return;
        VectorClock issue;
        if (!pop(event, state_.get_issue, event.a, event.b, &issue,
                 "get issue"))
          return;
        const auto src = static_cast<Rank>(event.a);
        check(event.b, *area, core::AccessKind::kRead, src, issue);
        VectorClock& home_clock = state_.clocks[static_cast<std::size_t>(area->home)];
        home_clock.tick(area->home);
        home_clock.merge_from(issue);
        store(*area, area->home, home_clock, /*is_write=*/false, src);
        state_.get_merge[{event.a, event.b}].push_back(home_clock);
        return;
      }
      case EventKind::kPutAck:
      case EventKind::kGetMerge: {
        if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
        auto& queue = event.kind == EventKind::kPutAck ? state_.put_ack
                                                       : state_.get_merge;
        VectorClock payload;
        if (!pop(event, queue, event.a, event.b, &payload, "completion"))
          return;
        state_.clocks[event.a].merge_from(payload);
        return;
      }
      case EventKind::kLock: {
        FoldState::Area* area = valid_area(event, event.b);
        if (!valid_rank(event, event.a) || area == nullptr) return;
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        if (area->has_handoff) state_.clocks[event.a].merge_from(area->handoff);
        return;
      }
      case EventKind::kUnlockIssue: {
        if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        if (log_.header.lock_clock_handoff) {
          state_.unlock_release[{event.a, event.b}].push_back(
              state_.clocks[event.a]);
        }
        return;
      }
      case EventKind::kUnlockApply: {
        FoldState::Area* area = valid_area(event, event.b);
        if (!valid_rank(event, event.a) || area == nullptr) return;
        VectorClock release;
        if (!pop(event, state_.unlock_release, event.a, event.b, &release,
                 "unlock release"))
          return;
        // Sim LockManager::set_handoff MERGES successive releases.
        if (area->has_handoff) {
          area->handoff.merge_from(release);
        } else {
          area->handoff = std::move(release);
          area->has_handoff = true;
        }
        return;
      }
      case EventKind::kSignal: {
        if (!valid_rank(event, event.a) || !valid_rank(event, event.b)) return;
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        state_.signals[{event.a, event.b, event.c}].push_back(
            state_.clocks[event.a]);
        return;
      }
      case EventKind::kWaitMatch: {
        if (!valid_rank(event, event.a) || !valid_rank(event, event.b)) return;
        auto& queue = state_.signals[{event.b, event.a, event.c}];
        // Match by the sender's own component at send time (field d): the
        // sender ticks before every signal, so the component names exactly
        // one send even when same-channel signals arrive reordered.
        auto it = std::find_if(queue.begin(), queue.end(),
                               [&](const VectorClock& clk) {
                                 return clk[static_cast<std::size_t>(event.b)] ==
                                        event.d;
                               });
        if (it == queue.end()) {
          fail(event, "no undelivered signal from rank " +
                          std::to_string(event.b) + " tag " +
                          std::to_string(event.c) + " with sender component " +
                          std::to_string(event.d));
          return;
        }
        const VectorClock sender = std::move(*it);
        queue.erase(it);
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        state_.clocks[event.a].merge_from(sender);
        return;
      }
      case EventKind::kThreadPut:
      case EventKind::kThreadGet: {
        FoldState::Area* area = valid_area(event, event.b);
        if (!valid_rank(event, event.a) || area == nullptr) return;
        const auto rank = static_cast<Rank>(event.a);
        const detect::ShardedDetector& detector = state_.detector(*area);
        VectorClock& clock = state_.clocks[event.a];
        clock.tick(rank);
        if (event.kind == EventKind::kThreadPut) {
          check(event.b, *area, core::AccessKind::kWrite, rank, clock);
          // Completion clock = pre-update V ∨ W, exactly ThreadWorld's
          // acked-put merge source.
          VectorClock completion = detector.v_clock(area->id);
          completion.merge_from(detector.w_clock(area->id));
          store(*area, rank, clock, /*is_write=*/true, rank);
          if (log_.header.acked_puts) clock.merge_from(completion);
        } else {
          check(event.b, *area, core::AccessKind::kRead, rank, clock);
          // A read stores V only, so W is still the reads-from source.
          store(*area, rank, clock, /*is_write=*/false, rank);
          clock.merge_from(detector.w_clock(area->id));
        }
        return;
      }
      case EventKind::kThreadLock: {
        FoldState::Area* area = valid_area(event, event.b);
        if (!valid_rank(event, event.a) || area == nullptr) return;
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        if (log_.header.lock_clock_handoff && area->has_handoff) {
          state_.clocks[event.a].merge_from(area->handoff);
        }
        return;
      }
      case EventKind::kThreadUnlock: {
        FoldState::Area* area = valid_area(event, event.b);
        if (!valid_rank(event, event.a) || area == nullptr) return;
        state_.clocks[event.a].tick(static_cast<Rank>(event.a));
        // ThreadWorld's UserLock handoff is overwritten, not merged.
        area->handoff = state_.clocks[event.a];
        area->has_handoff = true;
        return;
      }
    }
    fail(event, "unknown event kind");
  }

  const Log& log_;
  core::DetectorMode mode_;
  FoldState state_;
  ReplayResult result_;
  std::size_t index_ = 0;

 public:
  /// Canonical dump of the post-run fold state; every field the fold keeps
  /// shows up, so two event orders commute iff their dumps match.
  std::string state_digest(const ReplayResult& result) const {
    std::ostringstream out;
    for (std::size_t r = 0; r < state_.clocks.size(); ++r) {
      out << "r" << r << "=" << state_.clocks[r].to_string() << "\n";
    }
    for (std::size_t i = 0; i < state_.areas.size(); ++i) {
      const FoldState::Area& area = state_.areas[i];
      const detect::ShardedDetector& detector = state_.detector(area);
      out << "a" << i << " " << area.name << " home=" << area.home
          << " v=" << detector.v_clock(area.id).to_string()
          << " ve=" << epoch_digest(detector.v_epoch(area.id))
          << " w=" << detector.w_clock(area.id).to_string()
          << " we=" << epoch_digest(detector.w_epoch(area.id))
          << " la=" << detector.last_access_rank(area.id)
          << " lw=" << detector.last_write_rank(area.id);
      out << " handoff=";
      if (area.has_handoff) {
        out << area.handoff.to_string();
      } else {
        out << "-";
      }
      out << "\n";
    }
    queue_digest(out, "put_issue", state_.put_issue);
    queue_digest(out, "put_ack", state_.put_ack);
    queue_digest(out, "get_issue", state_.get_issue);
    queue_digest(out, "get_merge", state_.get_merge);
    queue_digest(out, "unlock_release", state_.unlock_release);
    for (const auto& [key, queue] : state_.signals) {
      if (queue.empty()) continue;
      out << "signal " << std::get<0>(key) << "->" << std::get<1>(key) << " t"
          << std::get<2>(key) << ":";
      for (const VectorClock& clk : queue) out << " " << clk.to_string();
      out << "\n";
    }
    for (const core::RaceReport& report : result.reports) {
      out << "race a" << report.area << " by r" << report.accessor << " "
          << (report.kind == core::AccessKind::kWrite ? "W" : "R") << " vs "
          << (report.against == core::ComparedAgainst::kW ? "W" : "V") << " "
          << report.accessor_clock.to_string() << " | "
          << report.stored_clock.to_string() << "\n";
    }
    return out.str();
  }

 private:
  /// "rank@value" while the state is epoch-summarized, "full" once not.
  static std::string epoch_digest(clocks::Epoch epoch) {
    if (!epoch.valid()) return "full";
    return std::to_string(epoch.rank) + "@" + std::to_string(epoch.value);
  }

  template <typename Map>
  static void queue_digest(std::ostringstream& out, const char* label,
                           const Map& map) {
    for (const auto& [key, queue] : map) {
      if (queue.empty()) continue;
      out << label << " (" << key.first << ",a" << key.second << "):";
      for (const VectorClock& clk : queue) out << " " << clk.to_string();
      out << "\n";
    }
  }
};

}  // namespace

ReplayResult replay_fold(const Log& log, core::DetectorMode mode) {
  return Folder(log, mode).run();
}

std::string replay_state_digest(const Log& log, core::DetectorMode mode) {
  Folder folder(log, mode);
  const ReplayResult result = folder.run();
  if (!result.ok()) return result.error;
  return folder.state_digest(result);
}

std::string check_record_replay(const Log& log) {
  // Compare against the footer at the recorded detector mode: the footer
  // holds what the live detector actually reported under that mode.
  const ReplayResult folded = replay_fold(log, log.header.mode);
  if (!folded.ok()) return "fold failed: " + folded.error;
  if (folded.signature == log.live) return "";
  return "replay verdicts diverge from live: replay " +
         folded.signature.to_string() + " vs live " + log.live.to_string();
}

std::string check_record_replay_bytes(std::span<const std::byte> bytes) {
  std::string error;
  const std::optional<Log> log = Log::parse(bytes, &error);
  if (!log.has_value()) return "log round-trip failed: " + error;
  return check_record_replay(*log);
}

ReplayGate::ReplayGate(const Log& log)
    : events_(log.events), remaining_(log.header.nprocs, 0) {
  for (const Event& event : events_) {
    if (event.a < remaining_.size()) ++remaining_[event.a];
  }
}

ReplayGate::Enter ReplayGate::enter(
    Rank rank, std::chrono::steady_clock::time_point deadline,
    const Event** event) {
  const auto r = static_cast<std::size_t>(rank);
  std::unique_lock lock(mutex_);
  while (true) {
    if (remaining_[r] == 0) return Enter::kExhausted;
    if (cursor_ < events_.size() && events_[cursor_].a == r) {
      *event = &events_[cursor_];
      return Enter::kOk;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Enter::kTimeout;
    }
  }
}

void ReplayGate::advance() {
  std::lock_guard lock(mutex_);
  DSMR_CHECK(cursor_ < events_.size());
  const std::uint64_t rank = events_[cursor_].a;
  if (rank < remaining_.size()) --remaining_[rank];
  ++cursor_;
  cv_.notify_all();
}

std::size_t ReplayGate::cursor() const {
  std::lock_guard lock(mutex_);
  return cursor_;
}

}  // namespace dsmr::record
