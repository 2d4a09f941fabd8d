#include "record/recorder.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "util/assert.hpp"

namespace dsmr::record {

VerdictSignature make_signature(const AreaIndex& areas,
                                const std::vector<core::RaceReport>& reports,
                                bool completed, std::vector<Rank> stuck_ranks) {
  VerdictSignature signature;
  signature.completed = completed;
  signature.stuck_ranks = std::move(stuck_ranks);
  std::sort(signature.stuck_ranks.begin(), signature.stuck_ranks.end());

  std::map<std::tuple<std::uint64_t, Rank, int>, std::uint64_t> counts;
  for (const core::RaceReport& report : reports) {
    const std::uint64_t flat = areas.at(report.home, report.area);
    counts[{flat, report.accessor, static_cast<int>(report.kind)}] += 1;
  }
  for (const auto& [key, count] : counts) {
    signature.races.push_back(RaceCount{
        std::get<0>(key), std::get<1>(key),
        static_cast<core::AccessKind>(std::get<2>(key)), count});
  }
  return signature;
}

Recorder::Recorder(std::uint32_t nprocs, Backend backend,
                   core::DetectorMode mode, bool lock_clock_handoff,
                   bool acked_puts) {
  DSMR_REQUIRE(nprocs > 0, "recorder needs at least one process");
  DSMR_REQUIRE(nprocs <= kMaxLogRanks,
               "recorder supports at most " << kMaxLogRanks << " processes, got " << nprocs);
  log_.header.nprocs = nprocs;
  log_.header.backend = backend;
  log_.header.mode = mode;
  log_.header.lock_clock_handoff = lock_clock_handoff;
  log_.header.acked_puts = acked_puts;
  if (backend == Backend::kThread) thread_buffers_.resize(nprocs);
}

void Recorder::register_area(Rank home, std::uint32_t id, std::uint64_t size,
                             std::string name) {
  DSMR_REQUIRE(log_.events.empty() && !finished_,
               "areas must be registered before recording starts");
  areas_.add(home, id);
  log_.areas.push_back(AreaEntry{home, size, std::move(name)});
}

void Recorder::set_metadata(std::string key, std::string value) {
  for (auto& [k, v] : log_.metadata) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  log_.metadata.emplace_back(std::move(key), std::move(value));
}

void Recorder::finish(const std::vector<core::RaceReport>& reports,
                      bool completed, std::vector<Rank> stuck_ranks) {
  DSMR_REQUIRE(!finished_, "recorder finished twice");
  if (!thread_buffers_.empty()) {
    std::vector<Stamped> merged;
    std::size_t total = 0;
    for (const auto& buffer : thread_buffers_) total += buffer.size();
    merged.reserve(total);
    for (const auto& buffer : thread_buffers_) {
      merged.insert(merged.end(), buffer.begin(), buffer.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const Stamped& a, const Stamped& b) { return a.seq < b.seq; });
    log_.events.reserve(log_.events.size() + merged.size());
    for (const Stamped& stamped : merged) log_.events.push_back(stamped.event);
    thread_buffers_.clear();
  }
  log_.live = make_signature(areas_, reports, completed, std::move(stuck_ranks));
  finished_ = true;
}

const Log& Recorder::log() const {
  DSMR_REQUIRE(finished_, "recorder log read before finish()");
  return log_;
}

}  // namespace dsmr::record
