// The compact binary event log behind record/replay (ROADMAP item 3).
//
// Design follows Ronsse & De Bosschere's RecPlay split (PAPERS.md): the
// recording side stores only the *ordering* information of an execution —
// which access hit which area in which order, which unlock fed which lock
// grant, which signal a wait consumed — and none of the detector state.
// Clock evolution in this codebase is mode-independent (the NIC updates
// per-area V/W state and merges clocks whether or not detection is on), so
// a log captured at `DetectorMode::kOff` replays offline under the full
// dual-clock detector with exactly the verdicts a live run on that schedule
// would have produced. Replay folds the event stream through the same
// `detect::ShardedDetector` and compares against the live verdict footer.
//
// Wire layout (all integers LEB128 varints, util/varint.hpp):
//
//   magic      8 bytes  "DSMRLOG\0"
//   version    varint   kVersion
//   header     varints  nprocs, backend, mode, lock_clock_handoff, acked_puts
//   areas      varint count, then per area: home, size, name_len, name bytes
//   metadata   varint count, then per entry: key_len, key, value_len, value
//   events     varint count, then per event: 1 kind byte + field_count(kind)
//              varint fields
//   footer     live verdict signature: completed, stuck count + ranks,
//              race count + per race (area, accessor, kind, count)
//   checksum   8 bytes  little-endian FNV-1a 64 of everything above
//
// Parsing is defensive: every malformed input maps to a structured
// diagnostic with a bracketed code — [truncated], [bad-magic],
// [bad-version], [checksum-mismatch], [bad-event-kind], [bad-field],
// [trailing-garbage] — never a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/types.hpp"

namespace dsmr::record {

inline constexpr char kMagic[8] = {'D', 'S', 'M', 'R', 'L', 'O', 'G', '\0'};
inline constexpr std::uint64_t kVersion = 1;

/// Largest `nprocs` a log may declare. A log is disk input, and folding it
/// allocates nprocs rank clocks of nprocs components each before reading a
/// single event, so an unchecked header lets a few-byte file demand
/// terabytes. 4096 keeps those n² clocks at 128 MiB. `Log::parse` rejects a
/// larger header and `Recorder` refuses to record one, so every recordable
/// run is also parseable.
inline constexpr std::uint32_t kMaxLogRanks = 4096;

/// Which execution engine produced the log. Event kinds are disjoint per
/// backend because the two engines have different linearization points
/// (the sim splits put/get/unlock across initiator and home NIC; the
/// threaded backend commits each op atomically under a stripe lock).
enum class Backend : std::uint8_t {
  kSim = 0,
  kThread = 1,
};

std::string to_string(Backend backend);

/// One recorded ordering event. Fields a..d are kind-specific (see the
/// table in field_count); unused fields are zero and not serialized.
enum class EventKind : std::uint8_t {
  // --- simulator backend (engine order == append order) ---
  kTick = 1,         ///< a=rank. Local step (compute) that only ticks.
  kPutIssue = 2,     ///< a=rank, b=area. Initiator ticks + snapshots clock.
  kPutApply = 3,     ///< a=src, b=area, c=bytes. Home applies: check, store, ack.
  kPutAck = 4,       ///< a=rank, b=area. Initiator merges the ack's home clock.
  kGetIssue = 5,     ///< a=rank, b=area.
  kGetApply = 6,     ///< a=src, b=area, c=bytes. Home serves: check, store V.
  kGetMerge = 7,     ///< a=rank, b=area. Initiator merges the response clock.
  kLock = 8,         ///< a=rank, b=area. Grant arrived: tick + merge handoff.
  kUnlockIssue = 9,  ///< a=rank, b=area. Holder ticks + sends release clock.
  kUnlockApply = 10, ///< a=src, b=area. Home merges release into the handoff.
  // --- shared (both backends) ---
  kSignal = 11,      ///< a=src, b=dst, c=tag. Sender ticks + snapshots clock.
  kWaitMatch = 12,   ///< a=self, b=src, c=tag, d=sender clock component at
                     ///< send — uniquely identifies WHICH signal was consumed
                     ///< (same-channel signals can reorder under perturbation).
  // --- threaded backend (one event per op, stamped at its lock-protected
  //     linearization point; global order via an atomic sequence) ---
  kThreadPut = 13,   ///< a=rank, b=area, c=bytes.
  kThreadGet = 14,   ///< a=rank, b=area, c=bytes.
  kThreadLock = 15,  ///< a=rank, b=area. Stamped at grant, inside the lock.
  kThreadUnlock = 16,///< a=rank, b=area. Stamped at the handoff install.
};

inline constexpr std::uint8_t kMaxEventKind = 16;

/// How many of a..d the kind uses on the wire.
constexpr int field_count(EventKind kind) {
  switch (kind) {
    case EventKind::kTick:
      return 1;
    case EventKind::kPutIssue:
    case EventKind::kPutAck:
    case EventKind::kGetIssue:
    case EventKind::kGetMerge:
    case EventKind::kLock:
    case EventKind::kUnlockIssue:
    case EventKind::kUnlockApply:
    case EventKind::kThreadLock:
    case EventKind::kThreadUnlock:
      return 2;
    case EventKind::kPutApply:
    case EventKind::kGetApply:
    case EventKind::kSignal:
    case EventKind::kThreadPut:
    case EventKind::kThreadGet:
      return 3;
    case EventKind::kWaitMatch:
      return 4;
  }
  return 0;
}

std::string to_string(EventKind kind);

struct Event {
  EventKind kind = EventKind::kTick;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;

  bool operator==(const Event&) const = default;
};

/// One public-memory area, in registration (allocation) order. The flat
/// index into this table is the `area` operand of every event.
struct AreaEntry {
  Rank home = kInvalidRank;
  std::uint64_t size = 0;
  std::string name;

  bool operator==(const AreaEntry&) const = default;
};

/// A race verdict folded to its schedule-stable core: which area, which
/// accessor, which kind, how many times. Clocks and event ids are omitted
/// on purpose — the signature must be comparable between a live run and a
/// replay fold that never assigns event ids.
struct RaceCount {
  std::uint64_t area = 0;  ///< flat index into the log's area table.
  Rank accessor = kInvalidRank;
  core::AccessKind kind = core::AccessKind::kRead;
  std::uint64_t count = 0;

  bool operator==(const RaceCount&) const = default;
  bool operator<(const RaceCount& other) const {
    if (area != other.area) return area < other.area;
    if (accessor != other.accessor) return accessor < other.accessor;
    return static_cast<int>(kind) < static_cast<int>(other.kind);
  }
};

/// The verdict of a whole run, in canonical (sorted) form. Embedded in the
/// log footer by the recorder so any later replay can detect divergence.
struct VerdictSignature {
  bool completed = false;
  std::vector<Rank> stuck_ranks;   ///< sorted ascending.
  std::vector<RaceCount> races;    ///< sorted by (area, accessor, kind).

  bool operator==(const VerdictSignature&) const = default;
  std::string to_string() const;
};

/// Maps (home rank, per-segment AreaId) to the flat registration index the
/// log speaks. Both recorder and replay maintain one; registration order is
/// the allocation order, which is deterministic per program. PublicSegment
/// assigns AreaIds 0,1,2,... per home in allocation order, so the map is a
/// per-home table indexed by id: add and lookup are O(1).
class AreaIndex {
 public:
  /// Registers the next area; returns its flat index. REQUIREs that `id` is
  /// the next unregistered id of `home` (a repeat is a double registration).
  std::uint64_t add(Rank home, std::uint32_t id);
  /// REQUIREs presence.
  std::uint64_t at(Rank home, std::uint32_t id) const {
    if (!contains(home, id)) [[unlikely]] unknown_area(home, id);
    return by_home_[static_cast<std::size_t>(home)][id];
  }
  bool contains(Rank home, std::uint32_t id) const {
    return home >= 0 && static_cast<std::size_t>(home) < by_home_.size() &&
           id < by_home_[static_cast<std::size_t>(home)].size();
  }
  std::size_t size() const { return size_; }

 private:
  [[noreturn]] static void unknown_area(Rank home, std::uint32_t id);

  std::vector<std::vector<std::uint64_t>> by_home_;  ///< [home][id] -> flat.
  std::size_t size_ = 0;
};

/// Rebuilds the (home, AreaId) → flat mapping from a parsed log's area
/// table. Sound because PublicSegment assigns AreaIds 0,1,2,... per home in
/// allocation order — the same order the table records.
AreaIndex make_area_index(const std::vector<AreaEntry>& areas);

struct LogHeader {
  std::uint32_t nprocs = 0;
  Backend backend = Backend::kSim;
  core::DetectorMode mode = core::DetectorMode::kOff;
  bool lock_clock_handoff = true;
  bool acked_puts = true;

  bool operator==(const LogHeader&) const = default;
};

/// A fully materialized log: what the recorder writes, what replay reads.
struct Log {
  LogHeader header;
  std::vector<AreaEntry> areas;
  /// Free-form provenance (program text, seeds, fault plan...) in insertion
  /// order; purely informational except where tools re-execute from it.
  std::vector<std::pair<std::string, std::string>> metadata;
  std::vector<Event> events;
  VerdictSignature live;

  bool operator==(const Log&) const = default;

  const std::string* find_metadata(std::string_view key) const;

  std::vector<std::byte> serialize() const;

  /// Parses `bytes`; on failure returns nullopt and sets `*error` to a
  /// diagnostic starting with a bracketed code (see file header).
  static std::optional<Log> parse(std::span<const std::byte> bytes,
                                  std::string* error);
};

/// FNV-1a 64 over `bytes` — the trailing integrity checksum.
std::uint64_t fnv1a(std::span<const std::byte> bytes);

/// Whole-file helpers. `write_file` REQUIREs success (caller owns the
/// directory); `read_file` returns nullopt with a diagnostic for tools.
void write_file(const std::string& path, std::span<const std::byte> bytes);
std::optional<std::vector<std::byte>> read_file(const std::string& path,
                                                std::string* error);

}  // namespace dsmr::record
