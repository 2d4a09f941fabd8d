#include "record/log.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "util/assert.hpp"
#include "util/varint.hpp"

namespace dsmr::record {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void put_string(std::vector<std::byte>& out, std::string_view s) {
  util::put_varint(out, s.size());
  for (const char c : s) out.push_back(static_cast<std::byte>(c));
}

/// Parse cursor with uniform error reporting: every getter returns false
/// once `fail` has been called, so parse code can chain without checking
/// each step.
struct Cursor {
  std::span<const std::byte> in;
  std::size_t pos = 0;
  std::string error;

  bool ok() const { return error.empty(); }
  void fail(std::string message) {
    if (error.empty()) error = std::move(message);
  }

  bool get(std::uint64_t* out, const char* what) {
    if (!ok()) return false;
    const auto v = util::try_get_varint(in, &pos);
    if (!v.has_value()) {
      fail(std::string("[truncated] log ends inside ") + what +
           " (offset " + std::to_string(pos) + ")");
      return false;
    }
    *out = *v;
    return true;
  }

  bool get_string(std::string* out, const char* what) {
    std::uint64_t len = 0;
    if (!get(&len, what)) return false;
    if (len > in.size() - pos) {
      fail(std::string("[truncated] log ends inside ") + what + " (" +
           std::to_string(len) + " bytes claimed, " +
           std::to_string(in.size() - pos) + " left)");
      return false;
    }
    out->assign(reinterpret_cast<const char*>(in.data() + pos),
                static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
  }
};

}  // namespace

std::string to_string(Backend backend) {
  return backend == Backend::kSim ? "sim" : "thread";
}

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kTick: return "tick";
    case EventKind::kPutIssue: return "put-issue";
    case EventKind::kPutApply: return "put-apply";
    case EventKind::kPutAck: return "put-ack";
    case EventKind::kGetIssue: return "get-issue";
    case EventKind::kGetApply: return "get-apply";
    case EventKind::kGetMerge: return "get-merge";
    case EventKind::kLock: return "lock";
    case EventKind::kUnlockIssue: return "unlock-issue";
    case EventKind::kUnlockApply: return "unlock-apply";
    case EventKind::kSignal: return "signal";
    case EventKind::kWaitMatch: return "wait-match";
    case EventKind::kThreadPut: return "thread-put";
    case EventKind::kThreadGet: return "thread-get";
    case EventKind::kThreadLock: return "thread-lock";
    case EventKind::kThreadUnlock: return "thread-unlock";
  }
  return "?";
}

std::string VerdictSignature::to_string() const {
  std::ostringstream out;
  out << (completed ? "completed" : "incomplete");
  if (!stuck_ranks.empty()) {
    out << " stuck=[";
    for (std::size_t i = 0; i < stuck_ranks.size(); ++i) {
      if (i > 0) out << ",";
      out << stuck_ranks[i];
    }
    out << "]";
  }
  out << " races=" << races.size() << "{";
  for (std::size_t i = 0; i < races.size(); ++i) {
    if (i > 0) out << ",";
    out << "a" << races[i].area << ":r" << races[i].accessor << ":"
        << core::to_string(races[i].kind) << "x" << races[i].count;
  }
  out << "}";
  return out.str();
}

std::uint64_t AreaIndex::add(Rank home, std::uint32_t id) {
  DSMR_REQUIRE(home >= 0, "area registered on negative home " << home);
  const auto h = static_cast<std::size_t>(home);
  if (h >= by_home_.size()) by_home_.resize(h + 1);
  std::vector<std::uint64_t>& ids = by_home_[h];
  DSMR_REQUIRE(id >= ids.size(), "area registered twice: home " << home << " id " << id);
  DSMR_REQUIRE(id == ids.size(), "area registered out of allocation order: home "
                                     << home << " id " << id << ", expected id "
                                     << ids.size());
  ids.push_back(size_);
  return size_++;
}

void AreaIndex::unknown_area(Rank home, std::uint32_t id) {
  DSMR_REQUIRE(false, "area not registered with the recorder: home "
                          << home << " id " << id);
}

AreaIndex make_area_index(const std::vector<AreaEntry>& areas) {
  AreaIndex index;
  std::map<Rank, std::uint32_t> next_id;
  for (const AreaEntry& entry : areas) index.add(entry.home, next_id[entry.home]++);
  return index;
}

const std::string* Log::find_metadata(std::string_view key) const {
  for (const auto& [k, v] : metadata) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t hash = kFnvOffset;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= kFnvPrime;
  }
  return hash;
}

std::vector<std::byte> Log::serialize() const {
  std::vector<std::byte> out;
  out.reserve(64 + events.size() * 4);
  for (const char c : kMagic) out.push_back(static_cast<std::byte>(c));
  util::put_varint(out, kVersion);

  util::put_varint(out, header.nprocs);
  util::put_varint(out, static_cast<std::uint64_t>(header.backend));
  util::put_varint(out, static_cast<std::uint64_t>(header.mode));
  util::put_varint(out, header.lock_clock_handoff ? 1 : 0);
  util::put_varint(out, header.acked_puts ? 1 : 0);

  util::put_varint(out, areas.size());
  for (const AreaEntry& area : areas) {
    util::put_varint(out, static_cast<std::uint64_t>(area.home));
    util::put_varint(out, area.size);
    put_string(out, area.name);
  }

  util::put_varint(out, metadata.size());
  for (const auto& [key, value] : metadata) {
    put_string(out, key);
    put_string(out, value);
  }

  util::put_varint(out, events.size());
  for (const Event& event : events) {
    out.push_back(static_cast<std::byte>(event.kind));
    const int fields = field_count(event.kind);
    if (fields >= 1) util::put_varint(out, event.a);
    if (fields >= 2) util::put_varint(out, event.b);
    if (fields >= 3) util::put_varint(out, event.c);
    if (fields >= 4) util::put_varint(out, event.d);
  }

  util::put_varint(out, live.completed ? 1 : 0);
  util::put_varint(out, live.stuck_ranks.size());
  for (const Rank rank : live.stuck_ranks) {
    util::put_varint(out, static_cast<std::uint64_t>(rank));
  }
  util::put_varint(out, live.races.size());
  for (const RaceCount& race : live.races) {
    util::put_varint(out, race.area);
    util::put_varint(out, static_cast<std::uint64_t>(race.accessor));
    util::put_varint(out, race.kind == core::AccessKind::kWrite ? 1 : 0);
    util::put_varint(out, race.count);
  }

  const std::uint64_t checksum = fnv1a(out);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((checksum >> (8 * i)) & 0xff));
  }
  return out;
}

std::optional<Log> Log::parse(std::span<const std::byte> bytes,
                              std::string* error) {
  DSMR_REQUIRE(error != nullptr, "Log::parse needs an error sink");
  *error = "";
  // Smallest syntactically possible log: magic + version + 5 header varints
  // + 3 empty-section counts + 2 footer varints + 8 checksum bytes.
  if (bytes.size() < 8 + 1 + 5 + 3 + 2 + 8) {
    *error = "[truncated] file too small to be a dsmr log (" +
             std::to_string(bytes.size()) + " bytes)";
    return std::nullopt;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    if (bytes[i] != static_cast<std::byte>(kMagic[i])) {
      *error = "[bad-magic] not a dsmr event log (magic mismatch at byte " +
               std::to_string(i) + ")";
      return std::nullopt;
    }
  }

  Cursor cursor{bytes.first(bytes.size() - 8), 8, ""};
  std::uint64_t version = 0;
  if (!cursor.get(&version, "version")) {
    *error = cursor.error;
    return std::nullopt;
  }
  if (version != kVersion) {
    *error = "[bad-version] log format version " + std::to_string(version) +
             ", this build reads version " + std::to_string(kVersion);
    return std::nullopt;
  }

  // Integrity before structure: a flipped bit deep in the event stream
  // should surface as a checksum failure, not as a confusing structural one.
  const std::span<const std::byte> body = bytes.first(bytes.size() - 8);
  std::uint64_t stored = 0;
  for (int i = 7; i >= 0; --i) {
    stored = (stored << 8) |
             static_cast<std::uint64_t>(bytes[bytes.size() - 8 + i]);
  }
  const std::uint64_t computed = fnv1a(body);
  if (stored != computed) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "stored %016llx, computed %016llx",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(computed));
    *error = std::string("[checksum-mismatch] log integrity check failed (") +
             buf + "); the file is corrupt or truncated";
    return std::nullopt;
  }

  Log log;
  std::uint64_t backend = 0;
  std::uint64_t mode = 0;
  std::uint64_t handoff = 0;
  std::uint64_t acked = 0;
  std::uint64_t nprocs = 0;
  cursor.get(&nprocs, "header nprocs");
  cursor.get(&backend, "header backend");
  cursor.get(&mode, "header mode");
  cursor.get(&handoff, "header lock_clock_handoff");
  cursor.get(&acked, "header acked_puts");
  if (cursor.ok() &&
      (backend > static_cast<std::uint64_t>(Backend::kThread) ||
       mode > static_cast<std::uint64_t>(core::DetectorMode::kDualClock) ||
       handoff > 1 || acked > 1 || nprocs == 0 || nprocs > (1u << 20))) {
    cursor.fail("[bad-field] header out of range (nprocs " +
                std::to_string(nprocs) + ", backend " +
                std::to_string(backend) + ", mode " + std::to_string(mode) +
                ")");
  }
  if (cursor.ok()) {
    log.header.nprocs = static_cast<std::uint32_t>(nprocs);
    log.header.backend = static_cast<Backend>(backend);
    log.header.mode = static_cast<core::DetectorMode>(mode);
    log.header.lock_clock_handoff = handoff == 1;
    log.header.acked_puts = acked == 1;
  }

  std::uint64_t area_count = 0;
  cursor.get(&area_count, "area table count");
  for (std::uint64_t i = 0; cursor.ok() && i < area_count; ++i) {
    AreaEntry area;
    std::uint64_t home = 0;
    cursor.get(&home, "area home");
    cursor.get(&area.size, "area size");
    cursor.get_string(&area.name, "area name");
    if (cursor.ok() && home >= nprocs) {
      cursor.fail("[bad-field] area " + std::to_string(i) + " home rank " +
                  std::to_string(home) + " >= nprocs " +
                  std::to_string(nprocs));
    }
    area.home = static_cast<Rank>(home);
    log.areas.push_back(std::move(area));
  }

  std::uint64_t meta_count = 0;
  cursor.get(&meta_count, "metadata count");
  for (std::uint64_t i = 0; cursor.ok() && i < meta_count; ++i) {
    std::string key;
    std::string value;
    cursor.get_string(&key, "metadata key");
    cursor.get_string(&value, "metadata value");
    log.metadata.emplace_back(std::move(key), std::move(value));
  }

  std::uint64_t event_count = 0;
  cursor.get(&event_count, "event count");
  if (cursor.ok()) log.events.reserve(std::min<std::uint64_t>(event_count, 1u << 22));
  for (std::uint64_t i = 0; cursor.ok() && i < event_count; ++i) {
    if (cursor.pos >= cursor.in.size()) {
      cursor.fail("[truncated] log ends inside event " + std::to_string(i) +
                  " of " + std::to_string(event_count));
      break;
    }
    const auto raw = static_cast<std::uint8_t>(cursor.in[cursor.pos++]);
    if (raw < 1 || raw > kMaxEventKind) {
      cursor.fail("[bad-event-kind] event " + std::to_string(i) +
                  " has unknown kind " + std::to_string(raw));
      break;
    }
    Event event;
    event.kind = static_cast<EventKind>(raw);
    const int fields = field_count(event.kind);
    if (fields >= 1) cursor.get(&event.a, "event field a");
    if (fields >= 2) cursor.get(&event.b, "event field b");
    if (fields >= 3) cursor.get(&event.c, "event field c");
    if (fields >= 4) cursor.get(&event.d, "event field d");
    log.events.push_back(event);
  }

  std::uint64_t completed = 0;
  std::uint64_t stuck_count = 0;
  cursor.get(&completed, "footer completed flag");
  cursor.get(&stuck_count, "footer stuck count");
  log.live.completed = completed == 1;
  for (std::uint64_t i = 0; cursor.ok() && i < stuck_count; ++i) {
    std::uint64_t rank = 0;
    cursor.get(&rank, "footer stuck rank");
    log.live.stuck_ranks.push_back(static_cast<Rank>(rank));
  }
  std::uint64_t race_count = 0;
  cursor.get(&race_count, "footer race count");
  for (std::uint64_t i = 0; cursor.ok() && i < race_count; ++i) {
    RaceCount race;
    std::uint64_t accessor = 0;
    std::uint64_t kind = 0;
    cursor.get(&race.area, "footer race area");
    cursor.get(&accessor, "footer race accessor");
    cursor.get(&kind, "footer race kind");
    cursor.get(&race.count, "footer race count");
    race.accessor = static_cast<Rank>(accessor);
    race.kind = kind == 1 ? core::AccessKind::kWrite : core::AccessKind::kRead;
    log.live.races.push_back(race);
  }

  if (!cursor.ok()) {
    *error = cursor.error;
    return std::nullopt;
  }
  if (cursor.pos != cursor.in.size()) {
    *error = "[trailing-garbage] " +
             std::to_string(cursor.in.size() - cursor.pos) +
             " unexpected bytes between the footer and the checksum";
    return std::nullopt;
  }
  return log;
}

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  DSMR_REQUIRE(file != nullptr, "cannot open " << path << " for writing");
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  const int closed = std::fclose(file);
  DSMR_REQUIRE(written == bytes.size() && closed == 0,
               "short write to " << path);
}

std::optional<std::vector<std::byte>> read_file(const std::string& path,
                                                std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error) *error = "cannot open " + path + " for reading";
    return std::nullopt;
  }
  std::vector<std::byte> bytes;
  std::byte buffer[1 << 16];
  while (true) {
    const std::size_t n = std::fread(buffer, 1, sizeof(buffer), file);
    bytes.insert(bytes.end(), buffer, buffer + n);
    if (n < sizeof(buffer)) break;
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    if (error) *error = "read error on " + path;
    return std::nullopt;
  }
  return bytes;
}

}  // namespace dsmr::record
