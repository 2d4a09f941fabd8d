// Tiny command-line flag parser used by the example and tool binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms.
// Unknown flags are an error: examples are teaching material and should
// fail loudly on typos. Numeric flags are parsed *strictly* — trailing
// garbage ("12abc") or overflow is a loud error, never a silent truncation.
// Every usage error prints its message to stderr and exits with status 2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dsmr::util {

/// Strict base-10 parsers: the whole string must be one in-range integer
/// (optional leading '-' for the signed form). nullopt on anything else —
/// including empty strings, whitespace, trailing garbage, and overflow.
std::optional<std::int64_t> parse_i64(const std::string& text);
std::optional<std::uint64_t> parse_u64(const std::string& text);

/// A contiguous seed range: seeds [first, first + count).
struct SeedRange {
  std::uint64_t first = 1;
  std::uint64_t count = 1;

  bool operator==(const SeedRange&) const = default;
};

/// Parses the seed-range grammar shared by dsmr_explore and dsmr_fuzz:
///   "N"       — N seeds starting at `default_first`
///   "LO..HI"  — the inclusive range [LO, HI]
/// Malformed text (empty, non-numeric, trailing garbage, HI < LO, zero
/// count) returns nullopt and stores a caller-printable message in *error.
/// Overflow is rejected, not wrapped: every seed of the result — up to and
/// including the last, `first + count - 1` — is representable in uint64
/// ("0..18446744073709551615" and an "N" whose sweep would run past
/// 2^64-1 both fail loudly instead of silently repeating low seeds).
std::optional<SeedRange> parse_seed_range(const std::string& text,
                                          std::uint64_t default_first,
                                          std::string* error = nullptr);

class Cli {
 public:
  /// Parses argv. On `--help` prints usage (built from the described flags
  /// queried so far is impossible, so callers pass a usage string) and exits.
  Cli(int argc, char** argv, const std::string& usage);

  std::int64_t get_int(const std::string& name, std::int64_t default_value);
  /// get_int, then exits 2 unless lo <= value <= hi. Callers narrow the
  /// result (to int, uint32_t) only after this check, so an out-of-range
  /// value is rejected instead of wrapping into range at the cast.
  std::int64_t get_int_in(const std::string& name, std::int64_t default_value,
                          std::int64_t lo, std::int64_t hi);
  /// Count-like flags: rejects signs outright, so "-1" is a loud error
  /// instead of wrapping to 2^64-1 at the cast site.
  std::uint64_t get_uint(const std::string& name, std::uint64_t default_value);
  double get_double(const std::string& name, double default_value);
  std::string get_string(const std::string& name, const std::string& default_value);
  bool get_flag(const std::string& name);
  /// Whether `--<name>` was passed at all (consumes nothing).
  bool has(const std::string& name) const;

  /// The shared `--<name> N|LO..HI` seed-range flag (parse_seed_range);
  /// exits 2 with the parse error on malformed input.
  SeedRange get_seed_range(const std::string& name, const SeedRange& default_value);

  /// Call after all get_* lookups: exits 2 on flags that were passed but
  /// never consumed (i.e. typos).
  void finish() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::string program_;
};

}  // namespace dsmr::util
