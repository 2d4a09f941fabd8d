// One processor's public memory: the remotely accessible part of the global
// address space (paper §III.A, Fig. 1).
//
// Shared data must be *registered* as an area before remote access — the
// analogue of RDMA memory registration. The segment owns the *addressing*
// facts only: offsets, sizes, names, and the offset→area index. The
// detection state the paper attaches to "each shared piece of data" (§IV.B,
// §V.A — the V/W clocks, epoch witnesses, prior event identities) lives in
// detect::ShardedDetector, keyed by the same dense AreaId this segment
// assigns; the two registries grow in lockstep through the runtime's alloc
// paths.
//
// Backing memory follows registration. Only registered areas are remotely
// accessible, so bytes outside every area are never read by any protocol.
// The segment reserves its declared capacity once at construction, without
// touching or zeroing it, and never reallocates: `data()` and every span
// handed out stay valid for the segment's lifetime. `register_area`
// zero-extends the backing up to the end of the highest registered area
// (the *materialized extent*, `resident_bytes()`), and raw byte access is
// bounds-checked against that extent. A world with 1 MiB segments and a
// few 8-byte areas therefore zero-fills a few bytes, not 1 MiB per rank.
//
// Area lookup is the single hottest metadata operation (every one-sided
// access resolves its target area), so the index is a sorted vector probed
// by binary search — with *amortized* insertion: bump-allocated areas (the
// production path — monotonically increasing offsets) append straight to
// the sorted prefix in O(1), and arbitrary-offset registrations go to a
// bounded unsorted tail that is merged (sort + inplace_merge) only when it
// fills. Lookups binary-search the prefix and linearly scan the ≤64-entry
// tail. Areas live in a deque so `Area*` stays stable across registrations.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dsmr::mem {

using AreaId = std::uint32_t;

/// A registered shared area: addressing and identity only. Detection
/// metadata for the area lives in detect::ShardedDetector under this id.
struct Area {
  AreaId id = 0;
  std::uint32_t offset = 0;  ///< start within the public segment.
  std::uint32_t size = 0;
  std::string name;          ///< diagnostic label used in race reports.

  std::uint32_t end() const { return offset + size; }
};

class PublicSegment {
 public:
  /// A segment of `size` bytes on `home`, in a system of `nprocs` processes
  /// (clock width). Reserves `size` bytes of backing; materializes none.
  PublicSegment(Rank home, std::uint32_t size, std::size_t nprocs);

  Rank home() const { return home_; }
  /// The declared capacity: registrations must fit inside it.
  std::uint32_t size() const { return capacity_; }
  std::size_t nprocs() const { return nprocs_; }
  /// Bytes of backing materialized so far: the end of the highest
  /// registered area. Byte access is bounded by this, not by `size()`.
  std::size_t resident_bytes() const { return bytes_.size(); }

  /// Registers [offset, offset+size) as a shared area. Areas must not
  /// overlap: an area is the unit of locking and of race detection. Newly
  /// materialized backing reads zero.
  AreaId register_area(std::uint32_t offset, std::uint32_t size, std::string name);

  /// Registers the next free region (bump allocation); the common path used
  /// by World::alloc_public. O(1) amortized — appends to the sorted prefix.
  AreaId allocate_area(std::uint32_t size, std::string name);

  Area& area(AreaId id);
  const Area& area(AreaId id) const;
  std::size_t area_count() const { return areas_.size(); }

  /// The area containing [offset, offset+len), or nullptr if the range is
  /// unregistered or straddles an area boundary. Pointers stay valid for
  /// the segment's lifetime (areas are never deregistered), so callers may
  /// cache the result for ranges inside the same area. Read-only and safe
  /// to call concurrently once registrations have quiesced.
  Area* find_area(std::uint32_t offset, std::uint32_t len);

  /// Raw byte access, bounds-checked against the materialized extent.
  std::span<std::byte> bytes(std::uint32_t offset, std::uint32_t len);
  std::span<const std::byte> bytes(std::uint32_t offset, std::uint32_t len) const;

  void write_bytes(std::uint32_t offset, std::span<const std::byte> data);
  std::vector<std::byte> read_bytes(std::uint32_t offset, std::uint32_t len) const;

 private:
  struct IndexEntry {
    std::uint32_t offset;
    AreaId id;
  };

  /// Arbitrary-offset registrations buffer here until the tail fills, then
  /// merge into the sorted prefix — O(kMaxTail) worst-case lookup overhead,
  /// amortized O(log n) insertion instead of the old O(n) vector::insert.
  static constexpr std::size_t kMaxTail = 64;

  void flush_tail();

  Rank home_;
  std::uint32_t capacity_;
  std::size_t nprocs_;
  /// Capacity reserved at construction, size = materialized extent: growth
  /// stays inside the reservation, so it never moves the bytes.
  std::vector<std::byte> bytes_;
  std::deque<Area> areas_;              ///< deque: stable Area* across growth.
  std::vector<IndexEntry> by_offset_;   ///< sorted prefix; binary-searched.
  std::vector<IndexEntry> tail_;        ///< unsorted tail; linearly scanned.
  std::uint32_t bump_ = 0;
};

}  // namespace dsmr::mem
