#include "mem/public_segment.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace dsmr::mem {

PublicSegment::PublicSegment(Rank home, std::uint32_t size, std::size_t nprocs)
    : home_(home), capacity_(size), nprocs_(nprocs) {
  DSMR_REQUIRE(nprocs > 0, "segment needs a positive process count");
  bytes_.reserve(size);
}

AreaId PublicSegment::register_area(std::uint32_t offset, std::uint32_t size,
                                    std::string name) {
  DSMR_REQUIRE(size > 0, "area '" << name << "' must have positive size");
  // 64-bit end: `offset + size` in 32 bits wraps past 4 GiB and would pass
  // the capacity check with a bogus, inverted range.
  const std::uint64_t end = std::uint64_t{offset} + size;
  DSMR_REQUIRE(end <= capacity_, "area '" << name << "' [" << offset << "," << end
                                          << ") exceeds segment of " << capacity_
                                          << " bytes");
  // Overlap check against neighbours in the sorted prefix, then against
  // every entry of the (bounded) unsorted tail. Rejection stays immediate —
  // an overlapping registration must die here, not at some later flush.
  const auto next = std::lower_bound(
      by_offset_.begin(), by_offset_.end(), offset,
      [](const IndexEntry& e, std::uint32_t o) { return e.offset < o; });
  if (next != by_offset_.end()) {
    DSMR_REQUIRE(end <= areas_[next->id].offset,
                 "area '" << name << "' overlaps area '" << areas_[next->id].name << "'");
  }
  if (next != by_offset_.begin()) {
    const auto prev = std::prev(next);
    DSMR_REQUIRE(areas_[prev->id].end() <= offset,
                 "area '" << name << "' overlaps area '" << areas_[prev->id].name << "'");
  }
  for (const IndexEntry& entry : tail_) {
    const Area& other = areas_[entry.id];
    DSMR_REQUIRE(end <= other.offset || other.end() <= offset,
                 "area '" << name << "' overlaps area '" << other.name << "'");
  }

  const auto id = static_cast<AreaId>(areas_.size());
  Area area;
  area.id = id;
  area.offset = offset;
  area.size = size;
  area.name = std::move(name);
  areas_.push_back(std::move(area));
  if (tail_.empty() && (by_offset_.empty() || by_offset_.back().offset < offset)) {
    // The bump-allocation path: offsets arrive in increasing order, so the
    // sorted prefix grows by plain O(1) append.
    by_offset_.push_back(IndexEntry{offset, id});
  } else {
    tail_.push_back(IndexEntry{offset, id});
    if (tail_.size() >= kMaxTail) flush_tail();
  }
  // Zero-extend the backing to cover the new area. The resize stays inside
  // the capacity reserved at construction, so the bytes never move.
  if (end > bytes_.size()) bytes_.resize(end);
  bump_ = std::max(bump_, static_cast<std::uint32_t>(end));
  return id;
}

void PublicSegment::flush_tail() {
  std::sort(tail_.begin(), tail_.end(),
            [](const IndexEntry& a, const IndexEntry& b) { return a.offset < b.offset; });
  const std::size_t middle = by_offset_.size();
  by_offset_.insert(by_offset_.end(), tail_.begin(), tail_.end());
  std::inplace_merge(
      by_offset_.begin(), by_offset_.begin() + static_cast<std::ptrdiff_t>(middle),
      by_offset_.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.offset < b.offset; });
  tail_.clear();
}

AreaId PublicSegment::allocate_area(std::uint32_t size, std::string name) {
  return register_area(bump_, size, std::move(name));
}

Area& PublicSegment::area(AreaId id) {
  DSMR_CHECK_MSG(id < areas_.size(), "area id " << id << " out of range");
  return areas_[id];
}

const Area& PublicSegment::area(AreaId id) const {
  DSMR_CHECK_MSG(id < areas_.size(), "area id " << id << " out of range");
  return areas_[id];
}

Area* PublicSegment::find_area(std::uint32_t offset, std::uint32_t len) {
  const std::uint64_t end = std::uint64_t{offset} + len;
  const auto it = std::upper_bound(
      by_offset_.begin(), by_offset_.end(), offset,
      [](std::uint32_t o, const IndexEntry& e) { return o < e.offset; });
  if (it != by_offset_.begin()) {
    Area& candidate = areas_[std::prev(it)->id];
    if (offset >= candidate.offset && end <= candidate.end()) return &candidate;
  }
  for (const IndexEntry& entry : tail_) {
    Area& candidate = areas_[entry.id];
    if (offset >= candidate.offset && end <= candidate.end()) return &candidate;
  }
  return nullptr;
}

std::span<std::byte> PublicSegment::bytes(std::uint32_t offset, std::uint32_t len) {
  const auto range = std::as_const(*this).bytes(offset, len);
  return {const_cast<std::byte*>(range.data()), range.size()};
}

std::span<const std::byte> PublicSegment::bytes(std::uint32_t offset,
                                                std::uint32_t len) const {
  DSMR_REQUIRE(std::uint64_t{offset} + len <= bytes_.size(),
               "byte range [" << offset << "," << std::uint64_t{offset} + len
                              << ") outside the registered extent of " << bytes_.size()
                              << " bytes");
  return {bytes_.data() + offset, len};
}

void PublicSegment::write_bytes(std::uint32_t offset, std::span<const std::byte> data) {
  auto dst = bytes(offset, static_cast<std::uint32_t>(data.size()));
  std::copy(data.begin(), data.end(), dst.begin());
}

std::vector<std::byte> PublicSegment::read_bytes(std::uint32_t offset,
                                                 std::uint32_t len) const {
  auto src = bytes(offset, len);
  return {src.begin(), src.end()};
}

}  // namespace dsmr::mem
