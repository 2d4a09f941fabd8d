// Wire messages exchanged between NICs.
//
// The message vocabulary mirrors the paper's protocols:
//  * put = one data message (+completion ack), get = request + response
//    (paper Fig. 2);
//  * the detection wrappers (Algorithms 1-2) add lock, clock-fetch and
//    clock-update traffic around the data movement;
//  * the `*Piggyback*`/`*Commit*`/`*Locked*` verbs implement the same
//    algorithms with clocks riding on the lock/data messages — the
//    transport ablation measured in bench_overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "util/types.hpp"

namespace dsmr::net {

enum class MsgType : std::uint8_t {
  // Base data movement (paper Fig. 2), used by the Separate transport.
  kPutData,        ///< put payload: initiator -> home. The single put message.
  kPutAck,         ///< completion ack back to the initiator.
  kGetRequest,     ///< get message 1: request.
  kGetResponse,    ///< get message 2: data transfer.

  // Lock traffic (NIC-provided area locks, paper §III.A).
  kLockRequest,
  kLockGrant,
  kUnlock,

  // Detection clock traffic, separate-message transport (Algorithms 1-2, 5).
  kClockFetch,      ///< read V(x), W(x) from the home NIC.
  kClockResponse,   ///< reply carrying both clocks.
  kClockEvent,      ///< home-side clock event: tick, merge, store V (and W).
  kClockEventAck,   ///< reply carrying the home's post-event clock.

  // Fused verbs (Piggyback / HomeSide transports).
  kLockFetchRequest,   ///< lock request that also asks for the area clocks.
  kLockFetchGrant,     ///< grant carrying V(x), W(x).
  kPutCommit,          ///< data + initiator clock; home applies data + clock
                       ///< event, then unlocks (flag => also decide verdict).
  kPutCommitAck,       ///< ack carrying the home's post-event clock.
  kGetLockedRequest,   ///< get carrying the reader clock; home locks,
                       ///< decides, serves, unlocks after transfer.
  kGetLockedResponse,  ///< data + home clock + race verdict.

  // Control-plane signal used by barriers / point-to-point sync (carries a
  // clock: signals create happens-before edges, and may carry payload).
  kSignal,
};

/// Number of MsgType values: the size of a table indexed by message type.
inline constexpr std::size_t kMsgTypeCount = static_cast<std::size_t>(MsgType::kSignal) + 1;

const char* to_string(MsgType type);

/// True for the messages that move user payload (the ones Fig. 2 counts).
constexpr bool is_data_path(MsgType type) {
  switch (type) {
    case MsgType::kPutData:
    case MsgType::kGetRequest:
    case MsgType::kGetResponse:
    case MsgType::kPutCommit:
    case MsgType::kGetLockedRequest:
    case MsgType::kGetLockedResponse:
      return true;
    default:
      return false;
  }
}

/// One NIC-to-NIC message. A fat struct rather than a serialized buffer:
/// the simulator charges wire cost via wire_size() instead of actually
/// packing bytes, keeping protocol code readable.
struct Message {
  MsgType type = MsgType::kSignal;
  Rank src = kInvalidRank;
  Rank dst = kInvalidRank;
  std::uint64_t op_id = 0;    ///< correlates all messages of one operation.
  std::uint32_t area = 0;     ///< target area id on the home rank.
  std::uint32_t offset = 0;   ///< byte offset within the area.
  std::uint32_t length = 0;   ///< requested length for gets.
  std::uint64_t tag = 0;      ///< user tag for kSignal.
  bool flag = false;          ///< verb-specific: user-lock marker, is-write
                              ///< marker, want-verdict marker, race verdict.
  /// Reliable-transport sequence number on this (src, dst) link. Assigned
  /// by the fabric when a FaultPlan enables the reliable layer (0 and
  /// unused on the perfect-wire path); retransmitted copies share it. Rides
  /// in the 40-byte header — no extra wire charge.
  std::uint64_t transport_seq = 0;
  std::uint64_t event_id = 0;   ///< EventLog id of the access (or prior access).
  std::uint64_t event_id2 = 0;  ///< second event id where needed (prior write).
  Rank prior_access_rank = kInvalidRank;  ///< initiator of the area's last access.
  Rank prior_write_rank = kInvalidRank;   ///< initiator of the area's last write.
  std::vector<std::byte> data;
  clocks::VectorClock clock;   ///< piggybacked clock (initiator or home V).
  clocks::VectorClock clock2;  ///< second clock where needed (W).

  /// When detection is off the simulator still moves clocks around as
  /// out-of-band metadata (the offline ground-truth analysis needs real
  /// causality), but they must not be charged to the simulated wire.
  bool clocks_on_wire = true;

  /// Bytes charged to the wire: fixed header + payload + (charged) clocks.
  /// This feeds both the bandwidth term of the latency model and the
  /// traffic counters behind the §V.A overhead experiment. A lone clock is
  /// charged at its compact (LEB128) encoding — VectorClock::wire_size —
  /// which is what the kPiggyback / kSeparate transports would actually
  /// pack per message. When a message carries BOTH clocks (the dual-clock
  /// fetch/grant replies: V plus W), the second is charged delta-encoded
  /// against the first (VectorClock::delta_wire_size): V and W of one area
  /// usually differ in at most a few components, so the piggyback cost of
  /// the second clock collapses to a tag byte plus the sparse diff.
  std::size_t wire_size() const { return wire_bytes(data.size(), charged_clock_bytes()); }

  /// Wire bytes of a message of this shape: the one formula behind both
  /// wire_size() and the traffic counters.
  static constexpr std::size_t wire_bytes(std::size_t payload_bytes,
                                          std::size_t clock_bytes) {
    return kHeaderBytes + payload_bytes + clock_bytes;
  }

  std::size_t charged_clock_bytes() const {
    if (!clocks_on_wire) return 0;
    if (clock.size() > 0 && clock2.size() == clock.size()) {
      return clock.wire_size() + clock2.delta_wire_size(clock);
    }
    return clock.wire_size() + clock2.wire_size();
  }

  static constexpr std::size_t kHeaderBytes = 40;

  std::string describe() const;
};

}  // namespace dsmr::net
