// Abstract interconnect interface + traffic accounting.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/message.hpp"
#include "sim/time.hpp"
#include "util/types.hpp"

namespace dsmr::net {

/// Message counts indexed by MsgType: a flat table, so charging a message
/// is one increment rather than a map lookup.
struct MessageTypeCounts {
  std::array<std::uint64_t, kMsgTypeCount> counts{};

  std::uint64_t& operator[](MsgType type) { return counts[static_cast<std::size_t>(type)]; }
  std::uint64_t at(MsgType type) const { return counts[static_cast<std::size_t>(type)]; }
};

/// Per-message-type traffic counters; the raw material for the
/// communication-overhead experiment (paper §V.A / EXPERIMENTS.md
/// CLAIM-V.A2).
struct TrafficCounters {
  MessageTypeCounts messages_by_type;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t data_path_messages = 0;  ///< the messages Fig. 2 counts.
  std::uint64_t payload_bytes = 0;       ///< user data only.
  std::uint64_t clock_bytes = 0;         ///< detection metadata on the wire.

  // Reliable-transport accounting (net/fault.hpp plans). Kept strictly
  // separate from the protocol counters above so the paper's overhead
  // experiment stays honest: a retransmitted put is still ONE data-path
  // message, its payload charged once — retry cost shows up only here.
  std::uint64_t retry_messages = 0;          ///< retransmission attempts.
  std::uint64_t retry_bytes = 0;             ///< wire bytes of those attempts.
  std::uint64_t acks_sent = 0;               ///< transport-level acks.
  std::uint64_t duplicates_suppressed = 0;   ///< receive-side dedup hits.
  std::uint64_t faults_injected = 0;         ///< drops/corruptions/blackout losses.
  std::uint64_t undeliverable_messages = 0;  ///< retry cap exhausted.

  /// Charges one message of the given shape: `payload` user bytes and
  /// `clocks` charged detection-clock bytes (Message::charged_clock_bytes).
  /// Callers that never build the Message (the threaded backend) charge
  /// through here directly.
  void record_shape(MsgType type, std::size_t payload, std::size_t clocks) {
    messages_by_type[type] += 1;
    total_messages += 1;
    total_bytes += Message::wire_bytes(payload, clocks);
    payload_bytes += payload;
    clock_bytes += clocks;
    if (is_data_path(type)) data_path_messages += 1;
  }

  void record(const Message& m) { record_shape(m.type, m.data.size(), m.charged_clock_bytes()); }

  void reset() { *this = TrafficCounters{}; }

  /// Adds another counter set into this one. The fold half of per-thread
  /// sharding: concurrent senders each record into a private shard
  /// (single-writer, no atomics needed) and the owner folds the shards
  /// after the senders have quiesced (net::ThreadFabric does exactly this).
  void merge(const TrafficCounters& other) {
    for (std::size_t i = 0; i < kMsgTypeCount; ++i) {
      messages_by_type.counts[i] += other.messages_by_type.counts[i];
    }
    total_messages += other.total_messages;
    total_bytes += other.total_bytes;
    data_path_messages += other.data_path_messages;
    payload_bytes += other.payload_bytes;
    clock_bytes += other.clock_bytes;
    retry_messages += other.retry_messages;
    retry_bytes += other.retry_bytes;
    acks_sent += other.acks_sent;
    duplicates_suppressed += other.duplicates_suppressed;
    faults_injected += other.faults_injected;
    undeliverable_messages += other.undeliverable_messages;
  }
};

/// The interconnection network. Implementations must deliver messages
/// between a given ordered pair of ranks in FIFO order — the paper's model
/// (like InfiniBand/Myrinet channels) assumes ordered point-to-point links.
class Fabric {
 public:
  using Handler = std::function<void(const Message&)>;

  virtual ~Fabric() = default;

  /// Registers the receive handler (the NIC) for `rank`.
  virtual void attach(Rank rank, Handler handler) = 0;

  /// Sends `m` from m.src to m.dst; delivery is asynchronous. Returns the
  /// virtual time at which the message will be delivered — the sending NIC
  /// uses it to model transfer occupancy (an area stays locked until a get
  /// response has fully arrived; paper Fig. 3).
  virtual sim::Time send(Message m) = 0;

  virtual const TrafficCounters& counters() const = 0;
  virtual void reset_counters() = 0;
};

}  // namespace dsmr::net
