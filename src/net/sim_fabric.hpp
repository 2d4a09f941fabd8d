// Simulated interconnect with a latency/bandwidth/jitter cost model, an
// optional fault-injection plane (net/fault.hpp) and the reliable transport
// that masks recoverable faults (net/reliable.hpp).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "sim/engine.hpp"
#include "sim/perturb.hpp"
#include "util/rng.hpp"

namespace dsmr::net {

/// Cost model: delivery latency = base + wire_size/bandwidth + jitter.
/// Defaults approximate an InfiniBand-class fabric (the hardware the paper
/// targets): ~1.5 µs base latency, ~3 GB/s, small exponential-ish jitter.
struct LatencyModel {
  sim::Time base_ns = 1'500;
  double ns_per_byte = 0.33;
  sim::Time jitter_ns = 200;   ///< uniform in [0, jitter_ns).
  sim::Time loopback_ns = 80;  ///< rank-to-self messages (NIC loopback).

  sim::Time cost(std::size_t wire_bytes, bool loopback, util::Rng& rng) const {
    const auto jitter =
        jitter_ns > 0 ? static_cast<sim::Time>(rng.below(jitter_ns)) : sim::Time{0};
    if (loopback) return loopback_ns + jitter / 4;
    return base_ns + static_cast<sim::Time>(ns_per_byte * static_cast<double>(wire_bytes)) +
           jitter;
  }
};

/// One message the transport could not deliver-and-confirm: still awaiting
/// its ack, or past the retry cap (gave_up). The watchdog's evidence.
struct LinkDiagnostic {
  Rank src = kInvalidRank;
  Rank dst = kInvalidRank;
  std::uint64_t seq = 0;
  MsgType type = MsgType::kSignal;
  std::uint64_t op_id = 0;
  int attempts = 0;
  sim::Time first_sent = 0;
  bool gave_up = false;

  std::string describe() const;
};

class SimFabric final : public Fabric {
 public:
  /// `perturb` adds seeded delay-bound skew to every delivery (schedule
  /// exploration, sim/perturb.hpp); the default is the identity. `fault`
  /// switches the wire onto the fault-injection plane + reliable transport;
  /// the default plan is the perfect ordered wire, bit-identical to a
  /// fabric built without one. Fault decisions draw from a dedicated RNG
  /// stream derived from (seed, fault.salt) — never from the latency
  /// model's jitter stream or the perturbation streams.
  SimFabric(sim::Engine& engine, int nranks, LatencyModel model, std::uint64_t seed,
            sim::PerturbConfig perturb = {}, FaultPlan fault = {});

  void attach(Rank rank, Handler handler) override;
  sim::Time send(Message m) override;

  const TrafficCounters& counters() const override { return counters_; }
  void reset_counters() override { counters_.reset(); }

  const LatencyModel& model() const { return model_; }
  const FaultPlan& fault_plan() const { return fault_; }

  /// Messages the reliable transport has not confirmed: unacked in-flight
  /// sends and dead letters (retry cap exhausted), oldest first. Empty on
  /// the perfect wire and after any fully-quiescent reliable run.
  std::vector<LinkDiagnostic> unacked() const;

  /// Observation tap: called for every *original* send with its computed
  /// delivery time, after counting and scheduling (retransmissions and
  /// fault duplicates are transport internals — the trace stays the
  /// protocol's logical view). Used by the trace recorder; keep the
  /// callback cheap.
  using Tap = std::function<void(sim::Time send_time, sim::Time deliver_time,
                                 const Message& message)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

 private:
  using LinkKey = std::pair<Rank, Rank>;

  /// True when a wire arrival on src→dst at time `t` is swallowed by a
  /// partition or crash window (pure predicate — no RNG, no state).
  bool blacked_out(Rank src, Rank dst, sim::Time t) const;

  /// One transmission attempt: draws the fault fate from the fault stream,
  /// schedules the wire arrival (unless dropped) and arms the retransmit
  /// timer. `arrive_at` is the fault-free arrival time for this attempt.
  void launch(const Message& m, int attempt, sim::Time arrive_at);
  void on_wire_arrival(Message m, bool corrupted);
  void send_ack(Rank data_src, Rank data_dst, std::uint64_t seq);
  void on_retry_timer(LinkKey key, std::uint64_t seq, int attempt);
  void deliver(const Message& m);

  sim::Engine& engine_;
  LatencyModel model_;
  util::Rng rng_;
  sim::Perturbator perturb_;
  FaultPlan fault_;
  /// Dedicated fault/transport stream: retransmission jitter, drop/dup/
  /// corrupt/delay draws. Enabling a plan must not disturb `rng_` or the
  /// perturbation streams — (seed, perturb, fault) is the replay coordinate.
  util::Rng fault_rng_;
  std::vector<Handler> handlers_;
  /// Per ordered (src,dst) pair, flat at [src * nranks + dst]: the earliest
  /// time the channel's next original transmission may be delivered (one
  /// past the latest scheduled delivery; 0 before the first send). Enforces
  /// FIFO even when jitter would reorder two back-to-back sends.
  /// Retransmissions bypass it (the receiver window restores ordering).
  std::vector<sim::Time> channel_next_;
  std::map<LinkKey, SenderWindow> senders_;
  std::map<LinkKey, ReceiverWindow> receivers_;
  TrafficCounters counters_;
  Tap tap_;
};

}  // namespace dsmr::net
