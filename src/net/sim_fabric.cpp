#include "net/sim_fabric.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace dsmr::net {

namespace {

/// Fault-stream derivation: same SplitMix64 shape as sim::Perturbator but
/// with distinct mixing constants, so a fault plan's draws can never collide
/// with the fabric (stream 0) or wakeup (stream 1) perturbation streams.
std::uint64_t fault_stream_seed(std::uint64_t world_seed, std::uint64_t salt) {
  return util::SplitMix64(world_seed ^ (0xa0761d6478bd642fULL * (salt + 1)) ^
                          0x8bb84b93962eacc9ULL)
      .next();
}

}  // namespace

std::string LinkDiagnostic::describe() const {
  std::ostringstream out;
  out << "P" << src << "->P" << dst << " seq " << seq << " " << net::to_string(type)
      << " op " << op_id << " attempts " << attempts << " first-sent t=" << first_sent;
  if (gave_up) out << " GAVE-UP";
  return out.str();
}

SimFabric::SimFabric(sim::Engine& engine, int nranks, LatencyModel model,
                     std::uint64_t seed, sim::PerturbConfig perturb, FaultPlan fault)
    : engine_(engine),
      model_(model),
      rng_(seed),
      perturb_(perturb, seed, /*stream=*/0),
      fault_(std::move(fault)),
      fault_rng_(fault_stream_seed(seed, fault_.salt)),
      handlers_(static_cast<std::size_t>(nranks)),
      channel_next_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks)) {
  DSMR_REQUIRE(nranks > 0, "fabric needs at least one rank");
}

void SimFabric::attach(Rank rank, Handler handler) {
  DSMR_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < handlers_.size(),
               "attach: rank " << rank << " out of range");
  handlers_[static_cast<std::size_t>(rank)] = std::move(handler);
}

sim::Time SimFabric::send(Message m) {
  DSMR_REQUIRE(m.src >= 0 && static_cast<std::size_t>(m.src) < handlers_.size(),
               "send: bad src rank " << m.src);
  DSMR_REQUIRE(m.dst >= 0 && static_cast<std::size_t>(m.dst) < handlers_.size(),
               "send: bad dst rank " << m.dst);
  counters_.record(m);

  // Perturbation skew is added to the raw cost, *before* the FIFO clamp
  // below — so exploration can reorder deliveries on distinct channels but
  // never violate the model's per-channel FIFO guarantee.
  const sim::Time cost =
      model_.cost(m.wire_size(), m.src == m.dst, rng_) + perturb_.skew();
  // FIFO per ordered pair: never deliver before an earlier message on the
  // same channel. Strictly-after (+1ns) keeps same-channel deliveries at
  // distinct times, which makes traces easier to read.
  sim::Time& next = channel_next_[static_cast<std::size_t>(m.src) * handlers_.size() +
                                  static_cast<std::size_t>(m.dst)];
  const sim::Time deliver_at = std::max(engine_.now() + cost, next);
  next = deliver_at + 1;

  if (tap_) tap_(engine_.now(), deliver_at, m);

  if (!fault_.wire_enabled()) {
    // Perfect ordered wire: the original model, bit-identical to a fabric
    // built without a plan.
    engine_.schedule_at(deliver_at, [this, m = std::move(m)]() { deliver(m); });
    return deliver_at;
  }

  // Reliable transport: the first attempt keeps the exact cost computed
  // above (same primary-stream draws, same FIFO clamp), so a plan with zero
  // fault rates reproduces the perfect wire's logical schedule exactly.
  // The returned time models the first transmission's occupancy (Fig. 3);
  // if a fault swallows that attempt, the actual delivery happens on a
  // retransmission.
  auto& sender = senders_[std::make_pair(m.src, m.dst)];
  m.transport_seq = sender.assign_seq();
  launch(m, 1, deliver_at);
  sender.register_send(std::move(m), engine_.now());
  return deliver_at;
}

bool SimFabric::blacked_out(Rank src, Rank dst, sim::Time t) const {
  for (const auto& p : fault_.partitions) {
    if (p.covers(src, dst, t)) return true;
  }
  for (const auto& c : fault_.crashes) {
    if (c.covers(src, t) || c.covers(dst, t)) return true;
  }
  return false;
}

void SimFabric::launch(const Message& m, int attempt, sim::Time arrive_at) {
  // The transmission's fate, drawn from the dedicated fault stream in a
  // fixed per-plan order (one draw per configured rate).
  auto roll = [this](std::uint32_t ppm) {
    return ppm > 0 && fault_rng_.below(1'000'000) < ppm;
  };
  const bool dropped = roll(fault_.drop_ppm);
  const bool duplicated = roll(fault_.dup_ppm);
  const bool corrupted = roll(fault_.corrupt_ppm);
  sim::Time extra = 0;
  if (roll(fault_.delay_ppm)) {
    const auto span =
        static_cast<std::uint64_t>(fault_.delay_max_ns - fault_.delay_min_ns) + 1;
    extra = fault_.delay_min_ns + static_cast<sim::Time>(fault_rng_.below(span));
  }

  if (dropped) {
    counters_.faults_injected += 1;
  } else {
    const sim::Time at = arrive_at + extra;
    engine_.schedule_at(at, [this, m, corrupted]() { on_wire_arrival(m, corrupted); });
    if (duplicated) {
      // An identical wire copy (same seq) lands shortly after — the
      // receiver window must suppress it.
      const sim::Time echo = at + 1 + static_cast<sim::Time>(fault_rng_.below(1'000));
      engine_.schedule_at(echo, [this, m]() { on_wire_arrival(m, false); });
    }
  }

  // Retransmit timer: a no-op if the ack lands first.
  engine_.schedule_after(
      fault_.retry.backoff(attempt),
      [this, key = std::make_pair(m.src, m.dst), seq = m.transport_seq, attempt]() {
        on_retry_timer(key, seq, attempt);
      });
}

void SimFabric::on_wire_arrival(Message m, bool corrupted) {
  const sim::Time now = engine_.now();
  if (blacked_out(m.src, m.dst, now)) {
    counters_.faults_injected += 1;  // swallowed by a partition/crash window.
    return;
  }
  if (corrupted) {
    counters_.faults_injected += 1;  // receiver-side integrity check discards;
    return;                          // no ack, so the sender retransmits.
  }
  const Rank src = m.src;
  const Rank dst = m.dst;
  const std::uint64_t seq = m.transport_seq;
  auto& receiver = receivers_[std::make_pair(src, dst)];
  switch (receiver.classify(seq)) {
    case ReceiverWindow::Action::kDuplicate:
      counters_.duplicates_suppressed += 1;
      break;  // re-ack below: the previous ack may have been lost.
    case ReceiverWindow::Action::kBuffer:
      receiver.buffer(std::move(m));
      break;  // acked now — it is safely stored; delivery waits for the gap.
    case ReceiverWindow::Action::kDeliver:
      for (const auto& ready : receiver.deliver(std::move(m))) deliver(ready);
      break;
  }
  send_ack(src, dst, seq);
}

void SimFabric::send_ack(Rank data_src, Rank data_dst, std::uint64_t seq) {
  counters_.acks_sent += 1;
  // Acks ride the fault plane too (loss + blackout; they carry no payload,
  // so no corruption/duplication), at a fixed no-jitter cost — transport
  // bookkeeping must not consume primary-stream draws.
  if (fault_.drop_ppm > 0 && fault_rng_.below(1'000'000) < fault_.drop_ppm) {
    counters_.faults_injected += 1;
    return;
  }
  const sim::Time cost = data_src == data_dst ? model_.loopback_ns : model_.base_ns;
  const sim::Time at = engine_.now() + cost;
  if (blacked_out(data_dst, data_src, at)) {
    counters_.faults_injected += 1;
    return;
  }
  engine_.schedule_at(at, [this, key = std::make_pair(data_src, data_dst), seq]() {
    const auto it = senders_.find(key);
    if (it != senders_.end()) it->second.ack(seq);
  });
}

void SimFabric::on_retry_timer(LinkKey key, std::uint64_t seq, int attempt) {
  (void)attempt;  // the pending entry's own count is authoritative.
  const auto it = senders_.find(key);
  if (it == senders_.end()) return;
  SenderWindow::Pending* pending = it->second.find(seq);
  if (pending == nullptr) return;  // acked in the meantime.
  if (pending->attempts >= fault_.retry.max_attempts) {
    counters_.undeliverable_messages += 1;
    it->second.give_up(seq);
    return;
  }
  pending->attempts += 1;
  counters_.retry_messages += 1;
  counters_.retry_bytes += pending->msg.wire_size();
  // Retransmissions cost base + bandwidth + jitter like any transmission,
  // but the jitter draw comes from the fault stream and the FIFO clamp is
  // bypassed — the receiver window restores ordering, and the primary
  // streams must stay untouched.
  const sim::Time cost = model_.cost(pending->msg.wire_size(),
                                     pending->msg.src == pending->msg.dst, fault_rng_);
  launch(pending->msg, pending->attempts, engine_.now() + cost);
}

void SimFabric::deliver(const Message& m) {
  const auto& handler = handlers_[static_cast<std::size_t>(m.dst)];
  DSMR_CHECK_MSG(handler, "message to rank " << m.dst << " with no attached NIC");
  handler(m);
}

std::vector<LinkDiagnostic> SimFabric::unacked() const {
  std::vector<LinkDiagnostic> out;
  auto add = [&out](const LinkKey& key, const SenderWindow::Pending& p, bool gave_up) {
    out.push_back(LinkDiagnostic{key.first, key.second, p.msg.transport_seq,
                                 p.msg.type, p.msg.op_id, p.attempts, p.first_sent,
                                 gave_up});
  };
  for (const auto& [key, sender] : senders_) {
    for (const auto& [seq, p] : sender.pending()) add(key, p, false);
    for (const auto& p : sender.dead_letters()) add(key, p, true);
  }
  std::sort(out.begin(), out.end(), [](const LinkDiagnostic& a, const LinkDiagnostic& b) {
    return a.first_sent != b.first_sent ? a.first_sent < b.first_sent : a.seq < b.seq;
  });
  return out;
}

}  // namespace dsmr::net
