// Unit tests for the simulated fabric: latency model, FIFO channels,
// traffic accounting.
#include <gtest/gtest.h>

#include <vector>

#include "net/message.hpp"
#include "net/sim_fabric.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace dsmr::net {
namespace {

Message make_msg(MsgType type, Rank src, Rank dst, std::size_t payload = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.data.assign(payload, std::byte{0});
  return m;
}

TEST(LatencyModel, CostGrowsWithSize) {
  LatencyModel model;
  model.jitter_ns = 0;
  util::Rng rng(1);
  const auto small = model.cost(64, false, rng);
  const auto large = model.cost(1 << 20, false, rng);
  EXPECT_GT(large, small);
}

TEST(LatencyModel, LoopbackIsCheaper) {
  LatencyModel model;
  model.jitter_ns = 0;
  util::Rng rng(1);
  EXPECT_LT(model.cost(64, true, rng), model.cost(64, false, rng));
}

TEST(SimFabric, DeliversToAttachedHandler) {
  sim::Engine engine;
  SimFabric fabric(engine, 2, LatencyModel{}, 42);
  std::vector<Message> received;
  fabric.attach(1, [&](const Message& m) { received.push_back(m); });
  engine.schedule_at(0, [&] { fabric.send(make_msg(MsgType::kSignal, 0, 1, 16)); });
  engine.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].src, 0);
  EXPECT_EQ(received[0].data.size(), 16u);
  EXPECT_GT(engine.now(), 0u);
}

TEST(SimFabric, FifoPerChannelEvenWithJitter) {
  sim::Engine engine;
  LatencyModel model;
  model.jitter_ns = 5000;  // jitter larger than the base gap between sends.
  SimFabric fabric(engine, 2, model, 7);
  std::vector<std::uint64_t> received;
  fabric.attach(1, [&](const Message& m) { received.push_back(m.op_id); });
  engine.schedule_at(0, [&] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      Message m = make_msg(MsgType::kSignal, 0, 1);
      m.op_id = i;
      fabric.send(std::move(m));
    }
  });
  engine.run();
  ASSERT_EQ(received.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(received[i], i);
}

TEST(SimFabric, IndependentChannelsMayInterleave) {
  sim::Engine engine;
  SimFabric fabric(engine, 3, LatencyModel{}, 3);
  int received = 0;
  fabric.attach(2, [&](const Message&) { ++received; });
  engine.schedule_at(0, [&] {
    fabric.send(make_msg(MsgType::kSignal, 0, 2));
    fabric.send(make_msg(MsgType::kSignal, 1, 2));
  });
  engine.run();
  EXPECT_EQ(received, 2);
}

TEST(SimFabric, SendReturnsDeliveryTime) {
  sim::Engine engine;
  SimFabric fabric(engine, 2, LatencyModel{}, 5);
  sim::Time promised = 0;
  sim::Time actual = 0;
  fabric.attach(1, [&](const Message&) { actual = engine.now(); });
  engine.schedule_at(0, [&] { promised = fabric.send(make_msg(MsgType::kSignal, 0, 1)); });
  engine.run();
  EXPECT_EQ(promised, actual);
}

TEST(SimFabric, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine engine;
    SimFabric fabric(engine, 4, LatencyModel{}, 99);
    std::vector<std::pair<sim::Time, std::uint64_t>> trace;
    for (Rank r = 0; r < 4; ++r) {
      fabric.attach(r, [&trace, &engine](const Message& m) {
        trace.emplace_back(engine.now(), m.op_id);
      });
    }
    engine.schedule_at(0, [&] {
      for (std::uint64_t i = 0; i < 32; ++i) {
        Message m = make_msg(MsgType::kSignal, static_cast<Rank>(i % 4),
                             static_cast<Rank>((i + 1) % 4));
        m.op_id = i;
        fabric.send(std::move(m));
      }
    });
    engine.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(TrafficCounters, CountsMessagesBytesAndDataPath) {
  sim::Engine engine;
  SimFabric fabric(engine, 2, LatencyModel{}, 1);
  fabric.attach(1, [](const Message&) {});
  engine.schedule_at(0, [&] {
    fabric.send(make_msg(MsgType::kPutData, 0, 1, 100));   // data-path
    fabric.send(make_msg(MsgType::kLockRequest, 0, 1));    // control
  });
  engine.run();
  const auto& counters = fabric.counters();
  EXPECT_EQ(counters.total_messages, 2u);
  EXPECT_EQ(counters.data_path_messages, 1u);
  EXPECT_EQ(counters.payload_bytes, 100u);
  EXPECT_EQ(counters.messages_by_type.at(MsgType::kPutData), 1u);
  EXPECT_GT(counters.total_bytes, 100u);  // headers included.
}

TEST(TrafficCounters, ClockBytesChargedOnlyWhenOnWire) {
  sim::Engine engine;
  SimFabric fabric(engine, 2, LatencyModel{}, 1);
  fabric.attach(1, [](const Message&) {});
  std::size_t clock_wire = 0;
  engine.schedule_at(0, [&] {
    Message charged = make_msg(MsgType::kPutCommit, 0, 1);
    charged.clock = clocks::VectorClock(4);
    charged.clocks_on_wire = true;
    Message uncharged = make_msg(MsgType::kPutCommit, 0, 1);
    uncharged.clock = clocks::VectorClock(4);
    uncharged.clocks_on_wire = false;
    clock_wire = charged.clock.wire_size();
    const std::size_t w1 = charged.wire_size();
    const std::size_t w2 = uncharged.wire_size();
    EXPECT_EQ(w1, w2 + clock_wire);
    fabric.send(std::move(charged));
    fabric.send(std::move(uncharged));
  });
  engine.run();
  EXPECT_GT(clock_wire, 0u);  // the scheduled lambda actually ran.
  EXPECT_EQ(fabric.counters().clock_bytes, clock_wire);
}

clocks::VectorClock random_clock(util::Rng& rng, std::size_t n) {
  clocks::VectorClock clock(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix one-byte and multi-byte LEB128 components.
    clock[i] = rng.below(2) == 0 ? rng.below(128) : rng.below(std::uint64_t{1} << 40);
  }
  return clock;
}

TEST(TrafficCounters, RecordShapeChargesExactlyWhatRecordCharges) {
  util::Rng rng(12);
  TrafficCounters by_message;
  TrafficCounters by_shape;
  for (int i = 0; i < 2'000; ++i) {
    Message m = make_msg(static_cast<MsgType>(rng.below(kMsgTypeCount)), 0, 1,
                         static_cast<std::size_t>(rng.below(300)));
    const std::size_t n = static_cast<std::size_t>(rng.below(9));
    m.clock = random_clock(rng, n);
    switch (rng.below(4)) {
      case 0:  // single clock.
        break;
      case 1:  // dual-clock reply: W delta-encoded against V.
        m.clock2 = m.clock;
        if (n > 0) m.clock2[static_cast<std::size_t>(rng.below(n))] += 1 + rng.below(1'000);
        break;
      case 2:  // two unrelated clocks of the same width.
        m.clock2 = random_clock(rng, n);
        break;
      default:  // second clock of a different width: charged plain.
        m.clock2 = random_clock(rng, n + 1);
        break;
    }
    m.clocks_on_wire = rng.below(4) != 0;
    by_message.record(m);
    by_shape.record_shape(m.type, m.data.size(), m.charged_clock_bytes());
    ASSERT_EQ(by_shape.total_bytes, by_message.total_bytes) << m.describe();
  }
  for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
    const auto type = static_cast<MsgType>(t);
    EXPECT_EQ(by_shape.messages_by_type.at(type), by_message.messages_by_type.at(type))
        << to_string(type);
  }
  EXPECT_EQ(by_shape.total_messages, by_message.total_messages);
  EXPECT_EQ(by_shape.total_bytes, by_message.total_bytes);
  EXPECT_EQ(by_shape.payload_bytes, by_message.payload_bytes);
  EXPECT_EQ(by_shape.clock_bytes, by_message.clock_bytes);
  EXPECT_EQ(by_shape.data_path_messages, by_message.data_path_messages);
  EXPECT_GT(by_message.clock_bytes, 0u);
}

TEST(Message, DescribeIsHumanReadable) {
  Message m = make_msg(MsgType::kGetRequest, 2, 1);
  m.op_id = 9;
  const std::string text = m.describe();
  EXPECT_NE(text.find("GET_REQ"), std::string::npos);
  EXPECT_NE(text.find("P2->P1"), std::string::npos);
}

TEST(Message, DataPathClassificationMatchesFigure2) {
  // Fig. 2: put involves one message, get involves two.
  EXPECT_TRUE(is_data_path(MsgType::kPutData));
  EXPECT_TRUE(is_data_path(MsgType::kGetRequest));
  EXPECT_TRUE(is_data_path(MsgType::kGetResponse));
  EXPECT_FALSE(is_data_path(MsgType::kPutAck));
  EXPECT_FALSE(is_data_path(MsgType::kLockRequest));
  EXPECT_FALSE(is_data_path(MsgType::kClockFetch));
}

}  // namespace
}  // namespace dsmr::net
