#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {
namespace {

using namespace std::chrono_literals;

Bytes bytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------------------
// InProcTransport
// ---------------------------------------------------------------------------

TEST(InProcTransport, DeliversInOrder) {
  InProcTransport t(3);
  t.send(0, 1, bytesOf("first"));
  t.send(0, 1, bytesOf("second"));
  const auto m1 = t.receive(1, 100ms);
  const auto m2 = t.receive(1, 100ms);
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->payload, bytesOf("first"));
  EXPECT_EQ(m2->payload, bytesOf("second"));
  EXPECT_EQ(m1->from, 0u);
  EXPECT_EQ(m1->to, 1u);
}

TEST(InProcTransport, TimeoutReturnsNullopt) {
  InProcTransport t(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(t.receive(0, 30ms), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
}

TEST(InProcTransport, SeparateMailboxes) {
  InProcTransport t(3);
  t.send(0, 1, bytesOf("for one"));
  t.send(0, 2, bytesOf("for two"));
  EXPECT_EQ(t.receive(2, 100ms)->payload, bytesOf("for two"));
  EXPECT_EQ(t.receive(1, 100ms)->payload, bytesOf("for one"));
}

TEST(InProcTransport, UnknownDestinationThrows) {
  InProcTransport t(2);
  EXPECT_THROW(t.send(0, 9, bytesOf("x")), TransportError);
  EXPECT_THROW((void)t.receive(9, 1ms), TransportError);
}

TEST(InProcTransport, CrossThreadDelivery) {
  InProcTransport t(2);
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      t.send(0, 1, bytesOf("msg" + std::to_string(i)));
    }
  });
  int received = 0;
  while (received < 100) {
    if (t.receive(1, 1000ms)) ++received;
  }
  producer.join();
  EXPECT_EQ(received, 100);
}

TEST(InProcTransport, ShutdownWakesReceivers) {
  InProcTransport t(2);
  std::atomic<bool> woke{false};
  std::thread blocked([&] {
    (void)t.receive(1, 10s);
    woke = true;
  });
  std::this_thread::sleep_for(50ms);
  t.shutdown();
  blocked.join();
  EXPECT_TRUE(woke);
  EXPECT_THROW(t.send(0, 1, bytesOf("x")), TransportError);
}

TEST(InProcTransport, CountsMessagesAndBytes) {
  InProcTransport t(2);
  t.send(0, 1, bytesOf("12345"));
  t.send(1, 0, bytesOf("123"));
  EXPECT_EQ(t.messagesSent(), 2u);
  EXPECT_EQ(t.bytesSent(), 8u);
}

TEST(InProcTransport, FullInboxCountsOverloadRejected) {
  // A send refused by a full inbox surfaces OverloadError and ticks the
  // same counter as TCP write-queue backpressure, under the inproc label.
  const obs::Counter& rejected = obs::counter(
      "privtopk.transport.overload_rejected", {{"transport", "inproc"}});
  const std::uint64_t before = rejected.value();
  InProcTransport t(2, 1);
  t.send(0, 1, bytesOf("a"));
  EXPECT_THROW(t.send(0, 1, bytesOf("b")), OverloadError);
  EXPECT_THROW(t.send(0, 1, bytesOf("c")), OverloadError);
  EXPECT_EQ(rejected.value(), before + 2);
  // Draining the inbox makes room again; an accepted send counts nothing.
  ASSERT_TRUE(t.receive(1, 10ms).has_value());
  t.send(0, 1, bytesOf("d"));
  EXPECT_EQ(rejected.value(), before + 2);
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

/// Reserves `count` distinct free localhost ports by holding ephemeral
/// listeners open simultaneously, then releasing them.  SO_REUSEADDR lets
/// the real transports rebind immediately.
std::vector<std::uint16_t> reservePorts(std::size_t count) {
  std::vector<std::unique_ptr<TcpTransport>> probes;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    probes.push_back(std::make_unique<TcpTransport>(
        0, std::vector<TcpPeer>{{0, "127.0.0.1", 0}}));
    ports.push_back(probes.back()->listenPort());
  }
  for (auto& p : probes) p->shutdown();
  return ports;
}

struct TcpPair {
  std::unique_ptr<TcpTransport> a;
  std::unique_ptr<TcpTransport> b;
};

TcpPair makeTcpPair(TcpOptions options = {}) {
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  return TcpPair{std::make_unique<TcpTransport>(0, peers, options),
                 std::make_unique<TcpTransport>(1, peers, options)};
}

TEST(TcpTransport, PlaintextDelivery) {
  auto pair = makeTcpPair();
  pair.a->send(0, 1, bytesOf("hello over tcp"));
  const auto env = pair.b->receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("hello over tcp"));
  EXPECT_EQ(env->from, 0u);
}

TEST(TcpTransport, ManyMessagesOrdered) {
  auto pair = makeTcpPair();
  for (int i = 0; i < 200; ++i) {
    pair.a->send(0, 1, bytesOf("m" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    const auto env = pair.b->receive(1, 5000ms);
    ASSERT_TRUE(env) << "message " << i;
    EXPECT_EQ(env->payload, bytesOf("m" + std::to_string(i)));
  }
}

TEST(TcpTransport, LargePayload) {
  auto pair = makeTcpPair();
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  pair.a->send(0, 1, big);
  const auto env = pair.b->receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, big);
}

TEST(TcpTransport, EncryptedDelivery) {
  TcpOptions options;
  options.encrypt = true;
  options.keySeed = 1234;
  auto pair = makeTcpPair(options);
  pair.a->send(0, 1, bytesOf("secret token"));
  const auto env = pair.b->receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("secret token"));
  // And several follow-ups on the same session.
  for (int i = 0; i < 10; ++i) {
    pair.a->send(0, 1, bytesOf("n" + std::to_string(i)));
    const auto e = pair.b->receive(1, 5000ms);
    ASSERT_TRUE(e);
    EXPECT_EQ(e->payload, bytesOf("n" + std::to_string(i)));
  }
}

TEST(TcpTransport, BidirectionalTraffic) {
  auto pair = makeTcpPair();
  pair.a->send(0, 1, bytesOf("ping"));
  ASSERT_TRUE(pair.b->receive(1, 5000ms));
  pair.b->send(1, 0, bytesOf("pong"));
  const auto env = pair.a->receive(0, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("pong"));
}

TEST(TcpTransport, SendAsOtherNodeRejected) {
  auto pair = makeTcpPair();
  EXPECT_THROW(pair.a->send(1, 0, bytesOf("spoof")), TransportError);
  EXPECT_THROW((void)pair.a->receive(1, 1ms), TransportError);
}

TEST(TcpTransport, UnknownPeerRejected) {
  auto pair = makeTcpPair();
  EXPECT_THROW(pair.a->send(0, 7, bytesOf("x")), TransportError);
}

TEST(TcpTransport, TrafficCounters) {
  auto pair = makeTcpPair();
  pair.a->send(0, 1, bytesOf("12345"));
  pair.a->send(0, 1, bytesOf("123"));
  ASSERT_TRUE(pair.b->receive(1, 5000ms));
  ASSERT_TRUE(pair.b->receive(1, 5000ms));
  EXPECT_EQ(pair.a->messagesSent(), 2u);
  EXPECT_EQ(pair.a->bytesSent(), 8u);
  EXPECT_EQ(pair.b->messagesReceived(), 2u);
  EXPECT_EQ(pair.b->bytesReceived(), 8u);
  EXPECT_EQ(pair.a->messagesReceived(), 0u);
}

TEST(TcpTransport, ShutdownIsIdempotent) {
  auto pair = makeTcpPair();
  pair.a->shutdown();
  pair.a->shutdown();
  EXPECT_THROW(pair.a->send(0, 1, bytesOf("x")), TransportError);
}

}  // namespace
}  // namespace privtopk::net
