// Transport conformance suite: the behavioural contract NodeService
// depends on, run against both base transports (in-process inboxes and
// the epoll TCP reactor), the fault-injection decorator and a poll-only
// decorator, so the fast tests, the socket tests and the wrappers cannot
// drift apart:
//   - per-link FIFO ordering under load,
//   - saturation surfaces OverloadError (backpressure) and the link
//     recovers once drained,
//   - shutdown concurrent with a sending thread is clean (no hang, no
//     crash; post-shutdown sends throw TransportError),
//   - a shutdown wakeup is not counted as a receive timeout.
// The push-delivery suite (subscribe/unsubscribe) runs over the same four:
// the base transports and the fault decorator push through net::Inbox,
// and the poll-only decorator goes through Transport's default pump.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {
namespace {

using namespace std::chrono_literals;

Bytes bytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Reserves `count` distinct free localhost ports (see transport_test.cpp).
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

/// Implements only send, receive and shutdown, so subscribe() runs
/// Transport's default polling pump over the wrapped transport.
class PollOnlyTransport final : public Transport {
 public:
  explicit PollOnlyTransport(Transport& inner) : inner_(&inner) {}

  void send(NodeId from, NodeId to, const Bytes& payload) override {
    inner_->send(from, to, payload);
  }
  [[nodiscard]] std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override {
    return inner_->receive(node, timeout);
  }
  void shutdown() override { inner_->shutdown(); }

 private:
  Transport* inner_;
};

class TransportConformance : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::string variant() const { return GetParam(); }
  [[nodiscard]] bool usesTcp() const {
    return variant() == "tcp";
  }

  /// Builds a two-node deployment.  `saturable` configures bounds tight
  /// enough that a burst of large sends hits backpressure: a tiny inbox
  /// for inproc, a short write queue over a tiny socket buffer for TCP.
  void makePair(bool saturable = false) {
    if (usesTcp()) {
      const auto ports = reservePorts(2);
      peers_ = {{0, "127.0.0.1", ports[0]}, {1, "127.0.0.1", ports[1]}};
      TcpOptions options;
      options.connectTimeout = 2000ms;
      if (saturable) {
        options.maxQueuedFramesPerPeer = 4;
        options.sendBufferBytes = 4096;
      }
      tcp0_ = std::make_unique<TcpTransport>(0, peers_, options);
      tcp1_ = std::make_unique<TcpTransport>(1, peers_, options);
    } else {
      inproc_ = std::make_unique<InProcTransport>(2, saturable ? 4 : 0);
    }
    // A real (if tiny) fault delay so the fault path is exercised, not
    // just passed through.
    if (variant() == "fault") {
      wrapper_ = std::make_unique<FaultInjectingTransport>(
          *inproc_, FaultSpec::parse("delay:0->1:1"));
    } else if (variant() == "poll") {
      wrapper_ = std::make_unique<PollOnlyTransport>(*inproc_);
    }
  }

  Transport& node0() {
    if (wrapper_) return *wrapper_;
    return inproc_ ? static_cast<Transport&>(*inproc_)
                   : static_cast<Transport&>(*tcp0_);
  }
  Transport& node1() {
    if (wrapper_) return *wrapper_;
    return inproc_ ? static_cast<Transport&>(*inproc_)
                   : static_cast<Transport&>(*tcp1_);
  }

  /// The metric labels of the base transport under the variant.
  [[nodiscard]] obs::Labels labels() const {
    return {{"transport", usesTcp() ? "tcp" : "inproc"}};
  }

  void shutdownAll() {
    if (wrapper_) wrapper_->shutdown();
    if (inproc_) inproc_->shutdown();
    if (tcp0_) tcp0_->shutdown();
    if (tcp1_) tcp1_->shutdown();
  }

  void TearDown() override { shutdownAll(); }

  std::vector<TcpPeer> peers_;
  // Inners declared before the decorator: it references the inner, so it
  // must be destroyed first (reverse order).
  std::unique_ptr<InProcTransport> inproc_;
  std::unique_ptr<TcpTransport> tcp0_, tcp1_;
  std::unique_ptr<Transport> wrapper_;  // fault or poll-only decorator
};

TEST_P(TransportConformance, PerLinkOrderingUnderLoad) {
  makePair();
  constexpr int kMessages = 300;
  for (int i = 0; i < kMessages; ++i) {
    node0().send(0, 1, bytesOf("msg" + std::to_string(i)));
  }
  for (int i = 0; i < kMessages; ++i) {
    const auto env = node1().receive(1, 5000ms);
    ASSERT_TRUE(env) << "message " << i << " never arrived";
    EXPECT_EQ(env->payload, bytesOf("msg" + std::to_string(i)));
    EXPECT_EQ(env->from, 0u);
  }
}

TEST_P(TransportConformance, SaturationSurfacesOverloadAndRecovers) {
  makePair(/*saturable=*/true);
  // Large frames so the TCP reactor cannot outrun the sender through the
  // shrunken socket buffer; small enough that inproc copies stay cheap.
  const Bytes big(256 * 1024, 0xAB);

  bool overloaded = false;
  int accepted = 0;
  for (int i = 0; i < 200 && !overloaded; ++i) {
    try {
      node0().send(0, 1, big);
      ++accepted;
    } catch (const OverloadError&) {
      overloaded = true;
    }
  }
  EXPECT_TRUE(overloaded) << "no backpressure after 200 sends";

  // Backpressure is not link death: draining the receiver unsticks the
  // link and later sends succeed.
  for (int i = 0; i < accepted; ++i) {
    ASSERT_TRUE(node1().receive(1, 5000ms)) << "drain " << i;
  }
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    try {
      node0().send(0, 1, bytesOf("after the storm"));
      recovered = true;
    } catch (const OverloadError&) {
      std::this_thread::sleep_for(10ms);  // queue still draining
    }
  }
  ASSERT_TRUE(recovered);
  const auto env = node1().receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("after the storm"));
}

TEST_P(TransportConformance, ShutdownMidSendIsClean) {
  makePair();
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    const Bytes payload(1024, 0x5A);
    while (!stop.load()) {
      try {
        node0().send(0, 1, payload);
      } catch (const Error&) {
        // TransportError after shutdown / OverloadError under burst: both
        // acceptable; the thread must simply keep running.
      }
    }
  });
  std::this_thread::sleep_for(50ms);
  shutdownAll();  // concurrent with the sender thread
  stop = true;
  sender.join();

  EXPECT_THROW(node0().send(0, 1, bytesOf("late")), TransportError);
  EXPECT_EQ(node1().receive(1, 10ms), std::nullopt);
}

TEST_P(TransportConformance, ShutdownWakeupIsNotCountedAsTimeout) {
  makePair();
  const auto& timeouts =
      obs::counter("privtopk.transport.receive_timeouts", labels());

  // A genuine deadline miss increments the metric...
  const std::uint64_t before = timeouts.value();
  EXPECT_EQ(node1().receive(1, 10ms), std::nullopt);
  EXPECT_EQ(timeouts.value(), before + 1);

  // ...but a shutdown wakeup must not.
  std::atomic<bool> woke{false};
  std::thread blocked([&] {
    (void)node1().receive(1, 10s);
    woke = true;
  });
  std::this_thread::sleep_for(50ms);
  const std::uint64_t beforeShutdown = timeouts.value();
  shutdownAll();
  blocked.join();
  EXPECT_TRUE(woke);
  EXPECT_EQ(timeouts.value(), beforeShutdown);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         ::testing::Values("inproc", "tcp", "fault", "poll"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Push delivery (Transport::subscribe)
// ---------------------------------------------------------------------------

/// Gathers pushed envelopes for the test thread.
class Collector {
 public:
  DeliveryHandler handler() {
    return [this](Envelope&& env) {
      {
        std::scoped_lock lock(mutex_);
        envelopes_.push_back(std::move(env));
      }
      cv_.notify_all();
    };
  }

  /// Waits until `count` envelopes arrived; false on timeout.
  bool waitFor(std::size_t count, std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, timeout,
                        [&] { return envelopes_.size() >= count; });
  }

  std::vector<Envelope> envelopes() {
    std::scoped_lock lock(mutex_);
    return envelopes_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Envelope> envelopes_;  // guarded by mutex_
};

std::chrono::nanoseconds processCpuTime() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

class PushDelivery : public TransportConformance {
 protected:
  // Unsubscribing first keeps every handler call ahead of the collector's
  // destruction, and a pump left running would poll a decorator past its
  // destructor.
  void TearDown() override {
    if (inproc_ || tcp1_) node1().unsubscribe(1);
    TransportConformance::TearDown();
  }

  Collector collector_;
};

TEST_P(PushDelivery, BacklogSentBeforeSubscribeArrivesFirstAndInOrder) {
  makePair();
  constexpr int kEach = 50;
  for (int i = 0; i < kEach; ++i) {
    node0().send(0, 1, bytesOf("pre" + std::to_string(i)));
  }
  if (usesTcp()) {
    // Let the whole backlog reach node 1's inbox before subscribing.
    for (int i = 0; i < 500 && tcp1_->messagesReceived() < kEach; ++i) {
      std::this_thread::sleep_for(10ms);
    }
    ASSERT_EQ(tcp1_->messagesReceived(), static_cast<std::size_t>(kEach));
  }
  node1().subscribe(1, collector_.handler());
  for (int i = 0; i < kEach; ++i) {
    node0().send(0, 1, bytesOf("post" + std::to_string(i)));
  }
  ASSERT_TRUE(collector_.waitFor(2 * kEach, 5000ms));
  const auto got = collector_.envelopes();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kEach));
  for (int i = 0; i < 2 * kEach; ++i) {
    const std::string want = i < kEach ? "pre" + std::to_string(i)
                                       : "post" + std::to_string(i - kEach);
    EXPECT_EQ(got[i].payload, bytesOf(want)) << "position " << i;
    EXPECT_EQ(got[i].from, 0u);
    EXPECT_EQ(got[i].to, 1u);
  }
}

TEST_P(PushDelivery, PerLinkFifoUnderConcurrentSenders) {
  makePair();
  node1().subscribe(1, collector_.handler());
  constexpr int kThreads = 4;
  constexpr int kEach = 150;
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        node0().send(0, 1,
                     bytesOf(std::to_string(t) + ":" + std::to_string(i)));
      }
    });
  }
  for (auto& sender : senders) sender.join();
  ASSERT_TRUE(collector_.waitFor(kThreads * kEach, 10'000ms));
  // Threads interleave, but each thread's own sends arrive in order.
  std::map<int, int> next;
  for (const Envelope& env : collector_.envelopes()) {
    const std::string text(env.payload.begin(), env.payload.end());
    const auto colon = text.find(':');
    const int thread = std::stoi(text.substr(0, colon));
    EXPECT_EQ(std::stoi(text.substr(colon + 1)), next[thread]++) << text;
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kEach);
}

TEST_P(PushDelivery, NoHandlerCallAfterUnsubscribeReturns) {
  makePair();
  std::atomic<bool> unsubscribed{false};
  std::atomic<int> calls{0};
  std::atomic<int> lateCalls{0};
  node1().subscribe(1, [&](Envelope&&) {
    if (unsubscribed.load()) ++lateCalls;
    ++calls;
    std::this_thread::sleep_for(200us);  // widen the in-handler window
    if (unsubscribed.load()) ++lateCalls;
  });
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    while (!stop.load()) {
      try {
        node0().send(0, 1, bytesOf("tick"));
      } catch (const OverloadError&) {
      }
      std::this_thread::sleep_for(100us);
    }
  });
  for (int i = 0; i < 500 && calls.load() < 20; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(calls.load(), 20);
  node1().unsubscribe(1);
  unsubscribed = true;
  std::this_thread::sleep_for(50ms);
  stop = true;
  sender.join();
  EXPECT_EQ(lateCalls.load(), 0);
  // Later traffic queues for receive() again.
  EXPECT_TRUE(node1().receive(1, 1000ms));
}

TEST_P(PushDelivery, UnsubscribeAfterShutdownIsPromptAndDoesNotSpin) {
  makePair();
  node1().subscribe(1, collector_.handler());
  shutdownAll();
  // A shut-down transport's receive() returns at once; a pump that polled
  // it back to back would burn a core for the whole window.
  const auto cpuBefore = processCpuTime();
  std::this_thread::sleep_for(300ms);
  EXPECT_LT(processCpuTime() - cpuBefore, 100ms);
  const auto start = std::chrono::steady_clock::now();
  node1().unsubscribe(1);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 500ms);
}

TEST_P(PushDelivery, MessagesReceivedCountsPushedEnvelopes) {
  makePair();
  const auto& received =
      obs::counter("privtopk.transport.messages_received", labels());
  const auto& depth = obs::gauge("privtopk.transport.queue_depth", labels());
  const std::uint64_t receivedBefore = received.value();
  const std::int64_t depthBefore = depth.value();
  node1().subscribe(1, collector_.handler());
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) node0().send(0, 1, bytesOf("count"));
  ASSERT_TRUE(collector_.waitFor(kMessages, 5000ms));
  EXPECT_EQ(received.value() - receivedBefore,
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(depth.value(), depthBefore);
}

INSTANTIATE_TEST_SUITE_P(Transports, PushDelivery,
                         ::testing::Values("inproc", "tcp", "fault", "poll"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace privtopk::net
