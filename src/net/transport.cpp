#include "net/transport.hpp"

#include <condition_variable>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace privtopk::net {

namespace {

/// How long one pump poll blocks in receive(); also bounds how long
/// unsubscribe() waits for a pump that is inside receive().
constexpr std::chrono::milliseconds kPumpPoll{50};

}  // namespace

/// One node's polling adapter: a thread that moves envelopes from
/// receive() into the handler until unsubscribe() stops it.
struct Transport::Pump {
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;  // guarded by mutex
  std::thread thread;

  ~Pump() {
    {
      std::scoped_lock lock(mutex);
      stop = true;
    }
    cv.notify_all();
    if (thread.joinable()) thread.join();
  }

  void run(Transport& transport, NodeId node, const DeliveryHandler& handler) {
    std::unique_lock lock(mutex);
    while (!stop) {
      lock.unlock();
      const auto polledAt = std::chrono::steady_clock::now();
      std::optional<Envelope> envelope;
      try {
        envelope = transport.receive(node, kPumpPoll);
      } catch (const Error& e) {
        // receive() throws only for a node the transport cannot serve at
        // all; no later poll would succeed either.
        PRIVTOPK_LOG_ERROR_C("transport", "delivery pump for node ", node,
                             " stopped: ", e.what());
        return;
      }
      if (envelope) handler(std::move(*envelope));
      lock.lock();
      // A receive() that came back empty before its timeout (a shut-down
      // transport returns at once) must not turn this loop into a spin:
      // sit out the rest of the poll interval, or until unsubscribed.
      if (!envelope) {
        cv.wait_until(lock, polledAt + kPumpPoll, [this] { return stop; });
      }
    }
  }
};

Transport::Transport() = default;

Transport::~Transport() {
  std::scoped_lock lock(pumpsMutex_);
  pumps_.clear();
}

void Transport::subscribe(NodeId node, DeliveryHandler handler) {
  std::scoped_lock lock(pumpsMutex_);
  if (pumps_.contains(node)) {
    throw TransportError("node " + std::to_string(node) +
                         " is already subscribed");
  }
  auto pump = std::make_unique<Pump>();
  Pump* raw = pump.get();
  raw->thread = std::thread([this, raw, node, h = std::move(handler)] {
    raw->run(*this, node, h);
  });
  pumps_.emplace(node, std::move(pump));
}

void Transport::unsubscribe(NodeId node) {
  std::unique_ptr<Pump> pump;
  {
    std::scoped_lock lock(pumpsMutex_);
    const auto it = pumps_.find(node);
    if (it == pumps_.end()) return;
    pump = std::move(it->second);
    pumps_.erase(it);
  }
  pump.reset();  // stops and joins outside pumpsMutex_
}

}  // namespace privtopk::net
