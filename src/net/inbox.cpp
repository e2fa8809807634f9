#include "net/inbox.hpp"

#include <string>

#include "common/error.hpp"

namespace privtopk::net {

Inbox::Inbox(NodeId node, const obs::Labels& labels, std::size_t maxDepth)
    : node_(node), maxDepth_(maxDepth),
      metricMessagesReceived_(
          obs::counter("privtopk.transport.messages_received", labels)),
      metricBytesReceived_(
          obs::counter("privtopk.transport.bytes_received", labels)),
      metricReceiveTimeouts_(
          obs::counter("privtopk.transport.receive_timeouts", labels)),
      metricQueueDepth_(obs::gauge("privtopk.transport.queue_depth", labels)) {}

void Inbox::deliver(Envelope&& env) {
  const std::size_t bytes = env.payload.size();
  {
    std::scoped_lock deliver(deliverMutex_);
    if (handler_) {
      metricMessagesReceived_.inc();
      metricBytesReceived_.inc(bytes);
      handler_(std::move(env));
      return;
    }
    std::scoped_lock lock(mutex_);
    if (shutdown_) return;
    if (maxDepth_ > 0 && queue_.size() >= maxDepth_) {
      throw OverloadError("inbox of node " + std::to_string(node_) +
                              " is full (" + std::to_string(queue_.size()) +
                              " envelopes)",
                          std::chrono::milliseconds(1));
    }
    queue_.push_back(std::move(env));
    metricQueueDepth_.add(1);
    metricMessagesReceived_.inc();
    metricBytesReceived_.inc(bytes);
  }
  cv_.notify_one();
}

std::optional<Envelope> Inbox::receive(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  cv_.wait_for(lock, timeout, [&] { return shutdown_ || !queue_.empty(); });
  if (queue_.empty()) {
    // A shutdown wakeup is not a timeout; only count real deadline misses.
    if (!shutdown_) metricReceiveTimeouts_.inc();
    return std::nullopt;
  }
  Envelope env = std::move(queue_.front());
  queue_.pop_front();
  metricQueueDepth_.sub(1);
  return env;
}

void Inbox::subscribe(DeliveryHandler handler) {
  std::scoped_lock deliver(deliverMutex_);
  if (handler_) {
    throw TransportError("node " + std::to_string(node_) +
                         " is already subscribed");
  }
  // No delivery runs while deliverMutex_ is held, so the backlog reaches
  // the handler ahead of every later envelope.
  std::deque<Envelope> backlog;
  {
    std::scoped_lock lock(mutex_);
    backlog.swap(queue_);
    metricQueueDepth_.sub(static_cast<std::int64_t>(backlog.size()));
  }
  for (Envelope& env : backlog) handler(std::move(env));
  handler_ = std::move(handler);
}

void Inbox::unsubscribe() {
  std::scoped_lock deliver(deliverMutex_);
  handler_ = nullptr;
}

void Inbox::shutdown() {
  {
    // Discarded envelopes give their contribution back to the shared
    // gauge, so a transport restarted in the same process starts level.
    std::scoped_lock lock(mutex_);
    shutdown_ = true;
    metricQueueDepth_.sub(static_cast<std::int64_t>(queue_.size()));
    queue_.clear();
  }
  cv_.notify_all();
}

}  // namespace privtopk::net
