#include "net/inproc.hpp"

namespace privtopk::net {

namespace {
const obs::Labels kInProcLabels{{"transport", "inproc"}};
}  // namespace

InProcTransport::InProcTransport(std::size_t nodeCount,
                                 std::size_t maxQueueDepth)
    : mailboxes_(nodeCount), maxQueueDepth_(maxQueueDepth),
      metricMessagesSent_(
          obs::counter("privtopk.transport.messages_sent", kInProcLabels)),
      metricBytesSent_(
          obs::counter("privtopk.transport.bytes_sent", kInProcLabels)),
      metricMessagesReceived_(
          obs::counter("privtopk.transport.messages_received", kInProcLabels)),
      metricBytesReceived_(
          obs::counter("privtopk.transport.bytes_received", kInProcLabels)),
      metricSendErrors_(
          obs::counter("privtopk.transport.send_errors", kInProcLabels)),
      metricReceiveTimeouts_(
          obs::counter("privtopk.transport.receive_timeouts", kInProcLabels)),
      metricQueueDepth_(
          obs::gauge("privtopk.transport.queue_depth", kInProcLabels)) {}

void InProcTransport::send(NodeId from, NodeId to, const Bytes& payload) {
  std::unique_lock lock(mutex_);
  if (shutdown_) {
    metricSendErrors_.inc();
    throw TransportError("InProcTransport: shut down");
  }
  if (to >= mailboxes_.size()) {
    metricSendErrors_.inc();
    throw TransportError("InProcTransport: unknown destination " +
                         std::to_string(to));
  }
  Mailbox& box = mailboxes_[to];
  if (!box.pushing && maxQueueDepth_ > 0 &&
      box.queue.size() >= maxQueueDepth_) {
    throw OverloadError("InProcTransport: mailbox " + std::to_string(to) +
                            " is full (" + std::to_string(box.queue.size()) +
                            " envelopes)",
                        std::chrono::milliseconds(1));
  }
  ++messagesSent_;
  bytesSent_ += payload.size();
  metricMessagesSent_.inc();
  metricBytesSent_.inc(payload.size());
  if (box.pushing) {
    lock.unlock();
    push(box, Envelope{from, to, payload});
    return;
  }
  box.queue.push_back(Envelope{from, to, payload});
  metricQueueDepth_.add(1);
  lock.unlock();
  box.cv.notify_one();
}

void InProcTransport::push(Mailbox& box, Envelope&& env) {
  std::scoped_lock deliver(box.deliverMutex);
  if (box.handler) {
    countReceived(env);
    box.handler(std::move(env));
    return;
  }
  {
    std::scoped_lock lock(mutex_);
    if (shutdown_) return;
    box.queue.push_back(std::move(env));
    metricQueueDepth_.add(1);
  }
  box.cv.notify_one();
}

void InProcTransport::countReceived(const Envelope& env) {
  metricMessagesReceived_.inc();
  metricBytesReceived_.inc(env.payload.size());
}

std::optional<Envelope> InProcTransport::receive(
    NodeId node, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  auto& box = mailboxOf(node);
  const bool ready = box.cv.wait_for(lock, timeout, [&] {
    return shutdown_ || !box.queue.empty();
  });
  if (!ready || box.queue.empty()) {
    metricReceiveTimeouts_.inc();
    return std::nullopt;
  }
  Envelope env = std::move(box.queue.front());
  box.queue.pop_front();
  metricQueueDepth_.sub(1);
  countReceived(env);
  return env;
}

void InProcTransport::subscribe(NodeId node, DeliveryHandler handler) {
  Mailbox* box = &mailboxOf(node);
  std::scoped_lock deliver(box->deliverMutex);
  if (box->handler) {
    throw TransportError("InProcTransport: node " + std::to_string(node) +
                         " is already subscribed");
  }
  // Hand the backlog over first.  Sends that land meanwhile still queue
  // behind it; only once the mailbox is empty do they switch to pushing,
  // and those block on deliverMutex until the handler is installed.
  while (true) {
    std::deque<Envelope> backlog;
    {
      std::scoped_lock lock(mutex_);
      if (box->queue.empty()) {
        box->pushing = true;
        break;
      }
      backlog.swap(box->queue);
      metricQueueDepth_.sub(static_cast<std::int64_t>(backlog.size()));
    }
    for (Envelope& env : backlog) {
      countReceived(env);
      handler(std::move(env));
    }
  }
  box->handler = std::move(handler);
}

void InProcTransport::unsubscribe(NodeId node) {
  Mailbox* box = &mailboxOf(node);
  {
    std::scoped_lock lock(mutex_);
    box->pushing = false;
  }
  // Waits out a handler call in progress; a send that saw `pushing` and
  // arrives after this finds no handler and queues instead.
  std::scoped_lock deliver(box->deliverMutex);
  box->handler = nullptr;
}

void InProcTransport::shutdown() {
  std::unique_lock lock(mutex_);
  if (!shutdown_) {
    // Give discarded envelopes' contribution back to the shared gauge so
    // a transport restarted in the same process starts from level.
    std::size_t undelivered = 0;
    for (auto& box : mailboxes_) {
      undelivered += box.queue.size();
      box.queue.clear();
    }
    if (undelivered > 0) {
      metricQueueDepth_.sub(static_cast<std::int64_t>(undelivered));
    }
  }
  shutdown_ = true;
  for (auto& box : mailboxes_) box.cv.notify_all();
}

InProcTransport::Mailbox& InProcTransport::mailboxOf(NodeId node) {
  if (node >= mailboxes_.size()) {
    throw TransportError("InProcTransport: unknown node " +
                         std::to_string(node));
  }
  return mailboxes_[node];
}

std::size_t InProcTransport::messagesSent() const {
  std::unique_lock lock(mutex_);
  return messagesSent_;
}

std::size_t InProcTransport::bytesSent() const {
  std::unique_lock lock(mutex_);
  return bytesSent_;
}

}  // namespace privtopk::net
