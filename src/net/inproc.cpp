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
  if (maxQueueDepth_ > 0 && mailboxes_[to].queue.size() >= maxQueueDepth_) {
    throw OverloadError("InProcTransport: mailbox " + std::to_string(to) +
                            " is full (" +
                            std::to_string(mailboxes_[to].queue.size()) +
                            " envelopes)",
                        std::chrono::milliseconds(1));
  }
  Mailbox& box = mailboxes_[to];
  box.queue.push_back(Envelope{from, to, payload});
  ++messagesSent_;
  bytesSent_ += payload.size();
  metricMessagesSent_.inc();
  metricBytesSent_.inc(payload.size());
  metricQueueDepth_.add(1);
  lock.unlock();
  box.cv.notify_one();
}

std::optional<Envelope> InProcTransport::receive(
    NodeId node, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  if (node >= mailboxes_.size()) {
    throw TransportError("InProcTransport: unknown node " +
                         std::to_string(node));
  }
  auto& box = mailboxes_[node];
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
  metricMessagesReceived_.inc();
  metricBytesReceived_.inc(env.payload.size());
  return env;
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

std::size_t InProcTransport::messagesSent() const {
  std::unique_lock lock(mutex_);
  return messagesSent_;
}

std::size_t InProcTransport::bytesSent() const {
  std::unique_lock lock(mutex_);
  return bytesSent_;
}

}  // namespace privtopk::net
