// In-process transport: one Inbox per node (net/inbox.hpp).  send() takes
// only the addressee's inbox locks, so sends to different nodes never
// contend.  Delivery is instantaneous and ordered per sender.
// A subscribed node's handler runs on the sending thread, so a message
// reaches the addressee with no thread hand-off at all; the inbox
// serializes handler calls, and a sender's next send starts only after its
// previous handler call returned, which keeps per-link FIFO order.
// An optional per-inbox depth cap turns a send to a saturated node into
// OverloadError, matching the TCP transport's write-queue backpressure so
// the transport-conformance suite can exercise both the same way.

#pragma once

#include <atomic>
#include <cstddef>
#include <deque>

#include "common/error.hpp"
#include "net/inbox.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {

class InProcTransport final : public Transport {
 public:
  /// Creates inboxes for nodes 0..nodeCount-1.  `maxQueueDepth` bounds
  /// each inbox's queue (0 = unbounded); a send to a full queue throws
  /// OverloadError without enqueueing.
  explicit InProcTransport(std::size_t nodeCount,
                           std::size_t maxQueueDepth = 0);

  void send(NodeId from, NodeId to, const Bytes& payload) override;

  [[nodiscard]] std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override {
    return inboxOf(node).receive(timeout);
  }

  void shutdown() override;

  /// Native push: send() calls the handler on the sender's thread.
  void subscribe(NodeId node, DeliveryHandler handler) override {
    inboxOf(node).subscribe(std::move(handler));
  }
  void unsubscribe(NodeId node) override { inboxOf(node).unsubscribe(); }

  /// Messages ever sent (all nodes) - convenient for cost accounting.
  [[nodiscard]] std::size_t messagesSent() const {
    return messagesSent_.load();
  }
  /// Payload bytes ever sent.
  [[nodiscard]] std::size_t bytesSent() const { return bytesSent_.load(); }

 private:
  /// Throws TransportError for a node outside 0..nodeCount-1.
  [[nodiscard]] Inbox& inboxOf(NodeId node);

  std::deque<Inbox> inboxes_;  // fixed after construction
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> messagesSent_{0};
  std::atomic<std::size_t> bytesSent_{0};

  // Cached global-metric cells (registration is cold; inc is lock-free).
  obs::Counter& metricMessagesSent_;
  obs::Counter& metricBytesSent_;
  obs::Counter& metricSendErrors_;
};

}  // namespace privtopk::net
