// In-process transport: per-node FIFO mailboxes guarded by one mutex, each
// with its own condition variable so a send wakes only the addressee's
// receiver.  Delivery is instantaneous and ordered per sender.
// A subscribed node skips the mailbox: send() calls its handler on the
// sending thread, after releasing the mailbox mutex, so a message reaches
// the addressee with no thread hand-off at all.  Handler calls for one
// node are serialized, and a sender's next send starts only after its
// previous handler call returned, which keeps per-link FIFO order.
// An optional per-mailbox depth cap turns a send to a saturated node into
// OverloadError, matching the TCP transport's write-queue backpressure so
// the transport-conformance suite can exercise both the same way.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {

class InProcTransport final : public Transport {
 public:
  /// Creates mailboxes for nodes 0..nodeCount-1.  `maxQueueDepth` bounds
  /// each mailbox (0 = unbounded); a send to a full mailbox throws
  /// OverloadError without enqueueing.
  explicit InProcTransport(std::size_t nodeCount,
                           std::size_t maxQueueDepth = 0);

  void send(NodeId from, NodeId to, const Bytes& payload) override;

  [[nodiscard]] std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override;

  void shutdown() override;

  /// Native push: send() calls the handler on the sender's thread.
  void subscribe(NodeId node, DeliveryHandler handler) override;
  void unsubscribe(NodeId node) override;

  /// Messages ever sent (all nodes) - convenient for cost accounting.
  [[nodiscard]] std::size_t messagesSent() const;
  /// Payload bytes ever sent.
  [[nodiscard]] std::size_t bytesSent() const;

 private:
  struct Mailbox {
    std::deque<Envelope> queue;  // guarded by mutex_
    std::condition_variable cv;
    /// A handler is installed: send() delivers through it instead of the
    /// queue.  Guarded by mutex_.
    bool pushing = false;
    /// Held across every handler call, so calls for one node never
    /// overlap and unsubscribe() can wait out a running one.
    std::mutex deliverMutex;
    DeliveryHandler handler;  // guarded by deliverMutex
  };

  [[nodiscard]] Mailbox& mailboxOf(NodeId node);
  /// Hands `env` to the addressee's handler, or queues it when the node
  /// was unsubscribed since send() looked.
  void push(Mailbox& box, Envelope&& env);
  /// Counts one envelope handed to a consumer.
  void countReceived(const Envelope& env);

  mutable std::mutex mutex_;
  std::vector<Mailbox> mailboxes_;
  std::size_t maxQueueDepth_ = 0;
  bool shutdown_ = false;
  std::size_t messagesSent_ = 0;
  std::size_t bytesSent_ = 0;

  // Cached global-metric cells (registration is cold; inc is lock-free).
  obs::Counter& metricMessagesSent_;
  obs::Counter& metricBytesSent_;
  obs::Counter& metricMessagesReceived_;
  obs::Counter& metricBytesReceived_;
  obs::Counter& metricSendErrors_;
  obs::Counter& metricReceiveTimeouts_;
  obs::Gauge& metricQueueDepth_;
};

}  // namespace privtopk::net
