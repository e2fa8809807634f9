// In-process transport: per-node FIFO mailboxes guarded by one mutex, each
// with its own condition variable so a send wakes only the addressee's
// receiver.  Delivery is instantaneous and ordered per sender.
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

  /// Messages ever sent (all nodes) - convenient for cost accounting.
  [[nodiscard]] std::size_t messagesSent() const;
  /// Payload bytes ever sent.
  [[nodiscard]] std::size_t bytesSent() const;

 private:
  struct Mailbox {
    std::deque<Envelope> queue;
    std::condition_variable cv;
  };

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
