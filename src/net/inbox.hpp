// Inbox: one node's delivery point, shared by both base transports.
//
// An inbound envelope goes to the subscribed handler when there is one,
// otherwise into a FIFO queue that receive() drains.  InProcTransport
// keeps one inbox per node and delivers on the sending thread;
// TcpTransport keeps one for its own node and delivers on the reactor
// thread.  Either way the inbox alone decides handler-or-queue, hands
// the pre-subscribe backlog over in order, serializes handler calls,
// lets unsubscribe() wait out a running one, wakes receivers on shutdown,
// and keeps the transport's receive-side metrics balanced:
//   - messages_received / bytes_received count each envelope once, when
//     it reaches the queue or the handler;
//   - queue_depth rises when an envelope is queued and falls when it is
//     received, handed over on subscribe(), or discarded by shutdown();
//   - receive_timeouts counts receive() deadline misses, not shutdown
//     wakeups.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {

class Inbox {
 public:
  /// An inbox for `node`, counting into the metric cells labelled
  /// `labels`.  `maxDepth` bounds the queue (0 = unbounded).
  Inbox(NodeId node, const obs::Labels& labels, std::size_t maxDepth = 0);

  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  /// Calls the handler with `env`, or queues it for receive().  Throws
  /// OverloadError, queueing nothing, when the queue is at its bound (a
  /// handler has none).  A shut-down inbox queues nothing.
  void deliver(Envelope&& env);

  /// Blocks until an envelope is queued or `timeout` elapses; nullopt on
  /// a deadline miss or once the inbox is shut down.
  [[nodiscard]] std::optional<Envelope> receive(
      std::chrono::milliseconds timeout);

  /// See Transport::subscribe: queued envelopes reach `handler` first, in
  /// order, then every later delivery.  Throws TransportError when a
  /// handler is already installed.
  void subscribe(DeliveryHandler handler);

  /// See Transport::unsubscribe.
  void unsubscribe();

  /// Discards the queue, wakes every receiver and queues nothing after.
  /// Idempotent.
  void shutdown();

 private:
  const NodeId node_;
  const std::size_t maxDepth_;

  /// Held across every delivery, so handler calls never overlap, the
  /// backlog hand-over cannot be overtaken, and unsubscribe() can wait out
  /// a running call.  Lock order: deliverMutex_ before mutex_.
  std::mutex deliverMutex_;
  DeliveryHandler handler_;  // guarded by deliverMutex_

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;  // guarded by mutex_
  bool shutdown_ = false;       // guarded by mutex_

  obs::Counter& metricMessagesReceived_;
  obs::Counter& metricBytesReceived_;
  obs::Counter& metricReceiveTimeouts_;
  obs::Gauge& metricQueueDepth_;
};

}  // namespace privtopk::net
