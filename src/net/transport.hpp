// Transport abstraction: how ring neighbours exchange message bytes.
//
// Two implementations ship with the library: InProcTransport (thread-safe
// in-memory queues, used by multi-threaded integration tests and examples)
// and TcpTransport (real sockets, optionally encrypted).  The Monte-Carlo
// experiment harnesses bypass transports entirely via the synchronous
// runner in src/protocol/runner.hpp - see DESIGN.md.
//
// A consumer either polls receive() or subscribes a delivery handler that
// the transport calls with each envelope (NodeService subscribes).  Both
// base transports push natively - TcpTransport on its reactor thread,
// InProcTransport on the sending thread - so an inbound message reaches
// the consumer with no thread of its own in between.  Decorators that
// only implement receive() (fault injection, WAN shaping) inherit the
// default subscribe(): one pump thread per subscribed node that polls
// receive() and calls the handler.

#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/serialization.hpp"
#include "common/types.hpp"

namespace privtopk::net {

/// A delivered message with its sender.
struct Envelope {
  NodeId from = 0;
  NodeId to = 0;
  Bytes payload;
};

/// Called with each envelope addressed to a subscribed node.  It must not
/// throw, must return promptly (it runs on a transport or sender thread),
/// and must not call subscribe()/unsubscribe() on the same transport.
using DeliveryHandler = std::function<void(Envelope&&)>;

/// Point-to-point, ordered, reliable message passing between named nodes.
/// Implementations must be safe for concurrent use from multiple threads.
class Transport {
 public:
  Transport();  // out of line: Pump is incomplete here
  /// Stops any pump a subscriber left behind.  Unsubscribe every node
  /// before destroying the transport: a pump still polling a decorator
  /// whose own destructor has run would read a dead object.
  virtual ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Enqueues `payload` for delivery to `to`.  Throws TransportError when
  /// the destination is unknown or the link is down.
  virtual void send(NodeId from, NodeId to, const Bytes& payload) = 0;

  /// Blocks until a message for `node` arrives or `timeout` elapses;
  /// returns nullopt on timeout or when the transport is shut down.
  [[nodiscard]] virtual std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) = 0;

  /// Releases resources and wakes all blocked receivers.
  virtual void shutdown() = 0;

  /// Delivers every later message for `node` to `handler` instead of the
  /// receive() queue.  Messages queued before the call are handed over
  /// first, in order; per-link FIFO order holds across the switch.
  /// Which thread calls the handler is the transport's choice (see each
  /// implementation); calls for one node never overlap.  Throws
  /// TransportError when `node` is unknown or already subscribed.
  ///
  /// The default runs one pump thread that polls receive() and calls the
  /// handler, so every transport that implements receive() supports it
  /// unchanged.  The pump does not spin on a shut-down transport whose
  /// receive() returns at once.
  virtual void subscribe(NodeId node, DeliveryHandler handler);

  /// Stops delivery to `node`'s handler: once this returns, no handler
  /// call is running or will start, and later messages queue for
  /// receive() again.  A no-op for an unsubscribed node; safe on a
  /// transport that is already shut down.
  virtual void unsubscribe(NodeId node);

 private:
  struct Pump;

  std::mutex pumpsMutex_;
  std::map<NodeId, std::unique_ptr<Pump>> pumps_;  // guarded by pumpsMutex_
};

}  // namespace privtopk::net
