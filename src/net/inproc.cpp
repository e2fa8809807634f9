#include "net/inproc.hpp"

#include <string>

namespace privtopk::net {

namespace {
const obs::Labels kInProcLabels{{"transport", "inproc"}};
}  // namespace

InProcTransport::InProcTransport(std::size_t nodeCount,
                                 std::size_t maxQueueDepth)
    : metricMessagesSent_(
          obs::counter("privtopk.transport.messages_sent", kInProcLabels)),
      metricBytesSent_(
          obs::counter("privtopk.transport.bytes_sent", kInProcLabels)),
      metricSendErrors_(
          obs::counter("privtopk.transport.send_errors", kInProcLabels)) {
  for (std::size_t node = 0; node < nodeCount; ++node) {
    inboxes_.emplace_back(static_cast<NodeId>(node), kInProcLabels,
                          maxQueueDepth);
  }
}

void InProcTransport::send(NodeId from, NodeId to, const Bytes& payload) {
  if (shutdown_.load()) {
    metricSendErrors_.inc();
    throw TransportError("InProcTransport: shut down");
  }
  if (to >= inboxes_.size()) {
    metricSendErrors_.inc();
    throw TransportError("InProcTransport: unknown destination " +
                         std::to_string(to));
  }
  inboxes_[to].deliver(Envelope{from, to, payload});
  messagesSent_.fetch_add(1);
  bytesSent_.fetch_add(payload.size());
  metricMessagesSent_.inc();
  metricBytesSent_.inc(payload.size());
}

void InProcTransport::shutdown() {
  shutdown_.store(true);
  for (Inbox& inbox : inboxes_) inbox.shutdown();
}

Inbox& InProcTransport::inboxOf(NodeId node) {
  if (node >= inboxes_.size()) {
    throw TransportError("InProcTransport: unknown node " +
                         std::to_string(node));
  }
  return inboxes_[node];
}

}  // namespace privtopk::net
