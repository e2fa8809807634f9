#include "capture.hpp"

#include <utility>

#include "common/error.hpp"

namespace perfbench {

void CaptureTransport::send(NodeId from, NodeId to,
                            const privtopk::Bytes& payload) {
  std::int64_t start = 0;
  {
    std::scoped_lock link(linkMutex_.at(to));
    start = nowNs();
    try {
      inner_->send(from, to, payload);
    } catch (const privtopk::OverloadError&) {
      overloads_.fetch_add(1);
      throw;
    }
  }
  const std::int64_t end = nowNs();
  std::scoped_lock lock(mutex_);
  sends_.push_back(SentRecord{from, to, start, end, payload});
}

std::optional<privtopk::net::Envelope> CaptureTransport::receive(
    NodeId node, std::chrono::milliseconds timeout) {
  auto envelope = inner_->receive(node, timeout);
  if (envelope) {
    const std::int64_t at = nowNs();
    std::scoped_lock lock(mutex_);
    receives_.push_back(
        ReceivedRecord{envelope->from, node, at, envelope->payload.size()});
  }
  return envelope;
}

std::vector<SentRecord> CaptureTransport::takeSends() {
  std::scoped_lock lock(mutex_);
  return std::exchange(sends_, {});
}

std::vector<ReceivedRecord> CaptureTransport::takeReceives() {
  std::scoped_lock lock(mutex_);
  return std::exchange(receives_, {});
}

}  // namespace perfbench
