// Timing decorator for the traced run.  Each wrapper keeps only a
// timestamp, the link and (for sends) a copy of the payload; decoding and
// every other analysis happens after the live phase so it cannot distort
// the spans it measures.  It records from construction on, warm-up
// included: a receive whose send went unrecorded would shift the FIFO
// pairing of every later message on its link.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

using privtopk::NodeId;

/// Monotonic nanoseconds on the clock every span of the benchmark uses.
[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SentRecord {
  NodeId from = 0;
  NodeId to = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  privtopk::Bytes payload;
};

struct ReceivedRecord {
  NodeId from = 0;
  NodeId to = 0;
  std::int64_t atNs = 0;  ///< when receive() returned the envelope
  std::size_t bytes = 0;  ///< payload size, to cross-check the pairing
};

/// Wraps one node's endpoint.  Several wrappers may share one inner
/// transport (the in-process transport serves every node).
class CaptureTransport final : public privtopk::net::Transport {
 public:
  /// `nodes` bounds the node ids the wrapper will see.
  CaptureTransport(privtopk::net::Transport& inner, std::size_t nodes)
      : inner_(&inner), linkMutex_(nodes) {}
  CaptureTransport(const CaptureTransport&) = delete;
  CaptureTransport& operator=(const CaptureTransport&) = delete;

  void send(NodeId from, NodeId to, const privtopk::Bytes& payload) override;
  [[nodiscard]] std::optional<privtopk::net::Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override;
  void shutdown() override { inner_->shutdown(); }

  /// Moves out everything recorded so far.
  [[nodiscard]] std::vector<SentRecord> takeSends();
  [[nodiscard]] std::vector<ReceivedRecord> takeReceives();
  /// OverloadError throws seen by send().
  [[nodiscard]] std::size_t overloadErrors() const { return overloads_.load(); }

 private:
  privtopk::net::Transport* inner_;
  std::atomic<std::size_t> overloads_{0};
  /// Held across the inner send, per destination, so the start times of
  /// sends on one link are in the order the inner transport queued them
  /// and FIFO pairing by start time is exact.
  std::vector<std::mutex> linkMutex_;
  std::mutex mutex_;
  std::vector<SentRecord> sends_;
  std::vector<ReceivedRecord> receives_;
};

}  // namespace perfbench
