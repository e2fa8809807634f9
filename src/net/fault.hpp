// Fault injection for transports: a decorator that wraps any Transport and
// applies a deterministic schedule of message drops, link delays and
// fail-stop node crashes.  Used by the robustness test suites and exposed
// on the CLI via --fault-spec (see docs/ROBUSTNESS.md).
//
// Deployment model: in-process fleets share one transport, so a single
// wrapper suffices; TCP fleets run one transport per node, so each node
// wraps its own transport around a SHARED FaultState — that way a crash
// scheduled for node X makes X's own sends/receives fail AND makes every
// other node's sends to X fail, exactly like a real process death.
//
// Delivery: subscribe() forwards to the inner transport, so a fault fleet
// takes the same push path as a production one; the handler it installs
// drops every envelope that reaches a crashed node.

#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {

/// Declarative fault schedule.  All indices are deterministic message
/// counts, never wall-clock, so tests are reproducible.
struct FaultSpec {
  /// Drop the `nth` message (1-based) sent on the `from`->`to` link.
  struct Drop {
    NodeId from = 0;
    NodeId to = 0;
    std::size_t nth = 1;
  };
  /// Delay every message on the `from`->`to` link by `delay`.
  struct Delay {
    NodeId from = 0;
    NodeId to = 0;
    std::chrono::milliseconds delay{0};
  };
  /// Fail-stop `node` once it has sent `afterSends` messages (0 = crashed
  /// from the start).  A crashed node's sends and receives fail, and peers
  /// sending to it see a TransportError.
  struct Crash {
    NodeId node = 0;
    std::size_t afterSends = 0;
  };

  std::vector<Drop> drops;
  std::vector<Delay> delays;
  std::vector<Crash> crashes;

  [[nodiscard]] bool empty() const {
    return drops.empty() && delays.empty() && crashes.empty();
  }

  /// Parses a comma/semicolon-separated clause list, e.g.
  ///   "drop:0->1:3,delay:1->2:50,crash:2@5"
  ///   drop:F->T:N    drop the Nth message from F to T (1-based)
  ///   delay:F->T:MS  delay the F->T link by MS milliseconds
  ///   crash:NODE@N   fail-stop NODE after it has sent N messages
  /// Throws ConfigError on malformed input, naming the offending token.
  /// Empty string = no faults.  Numbers must be whole tokens: "50x" is an
  /// error, not 50.
  static FaultSpec parse(const std::string& text);

  /// Canonical spec string; parse(toString()) reproduces the spec exactly.
  [[nodiscard]] std::string toString() const;
};

/// Mutable fault bookkeeping shared by every wrapper of one logical fleet.
class FaultState {
 public:
  explicit FaultState(FaultSpec spec);

  /// Returns true when the message should be dropped; advances counters
  /// and may transition `from` into the crashed set.  Throws
  /// TransportError when either endpoint is (now) crashed.
  /// On a deliverable message, `delayOut` receives the link delay (0 when
  /// none).
  bool onSend(NodeId from, NodeId to, std::chrono::milliseconds& delayOut);

  [[nodiscard]] bool isCrashed(NodeId node) const;
  void crash(NodeId node);
  void revive(NodeId node);

  [[nodiscard]] std::size_t dropsInjected() const;
  [[nodiscard]] std::size_t delaysInjected() const;

 private:
  mutable std::mutex mutex_;
  FaultSpec spec_;
  std::set<NodeId> crashed_;
  std::map<std::pair<NodeId, NodeId>, std::size_t> linkSendCount_;
  std::map<NodeId, std::size_t> nodeSendCount_;
  std::size_t dropsInjected_ = 0;
  std::size_t delaysInjected_ = 0;
};

class FaultInjectingTransport final : public Transport {
 public:
  /// Standalone wrapper with its own fault state (in-process fleets).
  FaultInjectingTransport(Transport& inner, FaultSpec spec);

  /// Wrapper sharing `state` with sibling wrappers (one-transport-per-node
  /// TCP fleets).
  FaultInjectingTransport(Transport& inner, std::shared_ptr<FaultState> state);

  void send(NodeId from, NodeId to, const Bytes& payload) override;
  [[nodiscard]] std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override;
  void shutdown() override;
  /// Subscribes on the inner transport; envelopes that reach `node` while
  /// it is crashed are lost, as a dead process loses its socket buffers.
  void subscribe(NodeId node, DeliveryHandler handler) override;
  void unsubscribe(NodeId node) override;

  /// Programmatic fail-stop / restart, for tests that crash a node at a
  /// precise protocol point rather than a message count.
  void crashNode(NodeId node) { state_->crash(node); }
  void reviveNode(NodeId node) { state_->revive(node); }
  [[nodiscard]] bool isCrashed(NodeId node) const {
    return state_->isCrashed(node);
  }

  [[nodiscard]] std::size_t dropsInjected() const {
    return state_->dropsInjected();
  }
  [[nodiscard]] std::size_t delaysInjected() const {
    return state_->delaysInjected();
  }
  [[nodiscard]] const std::shared_ptr<FaultState>& state() const {
    return state_;
  }

 private:
  Transport* inner_;
  std::shared_ptr<FaultState> state_;

  obs::Counter& metricDropped_;
  obs::Counter& metricDelayed_;
  obs::Counter& metricCrashRejects_;
};

}  // namespace privtopk::net
