// The sans-I/O protocol core: ONE implementation of the paper's ring
// protocol (§3.2-§3.4) shared by every execution engine.
//
// The core is transport-agnostic and event-driven.  A driver feeds inputs
// in (onStart / onToken / onResult / onPeerDead) and maps the returned
// effects onto its own substrate:
//
//   * Actions::sendToken / Actions::sendResult  -> deliver to the ring
//     successor (synchronously, through an event queue, or over a real
//     net::Transport);
//   * ParticipantConfig::trace                  -> RecordTraceStep: every
//     local-algorithm invocation is appended to the sink as it happens;
//   * Actions::completed                        -> FlushPassCounts: the
//     driver reads passCounts() once and flushes them to its metric cells;
//   * aborted()/abortReason()                   -> Abort: the ring shrank
//     below the privacy floor and the query cannot continue.
//
// Two drivers exist: protocol::RingQueryRunner (synchronous Monte-Carlo
// loop) and query::ServiceCore (the service's per-query logic, run live by
// query::NodeService - the one networked driver - and in virtual time by
// query::ServiceSim).  They contain NO ring arithmetic, round bookkeeping
// or termination logic of their own - this header is the single home of
// all of it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "protocol/local_algorithm.hpp"
#include "protocol/mechanism.hpp"
#include "protocol/params.hpp"
#include "protocol/trace.hpp"

namespace privtopk::protocol::core {

// ---------------------------------------------------------------------------
// Privacy floor (§4.1): with fewer than 3 participants the two neighbours
// of a node can reconstruct its contribution, so every engine refuses to
// run - and aborts a repaired ring that shrank - below this size.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kMinRingSize = 3;

[[nodiscard]] constexpr bool meetsPrivacyFloor(std::size_t ringSize) {
  return ringSize >= kMinRingSize;
}

/// Throws ConfigError("<context>: ...") unless `ringSize` meets the floor.
void requireRingSize(std::size_t ringSize, const char* context);

// ---------------------------------------------------------------------------
// Ring-position math.  `order[i]` is the node at ring position i and
// `order.front()` is the starting node; this is the only place that
// indexes a ring order.
// ---------------------------------------------------------------------------

[[nodiscard]] bool onRing(const std::vector<NodeId>& order, NodeId node);

/// Position of `node` on the ring; throws Error when absent.
[[nodiscard]] std::size_t ringPosition(const std::vector<NodeId>& order,
                                       NodeId node);

/// The node `node` hands the token to; throws Error when `node` is absent.
[[nodiscard]] NodeId ringSuccessor(const std::vector<NodeId>& order,
                                   NodeId node);

struct RepairOutcome {
  /// False when `failed` was not on the ring (repair already applied).
  bool applied = false;
  /// True when the surviving ring no longer meets the privacy floor; the
  /// query must abort.
  bool belowFloor = false;
};

/// The paper's §3.2 repair rule: splice `failed` out, connecting its
/// predecessor and successor, and report whether the survivors still meet
/// the privacy floor.
RepairOutcome repairRing(std::vector<NodeId>& order, NodeId failed);

/// §4.3 collusion hardening: a fresh random mapping over the live nodes,
/// rotated so `controller` keeps position 0 (it still drives the rounds).
[[nodiscard]] std::vector<NodeId> remapRing(std::vector<NodeId> order,
                                            NodeId controller, Rng& rng);

// ---------------------------------------------------------------------------
// Local initialization (§3.4).
// ---------------------------------------------------------------------------

/// Sort descending and keep the k largest values.
[[nodiscard]] TopKVector localTopK(const std::vector<Value>& values,
                                   std::size_t k);

/// Stream-separation tag used when forking a node's algorithm Rng out of a
/// shared engine Rng (see makeLocalAlgorithm).
inline constexpr std::uint64_t kAlgorithmRngTag = 0x5a17;

/// Builds the local-algorithm instance the configured privacy mechanism
/// requires (delegates to makeMechanism(params.mechanism)).  Randomizing
/// mechanisms fork `rng` (with kAlgorithmRngTag) so each node owns an
/// independent stream; deterministic ones draw nothing.
[[nodiscard]] std::unique_ptr<LocalAlgorithm> makeLocalAlgorithm(
    ProtocolKind kind, const ProtocolParams& params, Rng& rng);

/// The round budget a configuration implies (delegates to the privacy
/// mechanism): the paper's r_min (Eq. 4) for the probabilistic schedule,
/// `segments` for the segmented mechanism, one round for LDP and the naive
/// variants.
[[nodiscard]] Round roundBudget(ProtocolKind kind,
                                const ProtocolParams& params);

// ---------------------------------------------------------------------------
// Engine-facing knobs of the synchronous runner.
// ---------------------------------------------------------------------------

/// Optional determinism overrides for the runner, letting a test pin the
/// ring and the per-node randomness to match a service run bit for bit
/// (see tests/integration/engine_equivalence_test.cpp).
struct EngineOverrides {
  /// Explicit ring order (a permutation of 0..n-1; front() starts).
  /// Empty: the engine draws its default mapping (identity for the naive
  /// baseline, random otherwise).
  std::vector<NodeId> ringOrder;
  /// Per-node algorithm seeds: node i's algorithm draws exactly the
  /// stream a NodeService seeded with nodeSeeds[i] would use for its
  /// first query.  Empty: algorithms fork off the engine Rng as usual.
  std::vector<std::uint64_t> nodeSeeds;
};

// ---------------------------------------------------------------------------
// The participant state machine.
// ---------------------------------------------------------------------------

struct ParticipantConfig {
  std::uint64_t queryId = 0;
  NodeId self = 0;
  /// Agreed ring order; ringOrder.front() is the starting node.
  std::vector<NodeId> ringOrder;
  ProtocolKind kind = ProtocolKind::Probabilistic;
  /// Protocol parameters with k already resolved to the effective k.
  ProtocolParams params;
  /// Optional trace sink (RecordTraceStep effect).  May be shared by all
  /// participants of one run (the runner) or private to this node
  /// (NodeService).  Must outlive the Participant.
  ExecutionTrace* trace = nullptr;
  /// Optional distributed-tracing sink.  When set and an input carries an
  /// active obs::TraceContext, every processed input emits one child span
  /// ("ring_round" / "result_dissemination") and the outgoing message is
  /// stamped with the child context, extending the cross-node chain.  A
  /// null sink or an inactive context costs nothing - the context just
  /// passes through.  Must outlive the Participant.
  obs::TraceSink* spanSink = nullptr;
};

/// Effects returned by every input; the driver performs the I/O.
struct Actions {
  /// Hand this token to the current ring successor.
  std::optional<net::RoundToken> sendToken;
  /// Circulate the final result to the current ring successor (§3.3
  /// termination round).
  std::optional<net::ResultAnnouncement> sendResult;
  /// The input was a duplicate (retransmission) or arrived out of phase;
  /// nothing was processed.  Lenient drivers drop it, strict ones throw.
  bool duplicate = false;
  /// The start node closed a round (drivers count rounds_executed here;
  /// the per-round remap hook also fires on this edge).
  bool roundClosed = false;
  /// The final result is known; result() is valid and the driver should
  /// flush passCounts() to its metrics.
  bool completed = false;
};

/// One ring participant: position bookkeeping, the round budget, duplicate
/// suppression, LocalAlgorithm invocation, trace recording, repair and the
/// privacy-floor abort.  The node at ringOrder.front() doubles as the
/// controller: it deals round r+1 when round r circles back and emits the
/// ResultAnnouncement when the budget is exhausted.  Repair can promote a
/// different node to the front mid-query; the state machine handles the
/// handover (a promoted controller may close a round it already processed
/// as a follower).
class Participant {
 public:
  /// `localTopK` is this node's private input (sorted descending, at most
  /// k values - see core::localTopK).  Takes ownership of `algorithm`.
  /// Throws ConfigError when the ring is below the privacy floor, self is
  /// not on the ring, or the parameters are invalid.
  Participant(ParticipantConfig config, TopKVector localTopK,
              std::unique_ptr<LocalAlgorithm> algorithm);

  // --- Inputs ---

  /// Starts the query (start node only): processes round 1 over the
  /// initial global vector (k copies of the domain minimum, §3.4).
  /// `ctx` is the initiator's trace context (see ParticipantConfig::
  /// spanSink); the default keeps sink-less drivers unchanged.
  [[nodiscard]] Actions onStart(obs::TraceContext ctx = {});

  /// A RoundToken arrived carrying `vector` for `round`.  `ctx` is the
  /// context the token carried on the wire and `queueNs` the time it
  /// waited in the driver's scheduler before this call (recorded on the
  /// emitted span).
  [[nodiscard]] Actions onToken(Round round, const TopKVector& vector,
                                obs::TraceContext ctx = {},
                                std::int64_t queueNs = 0);

  /// A ResultAnnouncement arrived.  Followers adopt the result and forward
  /// the announcement once; a completed node reports a duplicate.
  [[nodiscard]] Actions onResult(const TopKVector& result,
                                 obs::TraceContext ctx = {});

  /// `failed` was detected dead: splice it out (§3.2 repair).  Sets the
  /// aborted state when the survivors fall below the privacy floor.
  RepairOutcome onPeerDead(NodeId failed);

  /// Adopts a fresh ring mapping (per-round remap drivers).  `order` must
  /// contain this node.
  void setRingOrder(std::vector<NodeId> order);

  // --- Observers ---

  [[nodiscard]] NodeId self() const { return self_; }
  /// Controller check: the front of the BASE order (mechanisms must keep
  /// it in front of every derived order).
  [[nodiscard]] bool isStart() const { return ringOrder_.front() == self_; }
  /// The agreed BASE order (repair and announces operate on it); the
  /// per-round order actually routed on is a mechanism derivation of it.
  [[nodiscard]] const std::vector<NodeId>& ringOrder() const {
    return ringOrder_;
  }
  /// Position on the ring ordering of the round currently in flight.
  [[nodiscard]] std::size_t position() const {
    return ringPosition(activeOrder(), self_);
  }
  /// Where the NEXT outgoing message goes: the successor on the ring
  /// ordering of the round currently in flight.  Drivers must route every
  /// send through this (never through the base order).
  [[nodiscard]] NodeId successor() const {
    return ringSuccessor(activeOrder(), self_);
  }
  [[nodiscard]] Round rounds() const { return rounds_; }
  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] const std::string& abortReason() const { return abortReason_; }
  /// Valid once completed().
  [[nodiscard]] const TopKVector& result() const { return result_; }
  [[nodiscard]] const LocalAlgorithm::PassCounts& passCounts() const {
    return algorithm_->passCounts();
  }

 private:
  /// One local-algorithm invocation + the RecordTraceStep effect.
  [[nodiscard]] TopKVector process(Round round, const TopKVector& input);
  Actions finish(Actions actions, const TopKVector& result,
                 const obs::TraceContext& ctx);
  /// The ring ordering of the round currently in flight (wireRound_),
  /// derived from the base order by the mechanism and cached until the
  /// round advances or the base order changes.
  [[nodiscard]] const std::vector<NodeId>& activeOrder() const;

  std::uint64_t queryId_ = 0;
  NodeId self_ = 0;
  std::vector<NodeId> ringOrder_;
  ProtocolParams params_;
  std::unique_ptr<PrivacyMechanism> mechanism_;
  ExecutionTrace* trace_ = nullptr;
  obs::TraceSink* spanSink_ = nullptr;
  std::unique_ptr<LocalAlgorithm> algorithm_;
  Round rounds_ = 1;
  /// The round whose ring ordering outgoing messages ride on: the round
  /// last processed, or rounds_ once the result is circulating.
  Round wireRound_ = 1;
  mutable Round cachedRound_ = 0;
  mutable std::vector<NodeId> cachedOrder_;
  Round lastProcessed_ = 0;  // duplicate suppression (followers)
  Round lastClosed_ = 0;     // duplicate suppression (controller)
  bool started_ = false;
  bool completed_ = false;
  bool aborted_ = false;
  std::string abortReason_;
  TopKVector result_;
};

}  // namespace privtopk::protocol::core
