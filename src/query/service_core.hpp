// ServiceCore: the per-query logic of one NodeService, single-threaded and
// sans-I/O.
//
// A core holds everything a node knows about the queries it serves - the
// in-flight state, the completed-result cache, the grouped (§4.2) stash
// and its protocol randomness - and nothing about threads, locks, clocks
// or sockets.  A driver feeds it inputs (a message, an initiation, a
// finished scan, a send's fate, a maintenance tick), each timed input with
// an explicit `now`, and performs the Effects they return: addressed sends,
// table scans to run, and queries retired with their outcome.  Two drivers
// run exactly this code: query::NodeService (the live shell) and
// query::ServiceSim (virtual time).
//
// Ordering: links are FIFO per sender, so a query's announce normally
// reaches every node before its first round token; a driver must feed the
// scan an announce hands back (onScanned) before that query's next
// message.  Where a link reorders anyway, a token for a query this node
// does not know is dropped and the sender's retransmission, announce
// first, recovers it.
// Order ACROSS queries is not assumed: a grouped member may see the final
// parent-id result before its own phase-1 result, which is stashed until
// the phase-1 hand-off.  Retransmission can introduce duplicates; per-query
// round tracking suppresses them.  Malformed traffic is logged and dropped.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/database.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/core.hpp"
#include "protocol/group.hpp"
#include "protocol/trace.hpp"
#include "query/descriptor.hpp"

namespace privtopk::query {

/// Robustness + scheduling knobs for NodeService (see docs/ROBUSTNESS.md).
struct ServiceOptions {
  /// In-flight queries older than this are garbage-collected; initiators
  /// see their future fail with TransportError.  This is the final
  /// backstop when retransmission and ring repair cannot make progress
  /// (e.g. the initiator itself died).
  std::chrono::milliseconds staleAfter{60'000};
  /// A query with no send/processed-receive activity for this long has its
  /// last outbound message (announce + token) retransmitted.  0 disables
  /// retransmission (pre-robustness behaviour).
  std::chrono::milliseconds retransmitAfter{1'000};
  /// Consecutive send failures to the current successor before it is
  /// declared dead and spliced out of the ring.
  int deadAfterFailures = 3;
  /// Bound on the completed-result cache; the oldest entries are evicted
  /// first (a long-running daemon must not leak one entry per query
  /// forever).
  std::size_t completedCap = 1024;
  /// Record this node's protocol::ExecutionTrace for each ring query it
  /// serves (own steps only - peers' vectors stay private).  Retrieve with
  /// traceOf(); retained traces obey completedCap like results.
  bool captureTraces = false;
  /// Dispatcher threads draining the keyed run queue; the service starts
  /// exactly this many threads of its own.  Messages of one query are
  /// always processed in arrival order regardless of the count; more
  /// threads only add cross-query parallelism.
  std::size_t workerThreads = 2;
  /// Initiations admitted to run concurrently from this node; the rest
  /// wait in the admission queue.
  std::size_t maxInflightInitiations = 8;
  /// Bound on initiations waiting for an in-flight slot; when the queue is
  /// full initiate() throws OverloadError with a retry-after hint
  /// (backpressure the caller can distinguish from a transport failure).
  std::size_t maxQueuedInitiations = 64;
  /// Allocate a distributed-tracing context for queries THIS node
  /// initiates: the announce carries it on the wire and every hop of the
  /// federation emits spans for the query.  Queries initiated elsewhere
  /// are traced whenever their traffic carries an active context,
  /// regardless of this flag.
  bool traceQueries = false;
  /// Capacity of the in-memory span ring buffer behind spans() and the
  /// /trace endpoint.  0 disables retention (spans still stream to the
  /// global obs::EventTracer when it is enabled).
  std::size_t spanRingCapacity = 0;
  /// When set, start() launches an embedded loopback HTTP server on this
  /// port (0 = ephemeral, see NodeService::httpPort()) serving /metrics,
  /// /healthz, /queries and /trace/<query_id>.
  std::optional<std::uint16_t> httpPort;
};

/// How often a driver ticks the core (stale GC + retransmission).
inline constexpr std::chrono::milliseconds kMaintainInterval{25};

class ServiceCore {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// One encoded frame, immutable and shared: a send, its retries and
  /// the query's retransmission slots all hold the same buffer.
  using Frame = std::shared_ptr<const Bytes>;

  /// A send the driver performs.  Ring sends go to the query's ring
  /// successor as of the moment they were queued; the driver reports a
  /// failed one through onSendFailed (failure accounting, ring repair).
  /// Direct sends (group fan-out, repair notifies, result replays) are
  /// one-shot and best-effort.
  struct Outbound {
    std::uint64_t queryId = 0;
    /// Never null.  A ring send's frame is the one the query retains in
    /// its lastMessage slot (and announceWire, for an announce); retries
    /// and retransmits resend that buffer, never a re-encoding.
    Frame wire;
    NodeId target = 0;
    bool ring = true;
  };

  /// A table scan an announce hands back: the driver runs scanTable with
  /// no lock held (after sending the forwarded announce, so the successor
  /// scans while this node does) and feeds the outcome to onScanned.
  struct PendingScan {
    std::uint64_t queryId = 0;
    QueryDescriptor descriptor;
    /// Delegated start (§4.2): this node opens the group ring once its
    /// state exists.
    bool delegatedStart = false;
    /// Context the "local_input" span chains off (inactive = untraced),
    /// and when the scan was handed back (its queue wait).
    obs::TraceContext ctx;
    std::int64_t handedBackNs = 0;
  };

  /// The outcome of a table scan (see scanTable).
  struct LocalScan {
    TopKVector input;                   ///< ring queries
    std::vector<std::int64_t> addends;  ///< aggregate queries
    std::exception_ptr error;           ///< set when the scan threw
    std::int64_t startNs = 0;           ///< scan start (span timebase)
  };

  /// A query this node stopped serving: completed (`result`, presented in
  /// the query's natural order) or given up (`error`: aborted by ring
  /// repair or garbage-collected as stale).  Every query - flat, grouped
  /// parent or phase sub-query - retires at most once per node.
  struct Retirement {
    std::uint64_t queryId = 0;
    std::optional<TopKVector> result;
    std::string error;
  };

  struct Effects {
    std::vector<Outbound> sends;
    std::vector<PendingScan> scans;
    std::vector<Retirement> retired;
  };

  /// Read-only view of one in-flight query, for invariant checks.
  struct ActiveView {
    std::uint64_t queryId = 0;
    bool aborted = false;
    /// Live ring size (the group ring for a grouped parent).
    std::size_t ringSize = 0;
    TimePoint registeredAt;
  };

  /// Cached global-metric cells (see docs/OBSERVABILITY.md for the
  /// catalog); registration happens once at construction.
  struct Metrics {
    obs::Counter& initiated;
    obs::Counter& participated;
    obs::Counter& completed;
    obs::Counter& stalePurged;
    obs::Counter& droppedMessages;
    obs::Counter& roundsExecuted;
    obs::Counter& randomizedPasses;
    obs::Counter& realPasses;
    obs::Counter& passthroughPasses;
    obs::Counter& retransmits;
    obs::Counter& ringRepairs;
    obs::Counter& peersDeclaredDead;
    obs::Counter& duplicatesDropped;
    obs::Counter& resultReplays;
    obs::Counter& aborted;
    obs::Counter& admissionsRejected;
    obs::Gauge& activeQueries;
    obs::Gauge& inflightQueries;
    obs::Gauge& queueDepth;
    obs::Histogram& queryLatencyMs;
    obs::Histogram& announceToFirstTokenMs;
    obs::Histogram& groupPhaseMs;
    obs::Histogram& mergePhaseMs;
    Metrics();
  };

  /// Binds the core to this node's id and private database (borrowed).
  /// `seed` drives all of this node's protocol randomness; `spanSink`
  /// (may be null) receives the spans of traced queries.  Throws
  /// ConfigError on invalid options.
  ServiceCore(NodeId self, const data::PrivateDatabase& db, std::uint64_t seed,
              const ServiceOptions& options, obs::TraceSink* spanSink);

  /// Throws ConfigError unless `descriptor` over `ringOrder` can be
  /// initiated at `self`: a valid descriptor, >= 3 nodes with `self`
  /// first, and no per-round remap (see docs/PROTOCOL.md §5).
  static void validateInitiation(const QueryDescriptor& descriptor,
                                 const std::vector<NodeId>& ringOrder,
                                 NodeId self);

  // --- Inputs ---

  /// An inbound message from `from`, delivered at `receivedAtNs`
  /// (EventTracer::nowNs timebase, 0 = unknown; spans record the wait).
  /// Never throws: bad traffic is counted and dropped.
  [[nodiscard]] Effects onMessage(NodeId from, const net::Message& message,
                                  std::int64_t receivedAtNs, TimePoint now);

  /// Scans this node's table for `descriptor` (LocalParty::scanInput, or
  /// scanAggregate for aggregates).  The descriptor is not validated again
  /// here: decode or validateInitiation already did.  Reads only the
  /// database, so NodeService and ServiceSim may run it without
  /// serializing against the other inputs.
  [[nodiscard]] LocalScan scanTable(const QueryDescriptor& descriptor) const;

  /// Builds the state of a query whose announce handed back `scan`; a
  /// failed scan aborts the query on this node.
  [[nodiscard]] Effects onScanned(const PendingScan& scan, LocalScan result,
                                  TimePoint now);

  /// Registers and starts a query initiated here (flat, or group-parallel
  /// when the descriptor asks for groups and the ring is big enough).
  /// `scan` is this node's scanned input.  Throws - with nothing sent - on
  /// an invalid or duplicate query or a failed scan.
  [[nodiscard]] Effects initiate(const QueryDescriptor& descriptor,
                                 std::vector<NodeId> ringOrder, LocalScan scan,
                                 TimePoint now);

  /// A ring send could not be delivered: counts the failure and, once the
  /// target is condemned, repairs the ring and re-sends to the new
  /// successor.
  [[nodiscard]] Effects onSendFailed(const Outbound& failed);
  /// A ring send was delivered: the failure streak resets.
  void onSendSucceeded(std::uint64_t queryId);

  /// Stale-query GC, retransmission deadlines and the aborted-query sweep.
  [[nodiscard]] Effects tick(TimePoint now);

  // --- Observers ---

  /// True when `queryId` is in flight here or retained as retired.
  [[nodiscard]] bool knows(std::uint64_t queryId) const;
  [[nodiscard]] std::optional<TopKVector> resultOf(std::uint64_t queryId) const;
  [[nodiscard]] std::optional<protocol::ExecutionTrace> traceOf(
      std::uint64_t queryId) const;
  [[nodiscard]] std::size_t activeQueries() const { return active_.size(); }
  [[nodiscard]] std::size_t completedQueries() const {
    return completed_.size();
  }
  /// Messages held for grouped queries awaiting this node's phase 1.
  [[nodiscard]] std::size_t stashedMessages() const;
  [[nodiscard]] std::vector<ActiveView> activeView() const;
  /// The /queries JSON body.
  [[nodiscard]] std::string queriesJson(TimePoint now) const;
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] NodeId self() const { return self_; }

 private:
  /// Per-query participant state.
  struct QueryState {
    QueryDescriptor descriptor;
    /// Ring for AGGREGATE queries and grouped PARENT entries (the parent's
    /// ring is this node's group ring, the final-result dissemination
    /// path); ring queries track theirs inside the core participant (see
    /// ringOf()) and keep it here only until the local scan has built it.
    std::vector<NodeId> ringOrder;
    bool initiator = false;

    // Ring path: the transport-agnostic protocol state machine.  Heap
    // allocation keeps the trace sink pointer stable across map moves.
    std::unique_ptr<protocol::core::Participant> participant;
    std::unique_ptr<protocol::ExecutionTrace> trace;

    // Aggregate path (initiator keeps the masks).
    std::vector<std::uint64_t> masks;
    std::vector<std::int64_t> addends;

    TimePoint registeredAt;
    // Follower-side announce -> first round-token latency observation.
    bool firstTokenSeen = false;

    // --- Distributed tracing (docs/OBSERVABILITY.md) ---
    /// Context for the next service-side span this node emits for the
    /// query; child contexts replace it as the chain grows.  Inactive
    /// (traceId 0) when the query is untraced.
    obs::TraceContext traceCtx;
    /// Initiator only: span id reserved for the root "query" span, emitted
    /// at completion so it covers the whole execution.
    std::uint64_t rootSpanId = 0;
    std::int64_t traceStartNs = 0;

    // --- Grouped two-phase state (paper §4.2; docs/PROTOCOL.md §6) ---
    /// Parent query id on phase sub-queries (0 on flat queries/parents).
    std::uint64_t parentId = 0;
    /// 0 = flat query or parent entry, 1 = group ring, 2 = merge ring.
    std::uint8_t phase = 0;
    /// Parent-entry flags: registered under the PARENT query id on every
    /// member of a grouped query (the coordinator's is its `initiator`).
    bool isParent = false;
    /// The front node of its group ring joins the merge ring.
    bool isDelegate = false;
    /// This node's own phase-1 sub-query id (parents only; see
    /// protocol::groupSubQueryId).
    std::uint64_t groupSubId = 0;
    /// Raw (protocol-space) phase-1 group result - the merge-ring input.
    std::optional<TopKVector> groupRaw;
    /// Full grouping, coordinator only.
    protocol::GroupLayout layout;
    /// Members only: the merge ring's length (QueryAnnounce::groups).
    std::size_t mergeRingSize = 0;
    /// Coordinator only: the phase-1 announces handed to the remote
    /// delegates.  The merge sub-query takes them over and resends them
    /// when it retransmits (a lost one leaves the merge ring waiting at
    /// that group's delegate) until its first token comes round.
    std::vector<Outbound> fanOut;

    // --- Robustness state (docs/ROBUSTNESS.md) ---
    // Frames kept for retransmission: the announce this node circulated
    // and the most recent protocol message it emitted (null until sent).
    // Shared with the Outbound that first carried them.
    Frame announceWire;
    Frame lastMessage;
    // Last send or processed receive for this query; drives the
    // retransmission deadline.  A grouped member sets it past the expected
    // end of the merge phase (onPhaseDone).
    TimePoint lastActivity;
    // Consecutive send failures to the current successor.
    int sendFailures = 0;
    // Duplicate suppression for the single secure-sum pass (the ring path
    // suppresses duplicates inside the core participant).
    bool sumSeen = false;
    // Set when the query can no longer proceed (ring shrank below 3);
    // tick() erases aborted entries.
    bool aborted = false;
  };

  /// A retired query's result and trace, and - to answer a ring member
  /// whose ResultAnnouncement hop was lost (replayCompletedResult) - the
  /// ring it ran on.
  struct Retained {
    /// The raw (protocol-space) result, which a replay resends.
    TopKVector raw;
    /// Set for a bottom-k query: its presented result is `raw` mirrored
    /// within this domain.
    std::optional<Domain> mirroredIn;
    std::vector<NodeId> ring;
    std::optional<protocol::ExecutionTrace> trace;
  };

  /// A message held until this node's phase 1 of a grouped query
  /// completes, with its delivery time so the replay records the real
  /// wait on its span.
  struct Stashed {
    net::Message message;
    std::int64_t receivedAtNs = 0;
  };

  /// One message being handled: its sender, delivery time and the wait
  /// since (spans record it), and the input's `now`.
  struct Arrival {
    NodeId from = 0;
    std::int64_t receivedAtNs = 0;
    std::int64_t queueNs = 0;
    TimePoint now;
  };

  // Message handlers.  Sends, retirements and the table scan an announce
  // needs are queued on `fx`; a handler that finishes a query applies the
  // completion as its last step.
  void handleMessage(NodeId from, const net::Message& message,
                     std::int64_t receivedAtNs, TimePoint now, Effects& fx);
  void onAnnounce(const net::QueryAnnounce& announce, const Arrival& in,
                  Effects& fx);
  void onMergeAnnounce(const net::QueryAnnounce& announce,
                       const QueryDescriptor& descriptor, const Arrival& in,
                       Effects& fx);
  void onRoundToken(const net::RoundToken& token, const Arrival& in,
                    Effects& fx);
  void onSumToken(const net::SumToken& token, const Arrival& in, Effects& fx);
  void onResult(const net::ResultAnnouncement& result, const Arrival& in,
                Effects& fx);
  void onRingRepair(const net::RingRepair& repair, TimePoint now,
                    Effects& fx);
  /// Answers a token for a query this node already retired by replaying
  /// the stored ResultAnnouncement straight back to the sender (ring
  /// members only): a follower whose dissemination hop was lost would
  /// otherwise retransmit into completed peers until the stale GC.
  /// Returns true when a replay was queued.
  bool replayCompletedResult(std::uint64_t queryId, NodeId from,
                             Effects& fx);

  // Initiation.
  void beginFlat(const QueryDescriptor& descriptor,
                 std::vector<NodeId> ringOrder, LocalScan scan, TimePoint now,
                 Effects& fx);
  void beginGrouped(const QueryDescriptor& descriptor,
                    const std::vector<NodeId>& ringOrder, LocalScan scan,
                    TimePoint now, Effects& fx);

  // Grouped orchestration.
  /// Registers the parent entry of a grouped query (`descriptor` under the
  /// parent id).  Its ring is this node's group ring - the final result's
  /// dissemination path, with the group's delegate in front.
  QueryState& registerParent(const QueryDescriptor& descriptor,
                             const std::vector<NodeId>& groupRing,
                             std::uint64_t groupSubId, TimePoint now);
  void startMergePhase(QueryState& parent, TimePoint now, Effects& fx);
  /// This node finished its run of a grouped query's phase `phase`: hand
  /// the group result to the merge ring, or retire the parent.
  void onPhaseDone(std::uint8_t phase, std::uint64_t parentId, TopKVector raw,
                   TimePoint startedAt, TimePoint now, Effects& fx);
  /// Queues merge-phase traffic that raced ahead of this delegate's own
  /// phase-1 completion; returns false when the message is not stashable.
  bool maybeStashMergeTraffic(std::uint64_t queryId,
                              const net::Message& message,
                              std::int64_t receivedAtNs);
  /// Holds `message` for replay when the grouped query's phase 1
  /// completes here (bounded by kStashCap; overflow is dropped).
  void stash(std::uint64_t parentId, net::Message message,
             std::int64_t receivedAtNs);
  void replayStashed(std::uint64_t parentId, TimePoint now, Effects& fx);

  /// The query's live ring: the core participant's view for ring queries,
  /// the locally tracked order for aggregates and parent entries.
  [[nodiscard]] static const std::vector<NodeId>& ringOf(
      const QueryState& state);
  /// Splices `dead` out of the query's ring (core participant or local
  /// order).  Does not touch metrics or abort state.
  [[nodiscard]] static protocol::core::RepairOutcome applyRepair(
      QueryState& state, NodeId dead);
  [[nodiscard]] NodeId successorFor(const QueryState& state) const;

  /// Encodes `message` once into the frame the query retains as its
  /// latest outbound payload and queues that frame for the current
  /// successor.
  void queueSend(QueryState& state, net::Message message, TimePoint now,
                 Effects& fx);
  /// Declares `dead` failed: repairs the ring, queues the repair notify,
  /// and aborts the query when fewer than 3 nodes remain.  Returns true
  /// when the query can continue.
  bool repairAfterDeadSuccessor(QueryState& state, NodeId dead, Effects& fx);
  /// Marks the query unable to proceed and retires it with `reason`.
  void abortQuery(QueryState& state, const std::string& reason, Effects& fx);
  /// Registers a query this node now serves (in flight from `now`).
  QueryState& registerQuery(const QueryDescriptor& descriptor,
                            std::uint64_t parentId, std::uint8_t phase,
                            TimePoint now);
  /// Emits the "announce_handled" span and forwards the announce with its
  /// context; returns that context.
  obs::TraceContext forwardAnnounce(QueryState& state,
                                    const net::QueryAnnounce& announce,
                                    std::int64_t t0, const Arrival& in,
                                    Effects& fx);
  /// Builds the core participant (and optional trace sink) for a ring
  /// query this node serves.  The local algorithm draws from the node's
  /// own stream for flat queries and from a derived per-phase stream for
  /// grouped sub-queries (protocol::groupPhaseSeed).
  void buildParticipant(QueryState& state, std::vector<NodeId> ringOrder,
                        TopKVector localInput);
  void beginRounds(QueryState& state, TimePoint now, Effects& fx);
  /// Allocates the trace context and reserves the root span of a query
  /// initiated here (when traceQueries is set).
  void openRootTrace(QueryState& state, std::int64_t startNs) const;
  /// Retires a finished query: metrics, presentation, completed cache,
  /// grouped phase hand-off.  `raw` is the protocol-space result.
  void applyCompletion(std::uint64_t queryId, TopKVector raw, TimePoint now,
                       Effects& fx);

  NodeId self_;
  const data::PrivateDatabase* db_;
  std::uint64_t seed_;
  Rng rng_;
  ServiceOptions options_;
  obs::TraceSink* spanSink_;
  Metrics metrics_;

  std::map<std::uint64_t, QueryState> active_;
  std::map<std::uint64_t, Retained> completed_;
  // Insertion order of completed_ entries, oldest first (LRU eviction).
  std::deque<std::uint64_t> completedOrder_;
  /// Queries retired without a result (aborted or stale), oldest first,
  /// bounded by completedCap: a late retransmission of their announce
  /// must not register them again.
  std::deque<std::uint64_t> abandonedOrder_;
  std::set<std::uint64_t> abandoned_;
  /// merge query id -> parent query id, for stashing merge traffic that
  /// arrives before this delegate finished its phase-1 run.
  std::map<std::uint64_t, std::uint64_t> mergeParents_;
  /// parent query id -> traffic waiting for this node's group result.
  std::map<std::uint64_t, std::vector<Stashed>> stashed_;
};

}  // namespace privtopk::query
