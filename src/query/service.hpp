// NodeService: a long-running participant daemon, and the one networked
// driver of the ring protocol (`privtopk node` runs exactly one).
//
// A real organization runs one service bound to its private database and
// its transport endpoint; the service
//
//   * answers QueryAnnounce messages by validating the descriptor against
//     the LOCAL schema, registering the query and forwarding the announce
//     around the ring FIRST, then scanning the local table outside the
//     service lock and building the protocol state from it - so the n
//     table scans of one query overlap instead of running in series on
//     its critical path;
//   * demultiplexes RoundToken / SumToken / ResultAnnouncement traffic by
//     query id, so any number of queries - with any mix of initiators -
//     can be in flight concurrently over one transport;
//   * runs top-k/bottom-k/max/min queries through the paper's randomized
//     ring protocol and sum/count/average queries through the masked
//     secure-sum pass;
//   * executes §4.2 group-parallel queries (QueryDescriptor::groupSize):
//     the initiator partitions the ring into group rings that run phase-1
//     sub-queries in parallel, then merges the group results over a
//     randomly-delegated phase-2 ring (docs/PROTOCOL.md §6);
//   * schedules work on a small pool: the transport's delivery handler
//     (net::Transport::subscribe - the TCP reactor, or an in-process
//     sender) decodes each envelope straight into a keyed run queue, and
//     workerThreads dispatcher threads drain it (per-query FIFO order is
//     preserved; distinct queries - including the group rings of one
//     grouped query - progress in parallel).  The service starts exactly
//     workerThreads threads; maintenance (stale GC, retransmission) runs
//     on whichever worker finds its 25 ms deadline due.  Initiations pass
//     through a bounded admission queue with an in-flight cap (initiate()
//     throws OverloadError - with a retry-after hint - when the queue is
//     full, distinguishable from a dead link's TransportError);
//   * survives fail-stop peer crashes and lost tokens: every node
//     retransmits its last outbound message when a query stalls, and a
//     successor that keeps refusing sends is spliced out of the ring
//     (protocol::core::repairRing - the paper's predecessor/successor
//     repair rule), with a RingRepair control message circulating the
//     shrunken ring.  See docs/ROBUSTNESS.md for the failure model.
//   * exposes initiate() returning a future, and resultOf() for queries
//     this node merely participated in;
//   * participates in distributed tracing (docs/OBSERVABILITY.md): when an
//     inbound message carries an active obs::TraceContext the service and
//     its core participant emit child spans (announce_handled, local_input,
//     ring_round, sum_pass, group_phase, merge_phase, repair,
//     result_dissemination) through obs::emitChildSpan, and the initiator
//     a root "query" span.
//     Spans are the only trace output: they land in a bounded span ring
//     buffer and the global EventTracer JSON-lines stream, and the child
//     context is stamped onto every message forwarded, so a whole
//     federation's spans merge into one timeline (`privtopk trace-view`);
//   * optionally serves a loopback HTTP scrape endpoint
//     (ServiceOptions::httpPort): /metrics (Prometheus text), /healthz,
//     /queries and /trace/<query_id>.
//
// Ordering assumption: links are FIFO per sender (both InProcTransport and
// TcpTransport guarantee this, for receive() and for pushed delivery
// alike), and the delivery handler enqueues in delivery order, so a
// query's announce always enters the run queue before its first round
// token - including delegated-start group rings, where the delegate
// forwards the announce before emitting its first token.  The announce's
// work item keeps the query's key busy through the local scan that
// follows the forward, so the round-1 token waits in the keyed run queue
// until the protocol state exists.  Order ACROSS keys is not preserved:
// a grouped member may see the final parent-id result before its own
// phase-1 result, which onResult stashes until the phase-1 hand-off.
// Retransmission can introduce duplicates; they are suppressed by
// per-query round tracking.
// Malformed or unknown traffic is logged and dropped - a hostile peer
// cannot take the service down.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "data/database.hpp"
#include "net/http.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span_buffer.hpp"
#include "obs/trace.hpp"
#include "protocol/core.hpp"
#include "protocol/group.hpp"
#include "protocol/trace.hpp"
#include "query/descriptor.hpp"

namespace privtopk::query {

class LocalParty;

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

class NodeService {
 public:
  /// Binds the service to this node's id, private database and transport
  /// endpoint.  `seed` drives all of this node's protocol randomness.
  /// `staleAfter` bounds how long an in-flight query may sit without
  /// completing before it is garbage-collected (a peer crash mid-token
  /// would otherwise leak state forever); initiators of a collected query
  /// see their future fail with TransportError.
  NodeService(NodeId self, const data::PrivateDatabase& db,
              net::Transport& transport, std::uint64_t seed,
              std::chrono::milliseconds staleAfter =
                  std::chrono::milliseconds(60'000));

  /// Same, with the full robustness option set.
  NodeService(NodeId self, const data::PrivateDatabase& db,
              net::Transport& transport, std::uint64_t seed,
              ServiceOptions options);
  ~NodeService();

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  /// Subscribes to the transport and starts the dispatcher threads.
  /// Idempotent.  Throws TransportError when this node is already
  /// subscribed on the transport (another running service).
  void start();

  /// Unsubscribes, stops the threads and drains deterministically:
  /// initiations still in the admission queue (or admitted but not yet
  /// begun) are rejected with TransportError, and the futures of
  /// begun-but-unfinished initiations fail - the ring cannot progress
  /// without this node's threads.  Does not shut the transport down.
  void stop();

  /// Initiates `descriptor` with this node as the starting node.
  /// `ringOrder` must contain this node first and every participant once.
  /// The query enters the bounded admission queue (OverloadError with a
  /// retry-after hint when full - back off and resubmit, the node is
  /// saturated, not dead; ConfigError when the service is not running); a
  /// descriptor with
  /// groupSize >= 3 and enough nodes for three groups runs group-parallel
  /// (§4.2).  Returns a future resolving to the result in the query's
  /// natural presentation order.
  [[nodiscard]] std::future<TopKVector> initiate(QueryDescriptor descriptor,
                                                 std::vector<NodeId> ringOrder);

  /// The recorded result of a completed query (also available for queries
  /// this node did not initiate).  Bounded: only the most recent
  /// ServiceOptions::completedCap results are retained.
  [[nodiscard]] std::optional<TopKVector> resultOf(std::uint64_t queryId) const;

  /// Blocks until `queryId` completes or `timeout` elapses; returns the
  /// result, or nullopt on timeout.
  [[nodiscard]] std::optional<TopKVector> waitFor(
      std::uint64_t queryId, std::chrono::milliseconds timeout) const;

  /// This node's recorded execution trace of a completed ring query.
  /// Requires ServiceOptions::captureTraces; nullopt for aggregate
  /// queries, evicted entries and unknown ids.
  [[nodiscard]] std::optional<protocol::ExecutionTrace> traceOf(
      std::uint64_t queryId) const;

  /// Number of queries currently in flight (registered, not completed).
  /// A grouped query counts its parent entry and each locally served
  /// phase sub-query.
  [[nodiscard]] std::size_t activeQueries() const;

  /// Number of retained completed results (bounded by completedCap).
  [[nodiscard]] std::size_t completedQueries() const;

  /// Point-in-time copy of the process-wide metrics registry (the service
  /// records into the global registry, so one snapshot covers the service
  /// together with its transport/protocol/crypto substrate).  Render it
  /// with obs::renderPrometheus / obs::renderJson.
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const;

  /// Bound port of the embedded HTTP server; 0 when it is not running.
  [[nodiscard]] std::uint16_t httpPort() const;

  /// All spans retained in the ring buffer, oldest first (requires
  /// ServiceOptions::spanRingCapacity > 0; empty otherwise).
  [[nodiscard]] std::vector<obs::SpanRecord> spans() const;

  /// Retained spans of every trace that touched `queryId` (a grouped
  /// query's parent id returns the phase sub-query spans too).
  [[nodiscard]] std::vector<obs::SpanRecord> spansForQuery(
      std::uint64_t queryId) const;

  /// JSON object describing in-flight and recently retired queries (the
  /// /queries response body).
  [[nodiscard]] std::string queriesJson() const;

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

    // Initiator bookkeeping.
    std::promise<TopKVector> promise;
    bool promiseSettled = false;
    /// Holds one of the maxInflightInitiations slots (released when the
    /// query completes, aborts or is garbage-collected).
    bool admitted = false;

    std::chrono::steady_clock::time_point registeredAt;
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
    /// member of a grouped query.
    bool isParent = false;
    bool isCoordinator = false;
    /// The front node of its group ring joins the merge ring.
    bool isDelegate = false;
    /// Expected phase-2 query id (parents only; see protocol::mergeQueryId).
    std::uint64_t mergeId = 0;
    /// This node's own phase-1 sub-query id (parents only; see
    /// protocol::groupSubQueryId).
    std::uint64_t groupSubId = 0;
    /// Raw (protocol-space) phase-1 group result - the merge-ring input.
    std::optional<TopKVector> groupRaw;
    /// Full grouping, coordinator only.
    protocol::GroupLayout layout;

    // --- Robustness state (docs/ROBUSTNESS.md) ---
    // Wire copies for retransmission: the announce this node circulated
    // and the most recent protocol message it emitted.
    Bytes announceWire;
    Bytes lastMessage;
    // Last send or processed receive for this query; drives the
    // retransmission deadline.
    std::chrono::steady_clock::time_point lastActivity;
    // Consecutive send failures to the current successor.
    int sendFailures = 0;
    // Duplicate suppression for the single secure-sum pass (the ring path
    // suppresses duplicates inside the core participant).
    bool sumSeen = false;
    // Set when the query can no longer proceed (ring shrank below 3);
    // maintain() erases aborted entries.
    bool aborted = false;
  };

  /// A queued initiation (initiate() hands the promise over; the dispatch
  /// worker that runs the admission registers the query and sends the
  /// announce).
  struct Admission {
    QueryDescriptor descriptor;
    std::vector<NodeId> ringOrder;
    std::promise<TopKVector> promise;
  };

  /// A send recorded under the state lock and performed outside it (the
  /// transport may block; holding mutex_ across sends would serialize all
  /// queries behind one slow link).
  struct Outbound {
    std::uint64_t queryId = 0;
    Bytes wire;
    /// direct: one-shot best-effort send to `target` (group fan-out,
    /// repair notifies).  Otherwise the wire goes to the query's CURRENT
    /// ring successor with failure accounting + ring repair.
    NodeId target = 0;
    bool direct = false;
  };

  /// A query that finished its protocol; applied after the outbound batch
  /// flushes so the final forward leaves while the state is still alive.
  struct Completion {
    std::uint64_t queryId = 0;
    TopKVector raw;  ///< protocol-space result (pre-presentation)
  };

  /// What a retired query leaves behind for recovery: its raw
  /// (protocol-space) result and the ring it ran on, so a ring member
  /// whose ResultAnnouncement hop was lost can be answered when its
  /// retransmission arrives here (see replayCompletedResult).
  struct CompletedReplay {
    TopKVector raw;
    std::vector<NodeId> ring;
  };

  /// A decoded message plus its transport-level sender (the sender is
  /// needed to answer retransmissions for already-retired queries).
  struct Inbound {
    NodeId from = 0;
    net::Message message;
    /// Delivery timestamp (EventTracer::nowNs); the dispatcher derives the
    /// scheduler queue wait recorded on spans from it.
    std::int64_t receivedAtNs = 0;
  };

  using WorkItem = std::variant<Inbound, Admission>;

  /// A local table scan that onAnnounce hands back: runWorkItem flushes
  /// the forwarded announce, runs the scan with no lock held and then
  /// builds the query's protocol state from it (see runScan).
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

  /// The transport's delivery handler: decodes and enqueues (schedMutex_
  /// only, never mutex_).  Runs on a transport or peer sender thread.
  void onEnvelope(net::Envelope&& envelope);
  void dispatchLoop();
  /// Runs maintain() when its deadline is due; of the workers that find
  /// it due, only the one that advances the deadline runs it.
  void maintainIfDue();

  // Keyed run queue (schedMutex_): per-query serial, cross-query parallel.
  void enqueueWork(std::uint64_t key, WorkItem item);
  /// Pops the next ready item, waiting until the maintenance deadline at
  /// most; nullopt when nothing became ready or the service is stopping.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, WorkItem>> popWork();
  void finishKey(std::uint64_t key);
  /// Moves queued admissions into the run queue while in-flight slots are
  /// free.  schedMutex_ must be held.
  void admitPending();
  void releaseInflightSlot();

  /// Processes one work item: handle/initiate, flush sends, run a pending
  /// local scan, apply completions (which may queue more sends) until
  /// quiescent.
  void runWorkItem(std::uint64_t key, WorkItem& item);
  /// Runs `scan` outside mutex_, then takes it to build the query's
  /// protocol state (and open a delegated-start ring).  A failed scan
  /// aborts the query on this node.  mutex_ must NOT be held.
  void runScan(const PendingScan& scan, std::vector<Outbound>& out);

  /// Stale-query GC + retransmission deadlines + aborted-query sweep.
  void maintain();

  // Message handlers.  mutex_ held; sends are queued on `out`, finished
  // queries on `done`, and an announce that needs this node's table
  // scanned hands the scan back.  `queueNs` is the scheduler queue wait of
  // the message being handled (recorded on emitted spans; 0 for replays).
  [[nodiscard]] std::optional<PendingScan> handleMessage(
      NodeId from, const net::Message& message, std::int64_t queueNs,
      std::vector<Outbound>& out, std::deque<Completion>& done);
  [[nodiscard]] std::optional<PendingScan> onAnnounce(
      const net::QueryAnnounce& announce, std::int64_t queueNs,
      std::vector<Outbound>& out);
  void onMergeAnnounce(const net::QueryAnnounce& announce,
                       const QueryDescriptor& descriptor, std::int64_t queueNs,
                       std::vector<Outbound>& out);
  void onRoundToken(NodeId from, const net::RoundToken& token,
                    std::int64_t queueNs, std::vector<Outbound>& out,
                    std::deque<Completion>& done);
  void onSumToken(NodeId from, const net::SumToken& token, std::int64_t queueNs,
                  std::vector<Outbound>& out, std::deque<Completion>& done);
  void onResult(const net::ResultAnnouncement& result, std::int64_t queueNs,
                std::vector<Outbound>& out, std::deque<Completion>& done);
  void onRingRepair(const net::RingRepair& repair, std::vector<Outbound>& out);
  /// Answers a token for a query this node already retired by replaying
  /// the stored ResultAnnouncement straight back to the sender (ring
  /// members only): a follower whose dissemination hop was lost would
  /// otherwise retransmit into completed peers until the stale GC.
  /// Returns true when a replay was queued.  mutex_ held.
  bool replayCompletedResult(std::uint64_t queryId, NodeId from,
                             std::vector<Outbound>& out);

  // Initiation (runs on a dispatch worker).
  void performInitiation(Admission& admission, std::vector<Outbound>& out);
  void beginFlat(Admission& admission, std::vector<Outbound>& out);
  void beginGrouped(Admission& admission, std::vector<Outbound>& out);

  // Grouped orchestration (mutex_ held).
  void registerParentFollower(const net::QueryAnnounce& announce,
                              const QueryDescriptor& subDescriptor,
                              const obs::TraceContext& ctx);
  void startMergePhase(QueryState& parent, std::vector<Outbound>& out);
  void onGroupPhaseDone(std::uint64_t parentId, TopKVector raw,
                        std::chrono::steady_clock::time_point startedAt,
                        std::vector<Outbound>& out,
                        std::deque<Completion>& done);
  void onMergePhaseDone(std::uint64_t parentId, TopKVector raw,
                        std::chrono::steady_clock::time_point startedAt,
                        std::vector<Outbound>& out,
                        std::deque<Completion>& done);
  /// Queues merge-phase traffic that raced ahead of this delegate's own
  /// phase-1 completion; returns false when the message is not stashable.
  bool maybeStashMergeTraffic(std::uint64_t queryId,
                              const net::Message& message);
  /// Holds `message` for replay when the grouped query's phase 1
  /// completes here (bounded by kStashCap; overflow is dropped).
  void stash(std::uint64_t parentId, net::Message message);
  void replayStashed(std::uint64_t parentId, std::vector<Outbound>& out,
                     std::deque<Completion>& done);

  /// The query's live ring: the core participant's view for ring queries,
  /// the locally tracked order for aggregates and parent entries.
  [[nodiscard]] static const std::vector<NodeId>& ringOf(
      const QueryState& state);
  /// Splices `dead` out of the query's ring (core participant or local
  /// order).  Does not touch metrics or abort state.
  [[nodiscard]] static protocol::core::RepairOutcome applyRepair(
      QueryState& state, NodeId dead);
  [[nodiscard]] NodeId successorFor(const QueryState& state) const;

  /// Records `message` as the query's latest outbound payload and queues
  /// it for the successor (delivered by flushOutbound with failure
  /// accounting and ring repair).  mutex_ held.
  void queueSend(QueryState& state, const net::Message& message,
                 std::vector<Outbound>& out);
  /// Performs the queued sends.  mutex_ must NOT be held (it is taken
  /// per-item to resolve the current successor / count failures).
  void flushOutbound(std::vector<Outbound>& out);
  /// Declares `dead` failed: repairs the ring, queues the repair notify,
  /// and aborts the query when fewer than 3 nodes remain.  Returns true
  /// when the query can continue.  mutex_ held.
  bool repairAfterDeadSuccessor(QueryState& state, NodeId dead,
                                std::vector<Outbound>& out);
  /// Marks the query unable to proceed and fails the initiator's future.
  void abortQuery(QueryState& state, const std::string& reason);
  /// Builds the core participant (and optional trace sink) for a ring
  /// query this node serves.  `algRng` seeds the local algorithm: the
  /// service's own stream for flat queries, a derived per-phase stream for
  /// grouped sub-queries (protocol::groupPhaseSeed).
  void buildParticipant(QueryState& state, const QueryDescriptor& descriptor,
                        std::vector<NodeId> ringOrder, TopKVector localInput,
                        Rng& algRng);
  void beginRounds(QueryState& state, std::vector<Outbound>& out);
  /// Retires a finished query: metrics, presentation, promise, completed
  /// cache, grouped phase hand-off.  mutex_ held.
  void applyCompletion(Completion completion, std::vector<Outbound>& out,
                       std::deque<Completion>& done);

  // --- Distributed tracing ---

  /// Fans spans into the ring buffer (when retained) and the global
  /// EventTracer JSON stream (when enabled).
  struct SpanFan final : obs::TraceSink {
    obs::SpanRingBuffer* buffer = nullptr;
    void recordSpan(const obs::SpanRecord& span) override;
  };

  /// Serves one request of the embedded HTTP endpoint.
  [[nodiscard]] net::HttpResponse handleHttp(const net::HttpRequest& request);

  /// Cached global-metric cells (see docs/OBSERVABILITY.md for the
  /// catalog); registration happens once at service construction.
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

  NodeId self_;
  const data::PrivateDatabase* db_;
  net::Transport* transport_;
  std::uint64_t seed_;
  Rng rng_;
  ServiceOptions options_;
  Metrics metrics_;

  mutable std::mutex mutex_;
  mutable std::condition_variable completedCv_;
  std::map<std::uint64_t, QueryState> active_;
  std::map<std::uint64_t, TopKVector> completed_;
  /// Replay state for retired queries (evicted in lockstep with
  /// completed_).
  std::map<std::uint64_t, CompletedReplay> completedReplay_;
  std::map<std::uint64_t, protocol::ExecutionTrace> completedTraces_;
  // Insertion order of completed_ entries, oldest first (LRU eviction).
  std::deque<std::uint64_t> completedOrder_;
  /// merge query id -> parent query id, for stashing merge traffic that
  /// arrives before this delegate finished its phase-1 run.
  std::map<std::uint64_t, std::uint64_t> mergeParents_;
  /// parent query id -> traffic waiting for this node's group result.
  std::map<std::uint64_t, std::vector<net::Message>> stashed_;

  // Scheduler state.  Lock order: never hold mutex_ and schedMutex_
  // together (each is always taken and released independently).
  mutable std::mutex schedMutex_;
  std::condition_variable schedCv_;
  std::map<std::uint64_t, std::deque<WorkItem>> inbox_;
  std::set<std::uint64_t> readyKeys_;  // non-empty inbox, not being run
  std::set<std::uint64_t> busyKeys_;
  std::deque<Admission> admissionQueue_;
  /// Ids queued or admitted but not yet registered in active_, so
  /// initiate() rejects duplicates deterministically before the dispatch
  /// worker runs the admission.
  std::set<std::uint64_t> pendingIds_;
  std::atomic<std::size_t> inflightInitiations_{0};

  // Tracing + scrape endpoint.
  std::unique_ptr<obs::SpanRingBuffer> spanBuffer_;
  SpanFan spanFan_;
  std::unique_ptr<net::HttpServer> http_;

  /// When maintain() is next due (see maintainIfDue).
  std::atomic<std::chrono::steady_clock::time_point> nextMaintain_{};
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
};

}  // namespace privtopk::query
