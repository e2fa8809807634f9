// NodeService: a long-running participant daemon, and the one networked
// driver of the ring protocol (`privtopk node` runs exactly one).
//
// A real organization runs one service bound to its private database and
// its transport endpoint.  It answers query announces, runs any number of
// concurrent queries (any mix of initiators, top-k family through the
// randomized ring, sum/count/average through the masked secure-sum pass,
// §4.2 group-parallel queries), survives fail-stop peers and lost tokens
// (retransmission + §3.2 ring repair, docs/ROBUSTNESS.md), emits the spans
// of traced queries (docs/OBSERVABILITY.md) and optionally serves a
// loopback HTTP scrape endpoint: /metrics, /healthz, /queries and
// /trace/<query_id>.
//
// Shell and core: every per-query decision lives in query::ServiceCore
// (service_core.hpp), which is single-threaded and sans-I/O;
// query::ServiceSim runs the same core in virtual time.  NodeService is
// the shell around it and owns
//   * the transport subscription: the delivery handler (the TCP reactor or
//     an in-process sender) decodes each envelope into a keyed run queue
//     that workerThreads dispatchers drain - per-query FIFO, distinct
//     queries in parallel;
//   * the bounded admission queue and in-flight cap (initiate() throws
//     OverloadError with a retry-after hint when it is full);
//   * the maintenance deadline: whichever worker finds it due (every 25 ms)
//     ticks the core;
//   * the initiators' promises, the table scans (run with no lock held)
//     and the HTTP endpoint.
// It calls the core under its one mutex_ and performs the effects it
// returns.
//
// Ordering: links are FIFO per sender and the delivery handler enqueues in
// delivery order, so a query's announce enters the run queue before its
// first round token.  The announce's work item keeps the query's key busy
// through the scan after the forward, so the round-1 token waits until the
// protocol state exists - the order the core requires.

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

#include "data/database.hpp"
#include "net/http.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span_buffer.hpp"
#include "obs/trace.hpp"
#include "protocol/trace.hpp"
#include "query/descriptor.hpp"
#include "query/service_core.hpp"

namespace privtopk::query {

class NodeService {
 public:
  /// Binds the service to this node's id, private database and transport
  /// endpoint.  `seed` drives all of this node's protocol randomness; see
  /// ServiceOptions for the robustness and scheduling knobs.
  NodeService(NodeId self, const data::PrivateDatabase& db,
              net::Transport& transport, std::uint64_t seed,
              ServiceOptions options = {});
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
  /// saturated, not dead; ConfigError when the service is not running, or
  /// for a descriptor asking for per-round ring remapping, which the
  /// service does not run); a descriptor with groupSize >= 3 and enough
  /// nodes for three groups runs group-parallel (§4.2).  Returns a future
  /// resolving to the result in the query's natural presentation order.
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
  /// A queued initiation (initiate() hands the promise over; the dispatch
  /// worker that runs the admission scans the table and starts the query).
  struct Admission {
    QueryDescriptor descriptor;
    std::vector<NodeId> ringOrder;
    std::promise<TopKVector> promise;
  };

  /// A decoded message plus its transport-level sender (the sender is
  /// needed to answer retransmissions for already-retired queries).
  struct Inbound {
    NodeId from = 0;
    net::Message message;
    /// Delivery timestamp (EventTracer::nowNs); spans record the scheduler
    /// queue wait derived from it.
    std::int64_t receivedAtNs = 0;
  };

  using WorkItem = std::variant<Inbound, Admission>;

  /// The transport's delivery handler: decodes and enqueues (schedMutex_
  /// only, never mutex_).  Runs on a transport or peer sender thread.
  void onEnvelope(net::Envelope&& envelope);
  void dispatchLoop();
  /// Ticks the core when the maintenance deadline is due; of the workers
  /// that find it due, only the one that advances the deadline runs it.
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

  /// Processes one work item: feeds it to the core and performs the
  /// effects.
  void runWorkItem(WorkItem& item);
  /// Scans the table off-lock and starts the admitted query in the core;
  /// a failed start fails the promise and frees the slot.
  void performInitiation(Admission& admission);
  /// Performs `fx` with mutex_ NOT held: sends (reporting each ring send's
  /// fate to the core), retirements, then table scans, whose state the
  /// core builds under mutex_; what the core returns is performed in turn.
  void perform(ServiceCore::Effects fx);
  /// Settles the promises of retired queries this node initiated and frees
  /// their in-flight slots.  mutex_ held.
  void settle(std::vector<ServiceCore::Retirement>& retired);

  // --- Distributed tracing ---

  /// Fans spans into the ring buffer (when retained) and the global
  /// EventTracer JSON stream (when enabled).
  struct SpanFan final : obs::TraceSink {
    obs::SpanRingBuffer* buffer = nullptr;
    void recordSpan(const obs::SpanRecord& span) override;
  };

  /// Serves one request of the embedded HTTP endpoint.
  [[nodiscard]] net::HttpResponse handleHttp(const net::HttpRequest& request);

  NodeId self_;
  net::Transport* transport_;

  // Tracing (declared before core_, which holds a pointer to spanFan_).
  std::unique_ptr<obs::SpanRingBuffer> spanBuffer_;
  SpanFan spanFan_;

  mutable std::mutex mutex_;
  mutable std::condition_variable completedCv_;
  ServiceCore core_;  // mutex_
  /// Promises of begun initiations, by query id (mutex_).
  std::map<std::uint64_t, std::promise<TopKVector>> promises_;

  // Scheduler state.  Lock order: never hold mutex_ and schedMutex_
  // together (each is always taken and released independently).
  mutable std::mutex schedMutex_;
  std::condition_variable schedCv_;
  std::map<std::uint64_t, std::deque<WorkItem>> inbox_;
  std::set<std::uint64_t> readyKeys_;  // non-empty inbox, not being run
  std::set<std::uint64_t> busyKeys_;
  std::deque<Admission> admissionQueue_;
  /// Ids queued or admitted but not yet registered in the core, so
  /// initiate() rejects duplicates deterministically before the dispatch
  /// worker runs the admission.
  std::set<std::uint64_t> pendingIds_;
  std::atomic<std::size_t> inflightInitiations_{0};

  std::unique_ptr<net::HttpServer> http_;

  /// When maintenance is next due (see maintainIfDue).
  std::atomic<std::chrono::steady_clock::time_point> nextMaintain_{};
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
};

}  // namespace privtopk::query
