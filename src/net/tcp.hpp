// TCP transport: real sockets with length-prefixed frames and optional
// per-link authenticated encryption (DH handshake -> ChaCha20 + HMAC).
//
// Topology model: every node runs one TcpTransport bound to its own port
// and knows the host:port of every peer.  All socket I/O for a node is
// multiplexed onto ONE epoll reactor thread (net/reactor.hpp): accepted
// connections are state machines on the loop instead of one blocking
// reader thread each, outgoing connects + handshakes are non-blocking with
// a single deadline (TcpOptions::connectTimeout bounds connect AND
// handshake), and sends never block — send() seals nothing, copies
// nothing, just moves the payload into the peer's bounded write queue and
// wakes the reactor.  The reactor drains a queue by gathering many queued
// frames into one writev() (length-prefix and payload as separate iovecs,
// so coalescing token frames bound for the same ring successor costs one
// syscall and zero concatenation copies).
//
// Failure model (see docs/ROBUSTNESS.md): a link that fails (broken write,
// peer EOF, connect/handshake timeout) is evicted on the reactor; its
// queued frames are dropped (exactly the loss model of a dying TCP
// socket), and the NEXT send() to that peer surfaces a TransportError and
// re-arms the slot so the send after that dials fresh.  A full write queue
// is not a link failure: send() throws OverloadError (the peer is alive
// but slow - back off and retry) and the link keeps draining.
//
// Delivery: the reactor thread hands each inbound frame, in arrival
// order, to the node's Inbox (net/inbox.hpp), which calls the subscribed
// handler right there - the one thread between the socket and the
// consumer - or, without a subscriber, queues the frame for receive().
//
// Inbound trust: the 4-byte hello naming the dialing node is checked
// against the address book; connections claiming an unknown NodeId are
// closed and counted in privtopk.transport.handshake_rejected.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/dh.hpp"
#include "crypto/secure_channel.hpp"
#include "net/inbox.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {

/// Largest frame either side will put on (or accept from) the wire.
/// Enforced symmetrically: the frame decoder rejects oversized headers and
/// send() refuses oversized payloads instead of poisoning the receiver's
/// link.
inline constexpr std::uint32_t kMaxFrame = 64u << 20;  // 64 MiB

/// Bytes SecureSession::seal adds to a payload (8-byte sequence + 32-byte
/// MAC); send() pre-checks sealed size against kMaxFrame so an encrypted
/// frame never grows over the cap after queueing.
inline constexpr std::size_t kSealOverhead = 40;

/// Address book entry.
struct TcpPeer {
  NodeId id = 0;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// TcpTransport construction options.
struct TcpOptions {
  /// When true, every link runs a DH handshake at connect time and all
  /// frames are sealed (encrypt-then-MAC).
  bool encrypt = false;
  /// DH group for the handshake (tests use the fast 512-bit group).
  const crypto::DhGroup* group = nullptr;
  /// Seed for handshake key generation; mix in a per-process entropy
  /// source outside of tests.
  std::uint64_t keySeed = 0;
  /// Bounds connection setup end to end: connect retries while the peer's
  /// listener comes up AND the post-connect hello/DH exchange.  A peer
  /// that accepts but never answers fails the link at this deadline
  /// instead of hanging the sender.
  std::chrono::milliseconds connectTimeout{5000};
  /// Per-peer write-queue bounds; a send that would exceed either throws
  /// OverloadError (backpressure, the link stays healthy).
  std::size_t maxQueuedFramesPerPeer = 4096;
  std::size_t maxQueuedBytesPerPeer = 64u << 20;
  /// SO_SNDBUF for outgoing sockets (0 = kernel default).  Tests shrink it
  /// to force backpressure quickly.
  int sendBufferBytes = 0;
  /// Test seam for the accept-retry path: the listener artificially fails
  /// this many accepted connections (as if accept() returned ECONNABORTED)
  /// before behaving normally.
  int testInjectAcceptErrors = 0;
};

class TcpTransport final : public Transport {
 public:
  /// Binds and starts listening on the port that `peers` assigns to
  /// `self`.  Throws TransportError when the bind fails.
  TcpTransport(NodeId self, std::vector<TcpPeer> peers,
               TcpOptions options = TcpOptions());
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Enqueues `payload` on the peer's write queue and wakes the reactor.
  /// Throws TransportError for unknown peers, oversized payloads, a link
  /// that failed since the previous send (re-arming it for redial), or a
  /// shut-down transport; throws OverloadError when the write queue is
  /// full.  Never blocks on the network.
  void send(NodeId from, NodeId to, const Bytes& payload) override;
  [[nodiscard]] std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override;
  void shutdown() override;
  /// Native push: the reactor thread calls the handler (`node` must be
  /// this transport's own id).
  void subscribe(NodeId node, DeliveryHandler handler) override;
  void unsubscribe(NodeId node) override;

  /// The port the listener actually bound (useful with port 0 = ephemeral).
  [[nodiscard]] std::uint16_t listenPort() const { return listenPort_; }

  /// Traffic counters (payload level, before sealing overhead).
  [[nodiscard]] std::size_t messagesSent() const { return messagesSent_.load(); }
  [[nodiscard]] std::size_t messagesReceived() const {
    return messagesReceived_.load();
  }
  [[nodiscard]] std::size_t bytesSent() const { return bytesSent_.load(); }
  [[nodiscard]] std::size_t bytesReceived() const {
    return bytesReceived_.load();
  }
  /// Established links torn down after a failure (each is followed by a
  /// fresh dial on the second send after the error surfaced).
  [[nodiscard]] std::size_t linksEvicted() const { return linksEvicted_.load(); }
  /// Inbound connections rejected for claiming a NodeId outside the
  /// address book (or a malformed hello).
  [[nodiscard]] std::size_t handshakeRejected() const {
    return handshakeRejected_.load();
  }
  /// Transient accept() failures survived by the listener (the old
  /// transport died on the first one).
  [[nodiscard]] std::size_t acceptRetries() const {
    return acceptRetries_.load();
  }

 private:
  /// One wire frame: 4-byte little-endian length prefix + body, kept as
  /// separate buffers so writev() can gather them without concatenation.
  struct Frame {
    std::array<std::uint8_t, 4> header{};
    Bytes body;
  };

  /// Incremental length-prefixed frame decoder for non-blocking reads.
  class FrameReader {
   public:
    /// Reads until EAGAIN, EOF, or `sink` returns false.  Every complete
    /// frame is passed to `sink` (which may switch parsing phases).
    /// Returns false on clean EOF; throws TransportError on socket errors,
    /// mid-frame EOF, or an oversized header.
    bool pump(int fd, const std::function<bool(Bytes&&)>& sink);

   private:
    std::array<std::uint8_t, 4> header_{};
    std::size_t headerGot_ = 0;
    Bytes body_;
    std::size_t bodyGot_ = 0;
    bool inBody_ = false;
  };

  /// Outgoing link slot, one per peer, created up front.  `state`, the
  /// write queue, and the fail reason are shared with sender threads under
  /// `mutex`; everything else is reactor-thread-only.
  struct OutLink {
    explicit OutLink(NodeId id) : peer(id) {}

    const NodeId peer;

    enum class State { Idle, Connecting, Established, Failed };

    std::mutex mutex;
    State state = State::Idle;         // guarded by mutex
    std::string failReason;            // guarded by mutex
    std::deque<Bytes> queue;           // guarded by mutex
    std::size_t queuedBytes = 0;       // guarded by mutex
    bool kickPending = false;          // guarded by mutex
    bool everFailed = false;           // guarded by mutex

    // Inline-write fast path (plaintext links only).  `wireIdle` is set by
    // the reactor when the link is Established with nothing in flight and
    // nothing queued: the NEXT send() may then write straight from the
    // caller thread (one sendmsg, zero cross-thread handoff).  A partial
    // inline write parks its remainder here; the reactor adopts it ahead
    // of any queued frames on the next drain.  All five fields are guarded
    // by `mutex`, and failLink()/shutdown() close `fd` UNDER the mutex so
    // an inline sendmsg can never race the close.
    bool wireIdle = false;             // guarded by mutex
    bool inlinePending = false;        // guarded by mutex
    std::array<std::uint8_t, 4> inlineHeader{};  // guarded by mutex
    Bytes inlineBody;                  // guarded by mutex
    std::size_t inlineOff = 0;         // guarded by mutex

    // Reactor-thread-only connection state.
    int fd = -1;
    bool registered = false;           // fd added to the reactor
    bool connectPending = false;       // waiting for non-blocking connect
    bool awaitingHandshake = false;    // waiting for the responder's hello
    bool wantWrite = false;            // EPOLLOUT armed
    Reactor::Clock::time_point deadline{};
    Reactor::TimerId deadlineTimer = 0;
    Reactor::TimerId retryTimer = 0;
    std::unique_ptr<crypto::SecureHandshake> handshake;
    std::unique_ptr<crypto::SecureSession> session;
    std::vector<Frame> inflight;       // sealed frames being written
    std::size_t inflightIdx = 0;
    std::size_t inflightOff = 0;       // bytes of frame[idx] already written
    FrameReader reader;
  };

  /// Accepted connection state machine (reactor-thread-only).
  struct InConn {
    int fd = -1;
    enum class Phase { AwaitHello, AwaitDhHello, Streaming };
    Phase phase = Phase::AwaitHello;
    NodeId from = 0;
    std::unique_ptr<crypto::SecureSession> session;
    FrameReader reader;
    Frame reply;                       // responder DH hello pending write
    std::size_t replyOff = 0;
    bool replyPending = false;
    Reactor::TimerId deadlineTimer = 0;
  };

  // Reactor-thread handlers.
  void acceptReady(std::uint32_t events);
  void pauseAcceptFor(std::chrono::milliseconds backoff);
  void inConnReady(InConn* conn, std::uint32_t events);
  bool handleInFrame(InConn* conn, Bytes&& frame);
  void flushInReply(InConn* conn);
  void closeInConn(InConn* conn);
  void kickLink(OutLink* link);
  void startConnect(OutLink* link, bool freshDeadline);
  void scheduleConnectRetry(OutLink* link, const std::string& why);
  void outReady(OutLink* link, std::uint32_t events);
  void onConnected(OutLink* link);
  void markEstablished(OutLink* link);
  void readLink(OutLink* link);
  void drainLink(OutLink* link);
  void setWantWrite(OutLink* link, bool want);
  void failLink(OutLink* link, const std::string& reason);
  void deliver(NodeId from, Bytes&& payload);

  NodeId self_;
  std::map<NodeId, TcpPeer> peers_;
  TcpOptions options_;

  Reactor reactor_;
  int listenFd_ = -1;
  std::uint16_t listenPort_ = 0;
  bool acceptPaused_ = false;  // reactor-thread-only
  int injectAcceptErrorsLeft_ = 0;  // reactor-thread-only

  std::map<NodeId, std::unique_ptr<OutLink>> outLinks_;  // fixed after ctor
  std::unordered_map<int, std::unique_ptr<InConn>> inConns_;  // loop only

  Inbox inbox_;

  std::atomic<std::size_t> messagesSent_{0};
  std::atomic<std::size_t> messagesReceived_{0};
  std::atomic<std::size_t> bytesSent_{0};
  std::atomic<std::size_t> bytesReceived_{0};
  std::atomic<std::size_t> linksEvicted_{0};
  std::atomic<std::size_t> handshakeRejected_{0};
  std::atomic<std::size_t> acceptRetries_{0};

  // Cached global-metric cells (registration is cold; inc is lock-free).
  obs::Counter& metricMessagesSent_;
  obs::Counter& metricBytesSent_;
  obs::Counter& metricSendErrors_;
  obs::Counter& metricLinksEvicted_;
  obs::Counter& metricReconnects_;
  obs::Counter& metricHandshakeRejected_;
  obs::Counter& metricAcceptRetries_;
  obs::Counter& metricOverloadRejected_;
  obs::Counter& metricFramesCoalesced_;
  obs::Counter& metricInlineWrites_;
  obs::Gauge& metricWriteQueueDepth_;

  std::atomic<bool> shutdown_{false};
};

}  // namespace privtopk::net
