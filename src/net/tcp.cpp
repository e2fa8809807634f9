#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hpp"
#include "net/socket_util.hpp"

namespace privtopk::net {

namespace {

const obs::Labels kTcpLabels{{"transport", "tcp"}};

using namespace std::chrono_literals;

/// Listener backoff after a resource-exhaustion accept failure: long
/// enough for fds to be released, short enough that a healthy peer's
/// connect attempt still lands within its own connect timeout.
constexpr auto kAcceptBackoff = 50ms;

/// Delay between connect attempts while the peer's listener comes up.
constexpr auto kConnectRetryDelay = 20ms;

/// Frames gathered into one writev(); 2 iovecs per frame (header + body).
constexpr std::size_t kMaxWritevFrames = 64;

std::array<std::uint8_t, 4> lenHeader(std::size_t n) {
  std::array<std::uint8_t, 4> h{};
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::uint8_t>(n >> (8 * i));
  return h;
}

std::uint32_t decodeLe32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameReader
// ---------------------------------------------------------------------------

bool TcpTransport::FrameReader::pump(
    int fd, const std::function<bool(Bytes&&)>& sink) {
  for (;;) {
    if (!inBody_) {
      while (headerGot_ < 4) {
        const ssize_t n =
            ::recv(fd, header_.data() + headerGot_, 4 - headerGot_, 0);
        if (n == 0) {
          if (headerGot_ == 0) return false;  // clean EOF between frames
          throw TransportError("tcp connection closed mid-frame");
        }
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
          throw TransportError(std::string("socket recv failed: ") +
                               std::strerror(errno));
        }
        headerGot_ += static_cast<std::size_t>(n);
      }
      const std::uint32_t len = decodeLe32(header_.data());
      if (len > kMaxFrame) throw TransportError("tcp frame too large");
      body_.assign(len, 0);
      bodyGot_ = 0;
      inBody_ = true;
    }
    while (bodyGot_ < body_.size()) {
      const ssize_t n =
          ::recv(fd, body_.data() + bodyGot_, body_.size() - bodyGot_, 0);
      if (n == 0) throw TransportError("tcp connection closed mid-frame");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        throw TransportError(std::string("socket recv failed: ") +
                             std::strerror(errno));
      }
      bodyGot_ += static_cast<std::size_t>(n);
    }
    inBody_ = false;
    headerGot_ = 0;
    if (!sink(std::move(body_))) return true;
  }
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(NodeId self, std::vector<TcpPeer> peers,
                           TcpOptions options)
    : self_(self), options_(options), inbox_(self, kTcpLabels),
      metricMessagesSent_(
          obs::counter("privtopk.transport.messages_sent", kTcpLabels)),
      metricBytesSent_(
          obs::counter("privtopk.transport.bytes_sent", kTcpLabels)),
      metricSendErrors_(
          obs::counter("privtopk.transport.send_errors", kTcpLabels)),
      metricLinksEvicted_(
          obs::counter("privtopk.transport.links_evicted", kTcpLabels)),
      metricReconnects_(
          obs::counter("privtopk.transport.reconnects", kTcpLabels)),
      metricHandshakeRejected_(
          obs::counter("privtopk.transport.handshake_rejected", kTcpLabels)),
      metricAcceptRetries_(
          obs::counter("privtopk.transport.accept_retries", kTcpLabels)),
      metricOverloadRejected_(
          obs::counter("privtopk.transport.overload_rejected", kTcpLabels)),
      metricFramesCoalesced_(
          obs::counter("privtopk.transport.frames_coalesced", kTcpLabels)),
      metricInlineWrites_(
          obs::counter("privtopk.transport.inline_writes", kTcpLabels)),
      metricWriteQueueDepth_(
          obs::gauge("privtopk.transport.write_queue_depth", kTcpLabels)) {
  for (const auto& p : peers) peers_[p.id] = p;
  const auto it = peers_.find(self);
  if (it == peers_.end()) {
    throw TransportError("TcpTransport: self not in peer list");
  }
  if (options_.encrypt && options_.group == nullptr) {
    options_.group = &crypto::DhGroup::test512();
  }
  injectAcceptErrorsLeft_ = options_.testInjectAcceptErrors;
  for (const auto& [id, peer] : peers_) {
    outLinks_.emplace(id, std::make_unique<OutLink>(id));
  }
  listenFd_ = makeListener(it->second.port, listenPort_);
  setNonBlocking(listenFd_);
  reactor_.add(listenFd_, EPOLLIN, [this](std::uint32_t ev) {
    acceptReady(ev);
  });
  reactor_.start();
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;

  // Joining the reactor first makes the rest single-threaded: no handler
  // can run concurrently with this teardown (sender threads only touch the
  // mutex-guarded link fields, which we take below).
  reactor_.stop();

  if (listenFd_ >= 0) {
    reactor_.remove(listenFd_);
    ::close(listenFd_);
    listenFd_ = -1;
  }
  for (auto& [fd, conn] : inConns_) {
    reactor_.remove(conn->fd);
    ::close(conn->fd);
  }
  inConns_.clear();

  std::size_t droppedQueued = 0;
  for (auto& [id, link] : outLinks_) {
    // Close under the link mutex so an in-progress inline send() can
    // never race the fd teardown.
    std::scoped_lock lock(link->mutex);
    if (link->fd >= 0) {
      if (link->registered) reactor_.remove(link->fd);
      ::close(link->fd);
      link->fd = -1;
      link->registered = false;
    }
    link->inflight.clear();
    link->wireIdle = false;
    link->inlinePending = false;
    link->inlineBody = Bytes();
    link->state = OutLink::State::Failed;
    link->failReason = "transport shut down";
    droppedQueued += link->queue.size();
    link->queue.clear();
    link->queuedBytes = 0;
  }
  if (droppedQueued > 0) {
    metricWriteQueueDepth_.sub(static_cast<std::int64_t>(droppedQueued));
  }
  inbox_.shutdown();
}

// ---------------------------------------------------------------------------
// Accept path
// ---------------------------------------------------------------------------

void TcpTransport::acceptReady(std::uint32_t) {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd = ::accept4(listenFd_, reinterpret_cast<sockaddr*>(&peer),
                             &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR) continue;
      acceptRetries_.fetch_add(1);
      metricAcceptRetries_.inc();
      if (err == ECONNABORTED || err == EPROTO) {
        // The connection died between SYN and accept(); the listener is
        // fine.  (The pre-reactor transport returned here, permanently
        // killing the node's ability to accept.)
        continue;
      }
      // Resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) or anything
      // unexpected: pause briefly and retry rather than dying.
      PRIVTOPK_LOG_WARN("tcp accept failed (retrying): ",
                        std::strerror(err));
      pauseAcceptFor(kAcceptBackoff);
      return;
    }
    if (injectAcceptErrorsLeft_ > 0) {
      // Test seam: behave as if accept() had returned ECONNABORTED, then
      // take the same backoff path a resource failure would.
      --injectAcceptErrorsLeft_;
      acceptRetries_.fetch_add(1);
      metricAcceptRetries_.inc();
      ::close(fd);
      pauseAcceptFor(kConnectRetryDelay);
      return;
    }
    setTcpNoDelay(fd);
    auto conn = std::make_unique<InConn>();
    conn->fd = fd;
    InConn* raw = conn.get();
    // The whole inbound handshake (hello + optional DH) runs under the
    // same deadline the dialer applies to its side.
    conn->deadlineTimer =
        reactor_.runAfter(options_.connectTimeout, [this, raw] {
          raw->deadlineTimer = 0;
          PRIVTOPK_LOG_WARN("tcp inbound handshake timed out");
          closeInConn(raw);
        });
    inConns_.emplace(fd, std::move(conn));
    reactor_.add(fd, EPOLLIN, [this, raw](std::uint32_t ev) {
      inConnReady(raw, ev);
    });
  }
}

void TcpTransport::pauseAcceptFor(std::chrono::milliseconds backoff) {
  if (acceptPaused_) return;
  acceptPaused_ = true;
  reactor_.remove(listenFd_);
  reactor_.runAfter(backoff, [this] {
    acceptPaused_ = false;
    if (listenFd_ < 0) return;
    reactor_.add(listenFd_, EPOLLIN, [this](std::uint32_t ev) {
      acceptReady(ev);
    });
  });
}

void TcpTransport::inConnReady(InConn* conn, std::uint32_t events) {
  try {
    if ((events & EPOLLOUT) != 0 && conn->replyPending) flushInReply(conn);
    if ((events & EPOLLIN) != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
      const bool open = conn->reader.pump(conn->fd, [&](Bytes&& frame) {
        return handleInFrame(conn, std::move(frame));
      });
      if (!open) closeInConn(conn);
    }
  } catch (const Error& e) {
    if (!shutdown_.load()) {
      PRIVTOPK_LOG_WARN("tcp inbound connection dropped: ", e.what());
    }
    closeInConn(conn);
  }
}

bool TcpTransport::handleInFrame(InConn* conn, Bytes&& frame) {
  switch (conn->phase) {
    case InConn::Phase::AwaitHello: {
      if (frame.size() != 4) {
        handshakeRejected_.fetch_add(1);
        metricHandshakeRejected_.inc();
        throw TransportError("malformed hello frame");
      }
      const NodeId from = decodeLe32(frame.data());
      if (peers_.find(from) == peers_.end()) {
        // An id outside the address book never reaches the inbox: before
        // this check a spoofed hello flowed straight up to NodeService.
        handshakeRejected_.fetch_add(1);
        metricHandshakeRejected_.inc();
        throw TransportError("rejected hello claiming unknown node " +
                             std::to_string(from));
      }
      conn->from = from;
      if (options_.encrypt) {
        conn->phase = InConn::Phase::AwaitDhHello;
      } else {
        conn->phase = InConn::Phase::Streaming;
        if (conn->deadlineTimer != 0) {
          reactor_.cancel(conn->deadlineTimer);
          conn->deadlineTimer = 0;
        }
      }
      return true;
    }
    case InConn::Phase::AwaitDhHello: {
      // Responder side of the handshake: read the initiator's public
      // value, answer with ours.
      Rng rng(splitmix64(options_.keySeed ^
                         (static_cast<std::uint64_t>(self_) << 32) ^
                         conn->from ^ 0xACCE55ULL));
      crypto::SecureHandshake hs(crypto::SecureHandshake::Role::Responder,
                                 *options_.group, rng);
      Bytes hello = hs.localHello();
      conn->reply = Frame{lenHeader(hello.size()), std::move(hello)};
      conn->replyOff = 0;
      conn->replyPending = true;
      conn->session =
          std::make_unique<crypto::SecureSession>(hs.deriveSession(frame));
      flushInReply(conn);
      conn->phase = InConn::Phase::Streaming;
      if (conn->deadlineTimer != 0) {
        reactor_.cancel(conn->deadlineTimer);
        conn->deadlineTimer = 0;
      }
      return true;
    }
    case InConn::Phase::Streaming: {
      Bytes payload =
          conn->session ? conn->session->open(frame) : std::move(frame);
      deliver(conn->from, std::move(payload));
      return true;
    }
  }
  return true;
}

void TcpTransport::flushInReply(InConn* conn) {
  while (conn->replyPending) {
    iovec iov[2];
    int cnt = 0;
    if (conn->replyOff < 4) {
      iov[cnt].iov_base = conn->reply.header.data() + conn->replyOff;
      iov[cnt].iov_len = 4 - conn->replyOff;
      ++cnt;
    }
    const std::size_t bodyOff = conn->replyOff > 4 ? conn->replyOff - 4 : 0;
    if (conn->reply.body.size() > bodyOff) {
      iov[cnt].iov_base = conn->reply.body.data() + bodyOff;
      iov[cnt].iov_len = conn->reply.body.size() - bodyOff;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    // sendmsg, not writev: MSG_NOSIGNAL turns a dead peer into an error
    // instead of a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        reactor_.modify(conn->fd, EPOLLIN | EPOLLOUT);
        return;
      }
      throw TransportError(std::string("handshake reply write failed: ") +
                           std::strerror(errno));
    }
    conn->replyOff += static_cast<std::size_t>(n);
    if (conn->replyOff >= 4 + conn->reply.body.size()) {
      conn->replyPending = false;
      conn->reply.body.clear();
      reactor_.modify(conn->fd, EPOLLIN);
    }
  }
}

void TcpTransport::closeInConn(InConn* conn) {
  if (conn->deadlineTimer != 0) {
    reactor_.cancel(conn->deadlineTimer);
    conn->deadlineTimer = 0;
  }
  const int fd = conn->fd;
  reactor_.remove(fd);
  ::close(fd);
  inConns_.erase(fd);  // frees conn
}

void TcpTransport::deliver(NodeId from, Bytes&& payload) {
  messagesReceived_.fetch_add(1);
  bytesReceived_.fetch_add(payload.size());
  inbox_.deliver(Envelope{from, self_, std::move(payload)});
}

std::optional<Envelope> TcpTransport::receive(
    NodeId node, std::chrono::milliseconds timeout) {
  if (node != self_) {
    throw TransportError("TcpTransport: can only receive as self");
  }
  return inbox_.receive(timeout);
}

void TcpTransport::subscribe(NodeId node, DeliveryHandler handler) {
  if (node != self_) {
    throw TransportError("TcpTransport: can only subscribe as self");
  }
  inbox_.subscribe(std::move(handler));
}

void TcpTransport::unsubscribe(NodeId node) {
  if (node == self_) inbox_.unsubscribe();
}

// ---------------------------------------------------------------------------
// Outgoing links
// ---------------------------------------------------------------------------

void TcpTransport::send(NodeId from, NodeId to, const Bytes& payload) {
  if (from != self_) {
    throw TransportError("TcpTransport: can only send as self");
  }
  if (shutdown_.load()) throw TransportError("TcpTransport: shut down");
  const auto peerIt = peers_.find(to);
  if (peerIt == peers_.end()) {
    throw TransportError("TcpTransport: unknown peer " + std::to_string(to));
  }
  const std::size_t wireSize =
      payload.size() + (options_.encrypt ? kSealOverhead : 0);
  if (wireSize > kMaxFrame) {
    // A caller error, not a link failure: the link stays healthy.
    metricSendErrors_.inc();
    throw TransportError("TcpTransport: payload exceeds kMaxFrame (" +
                         std::to_string(payload.size()) + " bytes)");
  }

  OutLink* link = outLinks_.find(to)->second.get();
  bool kick = false;
  bool inlined = false;
  std::string inlineFailure;
  {
    std::scoped_lock lock(link->mutex);
    switch (link->state) {
      case OutLink::State::Failed: {
        // Surface the failure the reactor recorded and re-arm the slot:
        // the NEXT send dials fresh.  This is how asynchronous link death
        // still feeds the service layer's dead-successor detection.
        const std::string reason = link->failReason;
        link->state = OutLink::State::Idle;
        metricSendErrors_.inc();
        throw TransportError("TcpTransport: link to " + std::to_string(to) +
                             " failed: " + reason);
      }
      case OutLink::State::Idle:
        link->state = OutLink::State::Connecting;
        if (link->everFailed) metricReconnects_.inc();
        break;
      case OutLink::State::Connecting:
      case OutLink::State::Established:
        break;
    }

    // Inline fast path: an Established plaintext link with nothing in
    // flight and nothing queued writes straight from the caller thread -
    // one sendmsg, no reactor wakeup, no queue latency.  The mutex makes
    // this safe: failLink/shutdown close the fd under it, the reactor
    // only writes when wireIdle is false, and concurrent senders
    // serialize here so FIFO order holds.  Encrypted links always take
    // the queue (sealing mutates the session's sequence counter, which is
    // reactor-thread state).
    if (!options_.encrypt && link->state == OutLink::State::Established &&
        link->wireIdle && link->queue.empty() && link->fd >= 0) {
      const std::array<std::uint8_t, 4> header = lenHeader(payload.size());
      iovec iov[2];
      iov[0].iov_base = const_cast<std::uint8_t*>(header.data());
      iov[0].iov_len = header.size();
      iov[1].iov_base = const_cast<std::uint8_t*>(payload.data());
      iov[1].iov_len = payload.size();
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = payload.empty() ? 1 : 2;
      ssize_t n = 0;
      do {
        n = ::sendmsg(link->fd, &msg, MSG_NOSIGNAL);
      } while (n < 0 && errno == EINTR);
      const std::size_t total = header.size() + payload.size();
      if (n == static_cast<ssize_t>(total)) {
        inlined = true;  // fully on the wire; the link stays idle
      } else if (n >= 0) {
        // Partial write: park the remainder for the reactor to finish
        // ahead of any frames queued after it.
        link->inlinePending = true;
        link->inlineHeader = header;
        link->inlineBody = payload;
        link->inlineOff = static_cast<std::size_t>(n);
        link->wireIdle = false;
        inlined = true;
        if (!link->kickPending) {
          link->kickPending = true;
          kick = true;
        }
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: fall through to the queued slow path.
        link->wireIdle = false;
      } else {
        // Socket error: have the reactor tear the link down (it owns the
        // registration) and surface the failure to this caller now.
        link->wireIdle = false;
        inlineFailure = std::strerror(errno);
      }
    }

    if (!inlined && inlineFailure.empty()) {
      if (link->queue.size() >= options_.maxQueuedFramesPerPeer ||
          link->queuedBytes + payload.size() >
              options_.maxQueuedBytesPerPeer) {
        metricOverloadRejected_.inc();
        throw OverloadError(
            "TcpTransport: write queue to " + std::to_string(to) +
                " is full (" + std::to_string(link->queue.size()) +
                " frames)",
            std::chrono::milliseconds(10));
      }
      link->wireIdle = false;
      link->queue.push_back(payload);
      link->queuedBytes += payload.size();
      if (!link->kickPending) {
        link->kickPending = true;
        kick = true;
      }
    }
  }
  if (!inlineFailure.empty()) {
    reactor_.post([this, link, inlineFailure] {
      failLink(link, "inline write failed: " + inlineFailure);
    });
    metricSendErrors_.inc();
    throw TransportError("TcpTransport: link to " + std::to_string(to) +
                         " failed: inline write failed: " + inlineFailure);
  }
  if (inlined) {
    metricInlineWrites_.inc();
  } else {
    metricWriteQueueDepth_.add(1);
  }
  if (kick) {
    reactor_.post([this, link] { kickLink(link); });
  }
  messagesSent_.fetch_add(1);
  bytesSent_.fetch_add(payload.size());
  metricMessagesSent_.inc();
  metricBytesSent_.inc(payload.size());
}

void TcpTransport::kickLink(OutLink* link) {
  bool needConnect = false;
  {
    std::scoped_lock lock(link->mutex);
    link->kickPending = false;
    switch (link->state) {
      case OutLink::State::Connecting:
        needConnect = link->fd < 0 && link->retryTimer == 0;
        break;
      case OutLink::State::Established:
        break;
      case OutLink::State::Idle:
      case OutLink::State::Failed:
        return;  // nothing in flight; a later send re-arms
    }
  }
  if (needConnect) {
    startConnect(link, /*freshDeadline=*/true);
  } else {
    drainLink(link);
  }
}

void TcpTransport::startConnect(OutLink* link, bool freshDeadline) {
  if (shutdown_.load()) return;
  const TcpPeer& peer = peers_.find(link->peer)->second;

  if (freshDeadline) {
    link->deadline = Reactor::Clock::now() + options_.connectTimeout;
    link->deadlineTimer = reactor_.runAt(link->deadline, [this, link] {
      link->deadlineTimer = 0;
      bool stillConnecting = false;
      {
        std::scoped_lock lock(link->mutex);
        stillConnecting = link->state == OutLink::State::Connecting;
      }
      if (stillConnecting) {
        failLink(link, "connect/handshake to " + std::to_string(link->peer) +
                           " timed out");
      }
    });
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
    failLink(link, "bad peer host " + peer.host);
    return;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    failLink(link, "socket() failed");
    return;
  }
  setTcpNoDelay(fd);
  if (options_.sendBufferBytes > 0) {
    setSendBuffer(fd, options_.sendBufferBytes);
  }
  link->fd = fd;

  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  if (rc == 0) {
    reactor_.add(fd, EPOLLIN, [this, link](std::uint32_t ev) {
      outReady(link, ev);
    });
    link->registered = true;
    onConnected(link);
    return;
  }
  if (errno == EINPROGRESS) {
    link->connectPending = true;
    reactor_.add(fd, EPOLLOUT, [this, link](std::uint32_t ev) {
      outReady(link, ev);
    });
    link->registered = true;
    return;
  }
  scheduleConnectRetry(link, std::strerror(errno));
}

void TcpTransport::scheduleConnectRetry(OutLink* link,
                                        const std::string& why) {
  if (link->fd >= 0) {
    if (link->registered) reactor_.remove(link->fd);
    ::close(link->fd);
    link->fd = -1;
    link->registered = false;
  }
  link->connectPending = false;
  if (Reactor::Clock::now() >= link->deadline) {
    failLink(link, "connect to " + std::to_string(link->peer) +
                       " timed out: " + why);
    return;
  }
  // Retry while the peer's listener comes up, under the cycle deadline.
  link->retryTimer = reactor_.runAfter(kConnectRetryDelay, [this, link] {
    link->retryTimer = 0;
    startConnect(link, /*freshDeadline=*/false);
  });
}

void TcpTransport::outReady(OutLink* link, std::uint32_t events) {
  if (link->fd < 0) return;
  if (link->connectPending) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(link->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      scheduleConnectRetry(link, std::strerror(err));
      return;
    }
    onConnected(link);
    return;
  }
  if ((events & EPOLLIN) != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
    readLink(link);
    if (link->fd < 0) return;  // the read evicted the link
  }
  if ((events & EPOLLOUT) != 0) drainLink(link);
}

void TcpTransport::onConnected(OutLink* link) {
  link->connectPending = false;
  reactor_.modify(link->fd, EPOLLIN);
  link->wantWrite = false;

  // Preload the identification hello (and, when encrypting, our DH hello)
  // ahead of any queued data frames.
  Bytes id(4);
  for (int i = 0; i < 4; ++i) {
    id[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(self_ >> (8 * i));
  }
  link->inflight.push_back(Frame{lenHeader(id.size()), std::move(id)});
  if (options_.encrypt) {
    Rng rng(splitmix64(options_.keySeed ^
                       (static_cast<std::uint64_t>(self_) << 32) ^
                       link->peer ^ 0x1417ULL));
    link->handshake = std::make_unique<crypto::SecureHandshake>(
        crypto::SecureHandshake::Role::Initiator, *options_.group, rng);
    Bytes hello = link->handshake->localHello();
    link->inflight.push_back(Frame{lenHeader(hello.size()), std::move(hello)});
    link->awaitingHandshake = true;
  } else {
    markEstablished(link);
  }
  drainLink(link);
}

void TcpTransport::markEstablished(OutLink* link) {
  if (link->deadlineTimer != 0) {
    reactor_.cancel(link->deadlineTimer);
    link->deadlineTimer = 0;
  }
  std::scoped_lock lock(link->mutex);
  if (link->state == OutLink::State::Connecting) {
    link->state = OutLink::State::Established;
  }
}

void TcpTransport::readLink(OutLink* link) {
  try {
    const bool open = link->reader.pump(link->fd, [&](Bytes&& frame) {
      if (link->awaitingHandshake) {
        link->session = std::make_unique<crypto::SecureSession>(
            link->handshake->deriveSession(frame));
        link->handshake.reset();
        link->awaitingHandshake = false;
        markEstablished(link);
        drainLink(link);  // sealed data frames can flow now
        return true;
      }
      // Peers never push data on the dialer's link after the handshake;
      // tolerate and discard instead of tearing the link down.
      return true;
    });
    if (!open) failLink(link, "peer closed the connection");
  } catch (const Error& e) {
    failLink(link, e.what());
  }
}

void TcpTransport::drainLink(OutLink* link) {
  if (link->fd < 0 || link->connectPending) return;
  const bool canCarryData = !options_.encrypt || link->session != nullptr;
  for (;;) {
    if (link->inflightIdx >= link->inflight.size()) {
      link->inflight.clear();
      link->inflightIdx = 0;
      link->inflightOff = 0;
      // Adopt queued frames only once the previous batch is fully on the
      // wire: swapping into `inflight` while the socket is backed up would
      // turn the bounded write queue into an unbounded staging buffer and
      // backpressure would never fire.
      if (canCarryData) {
        std::deque<Bytes> moved;
        {
          std::scoped_lock lock(link->mutex);
          // A partially inline-written frame goes first: its head bytes
          // are already on the wire, so nothing may overtake its tail.
          if (link->inlinePending) {
            link->inlinePending = false;
            link->inflight.push_back(
                Frame{link->inlineHeader, std::move(link->inlineBody)});
            link->inflightOff = link->inlineOff;
            link->inlineBody = Bytes();
            link->inlineOff = 0;
          }
          moved.swap(link->queue);
          link->queuedBytes = 0;
          // Fully drained and nothing new: open the inline fast path for
          // the next send (plaintext links only; sealing is reactor-side).
          link->wireIdle = link->inflight.empty() && moved.empty() &&
                           !options_.encrypt &&
                           link->state == OutLink::State::Established;
        }
        if (!moved.empty()) {
          metricWriteQueueDepth_.sub(static_cast<std::int64_t>(moved.size()));
          for (Bytes& payload : moved) {
            Bytes body = link->session ? link->session->seal(payload)
                                       : std::move(payload);
            link->inflight.push_back(
                Frame{lenHeader(body.size()), std::move(body)});
          }
        }
      }
      if (link->inflight.empty()) {
        setWantWrite(link, false);
        return;
      }
    }

    // Gather header+payload iovecs for as many queued frames as fit into
    // one writev: coalesced tokens for one ring successor cost one syscall.
    iovec iov[2 * kMaxWritevFrames];
    int cnt = 0;
    std::size_t frames = 0;
    std::size_t off = link->inflightOff;
    for (std::size_t i = link->inflightIdx;
         i < link->inflight.size() && frames < kMaxWritevFrames; ++i) {
      Frame& f = link->inflight[i];
      if (off < 4) {
        iov[cnt].iov_base = f.header.data() + off;
        iov[cnt].iov_len = 4 - off;
        ++cnt;
      }
      const std::size_t bodyOff = off > 4 ? off - 4 : 0;
      if (f.body.size() > bodyOff) {
        iov[cnt].iov_base = f.body.data() + bodyOff;
        iov[cnt].iov_len = f.body.size() - bodyOff;
        ++cnt;
      }
      off = 0;
      ++frames;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    // sendmsg, not writev: MSG_NOSIGNAL turns a dead peer into an error
    // instead of a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(link->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        setWantWrite(link, true);
        return;
      }
      failLink(link, std::string("write failed: ") + std::strerror(errno));
      return;
    }
    if (frames > 1) metricFramesCoalesced_.inc(frames - 1);
    std::size_t advanced = static_cast<std::size_t>(n);
    while (advanced > 0) {
      Frame& f = link->inflight[link->inflightIdx];
      const std::size_t total = 4 + f.body.size();
      const std::size_t remain = total - link->inflightOff;
      if (advanced >= remain) {
        advanced -= remain;
        link->inflightOff = 0;
        ++link->inflightIdx;
      } else {
        link->inflightOff += advanced;
        advanced = 0;
      }
    }
  }
}

void TcpTransport::setWantWrite(OutLink* link, bool want) {
  if (!link->registered || link->wantWrite == want) return;
  link->wantWrite = want;
  reactor_.modify(link->fd,
                  EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0));
}

void TcpTransport::failLink(OutLink* link, const std::string& reason) {
  if (link->deadlineTimer != 0) {
    reactor_.cancel(link->deadlineTimer);
    link->deadlineTimer = 0;
  }
  if (link->retryTimer != 0) {
    reactor_.cancel(link->retryTimer);
    link->retryTimer = 0;
  }
  bool wasEstablished = false;
  std::size_t droppedQueued = 0;
  {
    // The fd close happens UNDER the link mutex: an inline send() holding
    // the mutex finishes its sendmsg before the fd can be closed (and
    // once `state` flips to Failed no new inline write starts).
    std::scoped_lock lock(link->mutex);
    if (link->fd >= 0) {
      if (link->registered) reactor_.remove(link->fd);
      ::close(link->fd);
      link->fd = -1;
      link->registered = false;
    }
    link->connectPending = false;
    link->awaitingHandshake = false;
    link->wantWrite = false;
    link->handshake.reset();
    link->session.reset();
    link->inflight.clear();
    link->inflightIdx = 0;
    link->inflightOff = 0;
    link->reader = FrameReader();
    link->wireIdle = false;
    link->inlinePending = false;
    link->inlineBody = Bytes();
    link->inlineOff = 0;

    wasEstablished = link->state == OutLink::State::Established;
    link->state = OutLink::State::Failed;
    link->failReason = reason;
    link->everFailed = true;
    droppedQueued = link->queue.size();
    link->queue.clear();
    link->queuedBytes = 0;
  }
  if (droppedQueued > 0) {
    metricWriteQueueDepth_.sub(static_cast<std::int64_t>(droppedQueued));
  }
  if (wasEstablished) {
    linksEvicted_.fetch_add(1);
    metricLinksEvicted_.inc();
  }
  if (!shutdown_.load()) {
    PRIVTOPK_LOG_WARN("tcp link to ", link->peer, " failed: ", reason,
                      droppedQueued > 0
                          ? " (dropped " + std::to_string(droppedQueued) +
                                " queued frames)"
                          : "");
  }
}

}  // namespace privtopk::net
