#include "net/fault.hpp"

#include <algorithm>
#include <charconv>
#include <thread>

#include "common/args.hpp"
#include "common/logging.hpp"

namespace privtopk::net {

namespace {

const obs::Labels kFaultLabels{{"transport", "fault"}};

/// Whole-token unsigned parse: rejects empty text and trailing garbage, so
/// "50x" is an error naming the token, not a silent 50.
std::size_t parseCount(const std::string& text, const std::string& clause) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    throw ConfigError("fault spec clause '" + clause + "': bad count '" +
                      text + "'");
  }
  return static_cast<std::size_t>(value);
}

NodeId parseNode(const std::string& text, const std::string& clause) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    throw ConfigError("fault spec clause '" + clause + "': bad node id '" +
                      text + "'");
  }
  return static_cast<NodeId>(value);
}

/// Parses "F->T" into a node pair.
std::pair<NodeId, NodeId> parseLink(const std::string& text,
                                    const std::string& clause) {
  const auto arrow = text.find("->");
  if (arrow == std::string::npos) {
    throw ConfigError("fault spec clause '" + clause +
                      "': expected FROM->TO link, got '" + text + "'");
  }
  return {parseNode(text.substr(0, arrow), clause),
          parseNode(text.substr(arrow + 2), clause)};
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), ';', ',');
  for (const std::string& clause : splitString(normalized, ',')) {
    if (clause.empty()) continue;
    const auto colon = clause.find(':');
    if (colon == std::string::npos) {
      throw ConfigError("fault spec clause '" + clause +
                        "': expected kind:args");
    }
    const std::string kind = clause.substr(0, colon);
    const std::string args = clause.substr(colon + 1);
    if (kind == "drop") {
      const auto lastColon = args.rfind(':');
      if (lastColon == std::string::npos) {
        throw ConfigError("fault spec clause '" + clause +
                          "': expected drop:FROM->TO:N");
      }
      const auto [from, to] = parseLink(args.substr(0, lastColon), clause);
      const std::size_t nth = parseCount(args.substr(lastColon + 1), clause);
      if (nth == 0) {
        throw ConfigError("fault spec clause '" + clause +
                          "': drop index is 1-based");
      }
      spec.drops.push_back({from, to, nth});
    } else if (kind == "delay") {
      const auto lastColon = args.rfind(':');
      if (lastColon == std::string::npos) {
        throw ConfigError("fault spec clause '" + clause +
                          "': expected delay:FROM->TO:MS");
      }
      const auto [from, to] = parseLink(args.substr(0, lastColon), clause);
      const std::size_t ms = parseCount(args.substr(lastColon + 1), clause);
      spec.delays.push_back(
          {from, to, std::chrono::milliseconds(static_cast<long>(ms))});
    } else if (kind == "crash") {
      const auto at = args.find('@');
      if (at == std::string::npos) {
        throw ConfigError("fault spec clause '" + clause +
                          "': expected crash:NODE@N");
      }
      FaultSpec::Crash crash;
      crash.node = parseNode(args.substr(0, at), clause);
      crash.afterSends = parseCount(args.substr(at + 1), clause);
      spec.crashes.push_back(crash);
    } else {
      throw ConfigError("fault spec clause '" + clause + "': unknown kind '" +
                        kind + "' (drop|delay|crash)");
    }
  }
  return spec;
}

std::string FaultSpec::toString() const {
  std::vector<std::string> parts;
  for (const auto& d : drops) {
    parts.push_back("drop:" + std::to_string(d.from) + "->" +
                    std::to_string(d.to) + ":" + std::to_string(d.nth));
  }
  for (const auto& d : delays) {
    parts.push_back("delay:" + std::to_string(d.from) + "->" +
                    std::to_string(d.to) + ":" +
                    std::to_string(d.delay.count()));
  }
  for (const auto& c : crashes) {
    parts.push_back("crash:" + std::to_string(c.node) + "@" +
                    std::to_string(c.afterSends));
  }
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += ",";
    out += parts[i];
  }
  return out;
}

FaultState::FaultState(FaultSpec spec) : spec_(std::move(spec)) {
  for (const auto& crash : spec_.crashes) {
    if (crash.afterSends == 0) crashed_.insert(crash.node);
  }
}

bool FaultState::onSend(NodeId from, NodeId to,
                        std::chrono::milliseconds& delayOut) {
  std::scoped_lock lock(mutex_);
  delayOut = std::chrono::milliseconds(0);
  if (crashed_.contains(from)) {
    throw TransportError("fault: node " + std::to_string(from) +
                         " is crashed");
  }
  // Scheduled crash: the node dies once its send budget is exhausted.
  const std::size_t sent = ++nodeSendCount_[from];
  for (const auto& crash : spec_.crashes) {
    if (crash.node == from && sent > crash.afterSends) {
      crashed_.insert(from);
      throw TransportError("fault: node " + std::to_string(from) +
                           " crashed after " +
                           std::to_string(crash.afterSends) + " sends");
    }
  }
  if (crashed_.contains(to)) {
    throw TransportError("fault: peer " + std::to_string(to) +
                         " is unreachable (crashed)");
  }
  const std::size_t nth = ++linkSendCount_[{from, to}];
  for (const auto& drop : spec_.drops) {
    if (drop.from == from && drop.to == to && drop.nth == nth) {
      ++dropsInjected_;
      return true;
    }
  }
  for (const auto& delay : spec_.delays) {
    if (delay.from == from && delay.to == to &&
        delay.delay.count() > 0) {
      ++delaysInjected_;
      delayOut = delay.delay;
      break;
    }
  }
  return false;
}

bool FaultState::isCrashed(NodeId node) const {
  std::scoped_lock lock(mutex_);
  return crashed_.contains(node);
}

void FaultState::crash(NodeId node) {
  std::scoped_lock lock(mutex_);
  crashed_.insert(node);
}

void FaultState::revive(NodeId node) {
  std::scoped_lock lock(mutex_);
  crashed_.erase(node);
  // A revived node models a relaunched process: its fail-stop schedule has
  // fired and must not re-trigger on the next send.
  std::erase_if(spec_.crashes,
                [node](const FaultSpec::Crash& c) { return c.node == node; });
}

std::size_t FaultState::dropsInjected() const {
  std::scoped_lock lock(mutex_);
  return dropsInjected_;
}

std::size_t FaultState::delaysInjected() const {
  std::scoped_lock lock(mutex_);
  return delaysInjected_;
}

FaultInjectingTransport::FaultInjectingTransport(Transport& inner,
                                                 FaultSpec spec)
    : FaultInjectingTransport(inner,
                              std::make_shared<FaultState>(std::move(spec))) {}

FaultInjectingTransport::FaultInjectingTransport(
    Transport& inner, std::shared_ptr<FaultState> state)
    : inner_(&inner), state_(std::move(state)),
      metricDropped_(
          obs::counter("privtopk.transport.faults_dropped", kFaultLabels)),
      metricDelayed_(
          obs::counter("privtopk.transport.faults_delayed", kFaultLabels)),
      metricCrashRejects_(
          obs::counter("privtopk.transport.faults_crash_rejects",
                       kFaultLabels)) {}

void FaultInjectingTransport::send(NodeId from, NodeId to,
                                   const Bytes& payload) {
  std::chrono::milliseconds delay{0};
  bool dropped = false;
  try {
    dropped = state_->onSend(from, to, delay);
  } catch (const TransportError&) {
    metricCrashRejects_.inc();
    throw;
  }
  if (dropped) {
    metricDropped_.inc();
    PRIVTOPK_LOG_WARN_C("fault", "dropping message ", from, " -> ", to);
    return;  // swallowed: the sender believes the send succeeded
  }
  if (delay.count() > 0) {
    metricDelayed_.inc();
    // Sleeping in the caller thread preserves per-sender FIFO order.
    std::this_thread::sleep_for(delay);
  }
  inner_->send(from, to, payload);
}

std::optional<Envelope> FaultInjectingTransport::receive(
    NodeId node, std::chrono::milliseconds timeout) {
  if (state_->isCrashed(node)) {
    // A dead process reads nothing; burn the timeout so callers polling in
    // a loop do not spin hot.
    std::this_thread::sleep_for(timeout);
    return std::nullopt;
  }
  return inner_->receive(node, timeout);
}

void FaultInjectingTransport::subscribe(NodeId node, DeliveryHandler handler) {
  inner_->subscribe(node, [state = state_, node, h = std::move(handler)](
                              Envelope&& env) {
    if (!state->isCrashed(node)) h(std::move(env));
  });
}

void FaultInjectingTransport::unsubscribe(NodeId node) {
  inner_->unsubscribe(node);
}

void FaultInjectingTransport::shutdown() { inner_->shutdown(); }

}  // namespace privtopk::net
