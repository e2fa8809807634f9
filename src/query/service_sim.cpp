#include "query/service_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace privtopk::query {

namespace {

constexpr sim::SimTime kTickMs =
    std::chrono::duration<double, std::milli>(kMaintainInterval).count();

}  // namespace

ServiceSim::ServiceSim(const std::vector<data::PrivateDatabase>& dbs,
                       const std::vector<std::uint64_t>& seeds,
                       SimOptions options)
    : latency_(options.latency != nullptr ? options.latency
                                          : &defaultLatency_),
      latencyRng_(options.latencySeed), faults_(std::move(options.faults)),
      reorder_(options.reorder) {
  if (seeds.size() != dbs.size()) {
    throw ConfigError("ServiceSim: one seed per database required");
  }
  cores_.reserve(dbs.size());
  for (std::size_t i = 0; i < dbs.size(); ++i) {
    cores_.push_back(std::make_unique<ServiceCore>(
        static_cast<NodeId>(i), dbs[i], seeds[i], options.service, nullptr));
  }
}

ServiceCore::TimePoint ServiceSim::timePoint() const {
  return ServiceCore::TimePoint(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(simulator_.now())));
}

void ServiceSim::initiate(const QueryDescriptor& descriptor,
                          std::vector<NodeId> ringOrder) {
  for (NodeId node : ringOrder) {
    if (node >= cores_.size()) {
      throw ConfigError("ServiceSim: ring names an unknown node");
    }
  }
  const NodeId initiator = ringOrder.empty() ? 0 : ringOrder.front();
  ServiceCore& core = *cores_.at(initiator);
  ServiceCore::Effects fx = core.initiate(
      descriptor, std::move(ringOrder), core.scanTable(descriptor),
      timePoint());
  initiators_[descriptor.queryId] = initiator;
  perform(initiator, std::move(fx));
  armTick();
}

void ServiceSim::run() {
  while (simulator_.step()) {
    if (observer_) observer_(*this);
  }
}

const ServiceSim::Retired* ServiceSim::outcome(std::uint64_t queryId) const {
  const auto initiator = initiators_.find(queryId);
  if (initiator == initiators_.end()) return nullptr;
  for (const Retired& retired : retirements_) {
    if (retired.queryId == queryId && retired.node == initiator->second) {
      return &retired;
    }
  }
  return nullptr;
}

void ServiceSim::perform(NodeId node, ServiceCore::Effects fx) {
  for (ServiceCore::Retirement& retirement : fx.retired) {
    retirements_.push_back(Retired{{std::move(retirement)}, node, now()});
  }
  // Sends first, then scans: the live shell forwards an announce before
  // it scans the table.
  for (const ServiceCore::Outbound& out : fx.sends) {
    if (crashed(node)) return;
    send(node, out);
  }
  for (const ServiceCore::PendingScan& scan : fx.scans) {
    if (crashed(node)) return;
    ServiceCore& core = *cores_[node];
    ServiceCore::LocalScan result = core.scanTable(scan.descriptor);
    perform(node, core.onScanned(scan, std::move(result), timePoint()));
  }
}

void ServiceSim::send(NodeId from, const ServiceCore::Outbound& out) {
  if (out.target >= cores_.size()) return;
  std::chrono::milliseconds delay{0};
  bool dropped = false;
  try {
    dropped = faults_.onSend(from, out.target, delay);
  } catch (const TransportError&) {
    if (crashed(from)) return;  // the sender itself just died
    if (out.ring) perform(from, cores_[from]->onSendFailed(out));
    return;
  }
  sends_.emplace_back(from, out.target);
  if (out.ring) cores_[from]->onSendSucceeded(out.queryId);
  if (dropped) return;
  sim::SimTime at = now() + latency_->sample(latencyRng_) +
                   static_cast<sim::SimTime>(delay.count());
  if (latencyRng_.bernoulli(reorder_.probability)) {
    at += reorder_.windowMs;  // displaced: later sends overtake it
  } else {
    sim::SimTime& last = linkClock_[{from, out.target}];
    at = std::max(last, at);
    last = at;
  }
  simulator_.scheduleAt(at, [this, from, to = out.target, wire = out.wire] {
    deliver(from, to, *wire);
  });
  armTick();
}

void ServiceSim::deliver(NodeId from, NodeId to, const Bytes& wire) {
  if (crashed(to)) return;  // a dead process reads nothing
  perform(to, cores_[to]->onMessage(from, net::decodeMessage(wire), 0,
                                    timePoint()));
}

void ServiceSim::tick() {
  tickArmed_ = false;
  bool serving = false;
  for (NodeId node = 0; node < cores_.size(); ++node) {
    if (crashed(node)) continue;
    perform(node, cores_[node]->tick(timePoint()));
    serving = serving || (!crashed(node) && cores_[node]->activeQueries() > 0);
  }
  // Keep ticking while a live node serves a query or a message is in
  // flight.
  if (serving || simulator_.pending() > 0) armTick();
}

void ServiceSim::armTick() {
  if (tickArmed_) return;
  tickArmed_ = true;
  // Ticks fall on multiples of the interval, as if every node's timer
  // started at time zero.
  const sim::SimTime next = (std::floor(now() / kTickMs) + 1.0) * kTickMs;
  simulator_.scheduleAt(next, [this] { tick(); });
}

}  // namespace privtopk::query
