// ServiceSim: N query::ServiceCore instances - the live service's protocol
// logic - driven single-threaded on sim::EventSimulator in virtual time
// (milliseconds).
//
// Links are FIFO, with each send's latency drawn from a seeded
// sim::LatencyModel, unless SimOptions::reorder displaces a send: it then
// takes an extra window and skips the link's FIFO clamp, so later sends on
// the link overtake it and recovery goes through retransmission.  Drops,
// link delays and fail-stop crashes come from a net::FaultSpec through
// net::FaultState::onSend, as FaultInjectingTransport applies them live: a
// crashed node receives nothing and stops ticking, and a send to it fails
// into the sender's ring repair.  Scans run inline when handed back; every
// core ticks each kMaintainInterval while a query is in flight.  A run is
// a pure function of the databases, node seeds, options and (seed,
// FaultSpec).

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/database.hpp"
#include "net/fault.hpp"
#include "query/service_core.hpp"
#include "sim/event_sim.hpp"

namespace privtopk::query {

struct SimOptions {
  /// Options every node's core runs with.
  ServiceOptions service;
  /// Per-link latency model; null = 1 ms fixed.  Must outlive the sim.
  const sim::LatencyModel* latency = nullptr;
  /// Seeds the latency and reorder draws.
  std::uint64_t latencySeed = 1;
  /// Per-link reordering: each send is displaced with `probability`; a
  /// displaced send arrives `windowMs` late and later sends overtake it.
  struct Reorder {
    double probability = 0.0;
    sim::SimTime windowMs = 0.0;
  } reorder;
  /// Message drops, link delays and fail-stop crashes.
  net::FaultSpec faults;
};

class ServiceSim {
 public:
  /// A query `node` stopped serving at virtual time `at`.
  struct Retired : ServiceCore::Retirement {
    NodeId node = 0;
    sim::SimTime at = 0.0;
  };

  /// One node per database (borrowed; they must outlive the sim), node i
  /// seeded with seeds[i].
  ServiceSim(const std::vector<data::PrivateDatabase>& dbs,
             const std::vector<std::uint64_t>& seeds, SimOptions options = {});

  /// ringOrder.front() initiates `descriptor` now.  Throws, with nothing
  /// sent, what ServiceCore::initiate throws (ConfigError for an
  /// initiation the service rejects, or the local scan's error).
  void initiate(const QueryDescriptor& descriptor,
                std::vector<NodeId> ringOrder);

  /// Runs events until none are left: every message delivered or lost and
  /// no live node serving a query.
  void run();

  /// Called after every event (invariant checks).
  void setObserver(std::function<void(const ServiceSim&)> observer) {
    observer_ = std::move(observer);
  }

  // --- Observers ---

  [[nodiscard]] sim::SimTime now() const { return simulator_.now(); }
  [[nodiscard]] std::size_t nodes() const { return cores_.size(); }
  [[nodiscard]] const ServiceCore& core(NodeId node) const {
    return *cores_.at(node);
  }
  [[nodiscard]] bool crashed(NodeId node) const {
    return faults_.isCrashed(node);
  }
  /// Every retirement so far, in virtual-time order.
  [[nodiscard]] const std::vector<Retired>& retirements() const {
    return retirements_;
  }
  /// The initiator's retirement of `queryId` (its answer and completion
  /// time, or why it failed); nullptr while it is still running.
  [[nodiscard]] const Retired* outcome(std::uint64_t queryId) const;
  /// Messages that entered the network (sends a crash did not refuse),
  /// dropped ones included, as (from, to) links in send order: entry n-1
  /// is the run's nth message, which a FaultSpec drop can then target.
  [[nodiscard]] const std::vector<std::pair<NodeId, NodeId>>& sends() const {
    return sends_;
  }
  [[nodiscard]] ServiceCore::TimePoint timePoint() const;

 private:
  void perform(NodeId node, ServiceCore::Effects fx);
  void send(NodeId from, const ServiceCore::Outbound& out);
  void deliver(NodeId from, NodeId to, const Bytes& wire);
  void tick();
  void armTick();

  const sim::LatencyModel* latency_;
  sim::FixedLatency defaultLatency_{1.0};
  Rng latencyRng_;
  net::FaultState faults_;
  SimOptions::Reorder reorder_;
  sim::EventSimulator simulator_;
  std::vector<std::unique_ptr<ServiceCore>> cores_;
  /// Latest delivery time per (from, to) link: FIFO for sends that are
  /// not displaced.
  std::map<std::pair<NodeId, NodeId>, sim::SimTime> linkClock_;
  std::map<std::uint64_t, NodeId> initiators_;
  std::vector<Retired> retirements_;
  std::function<void(const ServiceSim&)> observer_;
  std::vector<std::pair<NodeId, NodeId>> sends_;
  bool tickArmed_ = false;
};

}  // namespace privtopk::query
