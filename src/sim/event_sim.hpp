// Discrete-event simulator with virtual time.
//
// Events are (time, handler) pairs popped in time order; ties break by
// insertion order so runs are deterministic.  query::ServiceSim schedules
// message deliveries (latencies drawn from a LatencyModel) and service
// maintenance ticks through this queue, yielding virtual-time cost figures
// without wall-clock sleeps.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace privtopk::sim {

/// Virtual time in milliseconds.
using SimTime = double;

class EventSimulator {
 public:
  using Handler = std::function<void()>;

  /// Schedules `handler` at absolute virtual time `when` (must be >= now).
  void scheduleAt(SimTime when, Handler handler);

  /// Schedules `handler` `delay` ms after the current virtual time.
  void scheduleAfter(SimTime delay, Handler handler) {
    scheduleAt(now_ + delay, std::move(handler));
  }

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains (or `maxEvents` is hit, guarding against
  /// runaway schedules).
  void run(std::uint64_t maxEvents = 100'000'000);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
};

/// Link latency model.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  /// One link traversal in virtual ms; must be >= 0.
  [[nodiscard]] virtual SimTime sample(Rng& rng) const = 0;
};

/// Constant latency.
class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(SimTime ms) : ms_(ms) {
    if (ms < 0) throw ConfigError("FixedLatency: negative latency");
  }
  [[nodiscard]] SimTime sample(Rng&) const override { return ms_; }

 private:
  SimTime ms_;
};

/// Uniform latency in [lo, hi].
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {
    if (lo < 0 || hi < lo) throw ConfigError("UniformLatency: bad range");
  }
  [[nodiscard]] SimTime sample(Rng& rng) const override {
    return lo_ + (hi_ - lo_) * rng.uniform01();
  }

 private:
  SimTime lo_;
  SimTime hi_;
};

/// Shifted exponential: base propagation delay plus an exponential queueing
/// tail - a common WAN approximation.
class ExponentialLatency final : public LatencyModel {
 public:
  ExponentialLatency(SimTime base, SimTime mean) : base_(base), mean_(mean) {
    if (base < 0 || mean <= 0) throw ConfigError("ExponentialLatency: bad params");
  }
  [[nodiscard]] SimTime sample(Rng& rng) const override {
    return base_ + rng.exponential(mean_);
  }

 private:
  SimTime base_;
  SimTime mean_;
};

}  // namespace privtopk::sim
