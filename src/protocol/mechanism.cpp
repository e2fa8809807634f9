#include "protocol/mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "protocol/core.hpp"
#include "protocol/schedule.hpp"

namespace privtopk::protocol {

namespace {

// ---------------------------------------------------------------------------
// Schedule: the paper's probabilistic randomizer, unchanged.
// ---------------------------------------------------------------------------

class ScheduleMechanism final : public PrivacyMechanism {
 public:
  [[nodiscard]] const char* name() const override { return "schedule"; }

  [[nodiscard]] Round roundBudget(ProtocolKind kind,
                                  const ProtocolParams& params) const override {
    return kind == ProtocolKind::Probabilistic ? params.effectiveRounds() : 1;
  }

  [[nodiscard]] std::unique_ptr<LocalAlgorithm> makeAlgorithm(
      ProtocolKind kind, const ProtocolParams& params,
      Rng& rng) const override {
    switch (kind) {
      case ProtocolKind::Probabilistic: {
        auto schedule =
            std::make_shared<const ExponentialSchedule>(params.p0, params.d);
        if (params.k == 1) {
          return std::make_unique<RandomizedMaxAlgorithm>(
              std::move(schedule), rng.fork(core::kAlgorithmRngTag),
              params.domain);
        }
        return std::make_unique<RandomizedTopKAlgorithm>(
            params.k, std::move(schedule), rng.fork(core::kAlgorithmRngTag),
            params.domain, params.delta);
      }
      case ProtocolKind::Naive:
      case ProtocolKind::AnonymousNaive:
        return std::make_unique<NaiveAlgorithm>(params.k);
    }
    throw ConfigError("ScheduleMechanism: unknown protocol kind");
  }
};

// ---------------------------------------------------------------------------
// Segmented: S merge rounds over S derived ring orderings.
// ---------------------------------------------------------------------------

class SegmentedMechanism final : public PrivacyMechanism {
 public:
  [[nodiscard]] const char* name() const override { return "segmented"; }

  [[nodiscard]] Round roundBudget(ProtocolKind /*kind*/,
                                  const ProtocolParams& params) const override {
    return params.mechanism.segments;
  }

  [[nodiscard]] std::unique_ptr<LocalAlgorithm> makeAlgorithm(
      ProtocolKind /*kind*/, const ProtocolParams& params,
      Rng& /*rng*/) const override {
    return std::make_unique<SegmentedMergeAlgorithm>(
        params.k, params.mechanism.segments);
  }

  [[nodiscard]] std::vector<NodeId> orderForRound(
      const std::vector<NodeId>& base, Round round,
      std::uint64_t queryId) const override {
    // Round 1 keeps the agreed order so the announce and the first token
    // share a path (FIFO links guarantee announce-before-token only when
    // they travel the same hops).  Later rounds shuffle everyone but the
    // controller with a seed any participant can derive locally.
    if (round <= 1 || base.size() <= 2) return base;
    std::vector<NodeId> derived = base;
    Rng rng(segmentRingSeed(queryId, round));
    for (std::size_t i = derived.size() - 1; i > 1; --i) {
      std::swap(derived[i], derived[1 + rng.index(i)]);
    }
    return derived;
  }
};

// ---------------------------------------------------------------------------
// Ldp: noise once, merge deterministically.
// ---------------------------------------------------------------------------

class LdpMechanism final : public PrivacyMechanism {
 public:
  [[nodiscard]] const char* name() const override { return "ldp"; }

  [[nodiscard]] Round roundBudget(ProtocolKind /*kind*/,
                                  const ProtocolParams& /*params*/)
      const override {
    return 1;
  }

  [[nodiscard]] std::unique_ptr<LocalAlgorithm> makeAlgorithm(
      ProtocolKind /*kind*/, const ProtocolParams& params,
      Rng& rng) const override {
    return std::make_unique<LdpAlgorithm>(params.k,
                                          params.mechanism.ldpEpsilon,
                                          rng.fork(core::kAlgorithmRngTag),
                                          params.domain);
  }

  [[nodiscard]] Value soundnessSlack(const ProtocolParams& params)
      const override {
    return ldpNoiseBound(params.mechanism.ldpEpsilon);
  }
};

}  // namespace

Value ldpNoiseBound(double epsilon) {
  if (!(epsilon > 0.0)) throw ConfigError("ldpNoiseBound: epsilon must be > 0");
  return static_cast<Value>(std::ceil(6.0 / epsilon));
}

std::vector<NodeId> PrivacyMechanism::orderForRound(
    const std::vector<NodeId>& base, Round /*round*/,
    std::uint64_t /*queryId*/) const {
  return base;
}

Value PrivacyMechanism::soundnessSlack(const ProtocolParams& /*params*/) const {
  return 0;
}

std::unique_ptr<PrivacyMechanism> makeMechanism(const MechanismSpec& spec) {
  spec.validate();
  switch (spec.kind) {
    case MechanismKind::Schedule: return std::make_unique<ScheduleMechanism>();
    case MechanismKind::Segmented:
      return std::make_unique<SegmentedMechanism>();
    case MechanismKind::Ldp: return std::make_unique<LdpMechanism>();
  }
  throw ConfigError("makeMechanism: unknown mechanism kind");
}

void validateMechanismFor(ProtocolKind kind, const ProtocolParams& params) {
  params.mechanism.validate();
  if (params.mechanism.kind != MechanismKind::Schedule &&
      kind != ProtocolKind::Probabilistic) {
    throw ConfigError(
        std::string("the ") + toString(params.mechanism.kind) +
        " mechanism replaces the probabilistic randomizer and requires the "
        "probabilistic protocol kind");
  }
}

// ---------------------------------------------------------------------------
// SegmentedMergeAlgorithm
// ---------------------------------------------------------------------------

SegmentedMergeAlgorithm::SegmentedMergeAlgorithm(std::size_t k,
                                                 std::uint32_t segments)
    : k_(k), segments_(segments) {
  if (k_ == 0) throw ConfigError("SegmentedMergeAlgorithm: k must be >= 1");
  MechanismSpec{MechanismKind::Segmented, segments_, 1.0}.validate();
}

void SegmentedMergeAlgorithm::reset(TopKVector localTopK) {
  if (localTopK.size() > k_) {
    throw ConfigError("SegmentedMergeAlgorithm: local vector larger than k");
  }
  if (!std::is_sorted(localTopK.begin(), localTopK.end(), std::greater<>())) {
    throw ConfigError("SegmentedMergeAlgorithm: local vector not sorted");
  }
  // Round-robin deal: part j gets items j, j+S, j+2S... - each part stays
  // sorted descending, and staged top-k merging of the parts is exact
  // (topk(topk(A ∪ B) ∪ C) == topk(A ∪ B ∪ C)).
  parts_.assign(segments_, {});
  for (std::size_t i = 0; i < localTopK.size(); ++i) {
    parts_[i % segments_].push_back(localTopK[i]);
  }
}

const TopKVector& SegmentedMergeAlgorithm::segment(Round r) const {
  if (r < 1 || r > segments_) {
    throw Error("SegmentedMergeAlgorithm: round outside the segment budget");
  }
  return parts_[r - 1];
}

TopKVector SegmentedMergeAlgorithm::step(const TopKVector& incoming, Round r) {
  if (r < 1 || r > segments_) {
    throw ProtocolError(
        "SegmentedMergeAlgorithm: round outside the segment budget");
  }
  const TopKVector& part = parts_[r - 1];
  if (part.empty()) {
    ++passCounts_.passthrough;
    return incoming;
  }
  ++passCounts_.real;
  return mergeTopK(incoming, part, k_);
}

// ---------------------------------------------------------------------------
// LdpAlgorithm
// ---------------------------------------------------------------------------

namespace {

/// Geometric draw with decay alpha in (0, 1): P(g = j) ∝ alpha^j.
Value geometricDraw(Rng& rng, double alpha) {
  const double u = rng.uniform01();
  // log(1-u) in (-inf, 0], log(alpha) < 0: the quotient is >= 0.
  return static_cast<Value>(std::floor(std::log1p(-u) / std::log(alpha)));
}

}  // namespace

LdpAlgorithm::LdpAlgorithm(std::size_t k, double epsilon, Rng rng,
                           Domain domain)
    : k_(k), epsilon_(epsilon), rng_(rng), domain_(domain),
      bound_(ldpNoiseBound(epsilon)) {
  if (k_ == 0) throw ConfigError("LdpAlgorithm: k must be >= 1");
  if (!(epsilon_ > 0.0)) throw ConfigError("LdpAlgorithm: epsilon must be > 0");
}

void LdpAlgorithm::reset(TopKVector localTopK) {
  if (localTopK.size() > k_) {
    throw ConfigError("LdpAlgorithm: local vector larger than k");
  }
  // Perturb once: a two-sided geometric (discrete Laplace) deviate with
  // decay e^-epsilon, truncated to [-bound, bound] and clamped to the
  // public domain.  The node never again consults its real values, so the
  // protocol run is epsilon-LDP per value regardless of ring position.
  const double alpha = std::exp(-epsilon_);
  perturbed_.clear();
  perturbed_.reserve(localTopK.size());
  for (Value v : localTopK) {
    if (!domain_.contains(v)) {
      throw ConfigError("LdpAlgorithm: local value outside domain");
    }
    Value noise = geometricDraw(rng_, alpha) - geometricDraw(rng_, alpha);
    noise = std::clamp(noise, -bound_, bound_);
    perturbed_.push_back(std::clamp(v + noise, domain_.min, domain_.max));
  }
  std::sort(perturbed_.begin(), perturbed_.end(), std::greater<>());
}

TopKVector LdpAlgorithm::step(const TopKVector& incoming, Round /*r*/) {
  ++passCounts_.randomized;
  return mergeTopK(incoming, perturbed_, k_);
}

}  // namespace privtopk::protocol
