// Protocol configuration (the paper's Table 1 parameters plus engineering
// knobs) and the protocol variants under study.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace privtopk::protocol {

/// Which protocol runs on the ring.
enum class ProtocolKind {
  /// The paper's contribution: randomized local algorithm, random ring
  /// mapping and starting node, multiple rounds (§3.3/§3.4).
  Probabilistic,
  /// One-round deterministic merge with a FIXED starting node and identity
  /// ring (§3.1 baseline).
  Naive,
  /// The naive protocol with a random ring/starting node ("anonymous naive"
  /// in §5.3).
  AnonymousNaive,
};

[[nodiscard]] const char* toString(ProtocolKind kind);

/// Which privacy mechanism shapes a node's per-round contribution.  The
/// mechanism is orthogonal to ProtocolKind: it decides HOW a node hides
/// its values, while the kind decides the ring structure it rides on.
/// Enumerator values are the wire ids (query/descriptor.hpp,
/// net/message.hpp); never renumber.
enum class MechanismKind : std::uint8_t {
  /// The paper's Eq.-2 probabilistic schedule (Algorithm 1/2): with
  /// probability Pr(r) = p0*d^(r-1) a node injects bounded noise instead
  /// of its real contribution.  The classic default.
  Schedule = 0,
  /// Collusion-resistant segmented circulation (k-secure-sum style, per
  /// Sheikh et al.): each node splits its top-k into `segments` parts and
  /// contributes one part per round, with every round riding a distinct
  /// derived ring ordering.  Exact after `segments` rounds.
  Segmented = 1,
  /// Local differential privacy: each node perturbs its values once with
  /// bounded discrete-Laplace noise parameterized by `ldpEpsilon`, then
  /// runs a single deterministic merge round.
  Ldp = 2,
};

[[nodiscard]] const char* toString(MechanismKind kind);

/// Segment-count bounds for MechanismKind::Segmented, enforced by
/// MechanismSpec::validate.
inline constexpr std::uint32_t kMinSegments = 2;
inline constexpr std::uint32_t kMaxSegments = 64;

/// Mechanism selection plus its knobs.  Only the knob matching `kind` is
/// meaningful (segments for Segmented, ldpEpsilon for Ldp); the others are
/// ignored, excluded from equality, and normalized away on the wire.
struct MechanismSpec {
  MechanismKind kind = MechanismKind::Schedule;
  /// Number of segments / derived ring orderings (Segmented only).
  std::uint32_t segments = 4;
  /// Local-DP epsilon; smaller = noisier (Ldp only).
  double ldpEpsilon = 1.0;

  /// Throws ConfigError when the knob matching `kind` is out of range.
  /// The one place the knob ranges are checked.
  void validate() const;

  /// Compares `kind` and the knobs that kind actually consults.
  friend bool operator==(const MechanismSpec& a, const MechanismSpec& b);
};

struct ProtocolParams {
  /// Number of results to select (k = 1 is the max query).
  std::size_t k = 1;

  /// Initial randomization probability p0 (Eq. 2).
  double p0 = 1.0;

  /// Dampening factor d (Eq. 2).  The paper's default pick after the
  /// Figure 9 tradeoff study is (p0, d) = (1, 1/2).
  double d = 0.5;

  /// Minimum width of the random range in Algorithm 2's randomization
  /// branch (the paper's delta); must be >= 1 on an integer domain.
  Value delta = 1;

  /// Publicly known value domain.
  Domain domain = kPaperDomain;

  /// Explicit round budget.  When unset, the engine derives the paper's
  /// r_min from `epsilon` via Eq. 4 (probabilistic protocol only; the naive
  /// variants always run exactly one round).
  std::optional<Round> rounds;

  /// Precision target 1 - epsilon used when `rounds` is unset.
  double epsilon = 0.001;

  /// Re-randomize the ring mapping at every round (§4.3 collusion
  /// hardening).  The classic protocol keeps one mapping for all rounds.
  /// Only meaningful for the Schedule mechanism (Segmented derives its own
  /// per-round orderings; Ldp runs one round).
  bool remapEachRound = false;

  /// Privacy mechanism driving the per-round contribution (see
  /// protocol/mechanism.hpp for the implementations).
  MechanismSpec mechanism;

  /// Throws ConfigError when any field is out of range.
  void validate() const;

  /// The round budget this configuration implies (>= 1).
  [[nodiscard]] Round effectiveRounds() const;
};

}  // namespace privtopk::protocol
