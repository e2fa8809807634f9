// Ring topology management.
//
// The protocol runs over a logical ring (paper §3.2).  Nodes are "mapped
// into a ring randomly" to reduce the chance that two colluding adversaries
// sit on both sides of a victim; §4.3 additionally suggests re-mapping the
// ring every round, which the protocol engine supports by constructing a
// fresh random RingTopology per round.  Failure repair follows the paper:
// "the ring can be reconstructed ... simply by connecting the predecessor
// and successor of the failed node".

#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace privtopk::sim {

/// Splices `failed` out of `order` in place, connecting its predecessor and
/// successor (the paper's repair rule).  Returns false when `failed` is not
/// on the ring (already repaired elsewhere); throws Error when removal would
/// empty the ring.  This is the single source of truth for repair semantics:
/// both RingTopology and the service (live or simulated) shrink rings
/// through it.
bool repairRingOrder(std::vector<NodeId>& order, NodeId failed);

class RingTopology {
 public:
  /// Ring over nodes 0..n-1 in index order (position i holds node i).
  static RingTopology identity(std::size_t n);

  /// Random permutation ring over nodes 0..n-1.
  static RingTopology random(std::size_t n, Rng& rng);

  /// Ring with an explicit order (order[i] = node at position i).
  explicit RingTopology(std::vector<NodeId> order);

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] const std::vector<NodeId>& order() const { return order_; }

  /// Node at ring position `pos` (0-based; positions wrap).
  [[nodiscard]] NodeId at(std::size_t pos) const {
    return order_[pos % order_.size()];
  }

  /// Ring position of `node`; throws Error if the node is not on the ring.
  [[nodiscard]] std::size_t positionOf(NodeId node) const;

  [[nodiscard]] bool contains(NodeId node) const;

  [[nodiscard]] NodeId successor(NodeId node) const;
  [[nodiscard]] NodeId predecessor(NodeId node) const;

  /// Splices a failed node out of the ring, connecting its predecessor and
  /// successor.  Throws Error when the node is absent or when removal would
  /// empty the ring.
  void removeNode(NodeId node);

 private:
  std::vector<NodeId> order_;
};

}  // namespace privtopk::sim
