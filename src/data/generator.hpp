// Synthetic dataset generation for experiments and examples: builds a fleet
// of PrivateDatabases whose sensitive attribute follows a chosen
// distribution, mirroring the paper's experiment setup (n nodes, values in
// [1,10000], uniform/normal/zipf).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "data/database.hpp"
#include "data/distribution.hpp"

namespace privtopk::data {

/// Configuration for one synthetic fleet.
struct FleetSpec {
  std::size_t nodes = 4;
  std::size_t rowsPerNode = 100;
  std::string distribution = "uniform";
  Domain domain = kPaperDomain;
  std::string tableName = "sales";
  std::string attribute = "revenue";
};

/// Builds `spec.nodes` databases, each with `spec.rowsPerNode` rows whose
/// `attribute` column is drawn i.i.d. from the distribution.  Each row also
/// carries a text id ("r<node>_<row>") so examples can show realistic
/// schemas.  Deterministic given `rng`.
[[nodiscard]] std::vector<PrivateDatabase> generateFleet(const FleetSpec& spec,
                                                         Rng& rng);

/// Extracts the plain value vectors (one per node) from a fleet - the form
/// the protocol runner consumes.
[[nodiscard]] std::vector<std::vector<Value>> fleetValues(
    const std::vector<PrivateDatabase>& fleet, const std::string& tableName,
    const std::string& attribute);

/// The inverse of fleetValues: one database per value vector, holding it
/// in the Int column `revenue` of table `sales`, so raw value sets can
/// drive engines that scan tables (query::ServiceSim).
[[nodiscard]] std::vector<PrivateDatabase> fleetFromValues(
    const std::vector<std::vector<Value>>& values);

/// Generates raw per-node value vectors directly (the fast path used by the
/// Monte-Carlo experiment harnesses, which do not need Table scaffolding).
[[nodiscard]] std::vector<std::vector<Value>> generateValueSets(
    std::size_t nodes, std::size_t valuesPerNode,
    const ValueDistribution& distribution, Rng& rng);

/// Reference answer: the true global top-k (descending multiset) across all
/// nodes' values.  Used to score protocol precision.
[[nodiscard]] TopKVector trueTopK(const std::vector<std::vector<Value>>& sets,
                                  std::size_t k);

}  // namespace privtopk::data
