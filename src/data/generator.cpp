#include "data/generator.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace privtopk::data {

std::vector<PrivateDatabase> generateFleet(const FleetSpec& spec, Rng& rng) {
  if (spec.nodes == 0) throw ConfigError("generateFleet: nodes must be > 0");
  const auto dist = makeDistribution(spec.distribution, spec.domain);

  std::vector<PrivateDatabase> fleet;
  fleet.reserve(spec.nodes);
  for (std::size_t node = 0; node < spec.nodes; ++node) {
    PrivateDatabase db("org-" + std::to_string(node));
    Table table(Schema({{"id", ColumnType::Text},
                        {spec.attribute, ColumnType::Int}}));
    for (std::size_t row = 0; row < spec.rowsPerNode; ++row) {
      table.appendRow({Cell{std::string("r") + std::to_string(node) + "_" +
                            std::to_string(row)},
                       Cell{dist->sample(rng)}});
    }
    db.addTable(spec.tableName, std::move(table));
    fleet.push_back(std::move(db));
  }
  return fleet;
}

std::vector<std::vector<Value>> fleetValues(
    const std::vector<PrivateDatabase>& fleet, const std::string& tableName,
    const std::string& attribute) {
  std::vector<std::vector<Value>> out;
  out.reserve(fleet.size());
  for (const auto& db : fleet) {
    out.push_back(db.table(tableName).intColumn(attribute));
  }
  return out;
}

std::vector<PrivateDatabase> fleetFromValues(
    const std::vector<std::vector<Value>>& values) {
  std::vector<PrivateDatabase> fleet;
  for (std::size_t node = 0; node < values.size(); ++node) {
    Table table(Schema({{"revenue", ColumnType::Int}}));
    for (Value v : values[node]) table.appendRow({Cell{v}});
    fleet.emplace_back("org-" + std::to_string(node));
    fleet.back().addTable("sales", std::move(table));
  }
  return fleet;
}

std::vector<std::vector<Value>> generateValueSets(
    std::size_t nodes, std::size_t valuesPerNode,
    const ValueDistribution& distribution, Rng& rng) {
  std::vector<std::vector<Value>> out;
  out.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    out.push_back(distribution.sampleMany(rng, valuesPerNode));
  }
  return out;
}

TopKVector trueTopK(const std::vector<std::vector<Value>>& sets,
                    std::size_t k) {
  std::vector<Value> all;
  for (const auto& s : sets) all.insert(all.end(), s.begin(), s.end());
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), std::greater<>());
  all.resize(take);
  return all;
}

}  // namespace privtopk::data
