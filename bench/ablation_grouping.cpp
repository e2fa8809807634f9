// Ablation for the paper's §4.2 scaling idea: split n nodes into groups,
// compute group results in parallel, then combine via a delegate ring.
// Reports total vs critical-path messages against the flat protocol, and
// the virtual-time latency of both as the service runs them (announce
// pass, group fan-out and result dissemination included; 1 ms per hop).

#include <cstdio>
#include <numeric>
#include <vector>

#include "data/generator.hpp"
#include "protocol/group.hpp"
#include "query/service_sim.hpp"
#include "support/experiment.hpp"

using namespace privtopk;

namespace {

/// Virtual completion time of one max query run by a simulated service
/// federation over `dbs` (1 ms per hop); negative when the initiator did
/// not complete it with `truth`.
double simulatedMs(const std::vector<data::PrivateDatabase>& dbs,
                   const protocol::ProtocolParams& params,
                   std::size_t groupSize, const TopKVector& truth) {
  std::vector<std::uint64_t> seeds(dbs.size());
  std::iota(seeds.begin(), seeds.end(), 1000);
  std::vector<NodeId> ring(dbs.size());
  std::iota(ring.begin(), ring.end(), NodeId{0});
  query::QueryDescriptor descriptor;
  descriptor.queryId = 1;
  descriptor.tableName = "sales";
  descriptor.attribute = "revenue";
  descriptor.params = params;
  descriptor.groupSize = groupSize;
  query::ServiceSim sim(dbs, seeds);
  sim.initiate(descriptor, ring);
  sim.run();
  const query::ServiceSim::Retired* outcome = sim.outcome(1);
  return outcome != nullptr && outcome->result == truth ? outcome->at : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::initBenchCli(argc, argv, "ablation_grouping");
  protocol::ProtocolParams params;
  params.k = 1;
  params.rounds = 5;  // r_min(0.001) for (1, 1/2)

  bench::printHeader(
      "Ablation: group-parallel execution (paper SS4.2)",
      "messages to answer a max query; critical path = parallel wall-clock");
  std::printf("%-8s %-10s %14s %14s %14s %12s %12s %9s\n", "nodes",
              "groupSize", "flat_msgs", "grouped_msgs", "crit_path",
              "flat_ms", "grouped_ms", "correct");

  data::UniformDistribution dist;
  Rng dataRng(81);
  Rng rng(82);

  for (std::size_t n : {32u, 64u, 128u, 256u}) {
    const auto values = data::generateValueSets(n, 5, dist, dataRng);
    const TopKVector truth = data::trueTopK(values, 1);

    const protocol::RingQueryRunner flat(params,
                                         protocol::ProtocolKind::Probabilistic);
    const auto flatRun = flat.run(values, rng);
    const auto dbs = data::fleetFromValues(values);
    const double flatMs = simulatedMs(dbs, params, 0, truth);

    for (std::size_t groupSize : {4u, 8u, 16u}) {
      const auto grouped = protocol::runGrouped(
          values, params, protocol::ProtocolKind::Probabilistic, groupSize,
          rng);
      const double groupedMs = simulatedMs(dbs, params, groupSize, truth);
      const bool correct =
          grouped.result == truth && flatMs >= 0 && groupedMs >= 0;
      std::printf("%-8zu %-10zu %14zu %14zu %14zu %12.1f %12.1f %9s\n", n,
                  groupSize, flatRun.totalMessages, grouped.totalMessages,
                  grouped.criticalPathMessages, flatMs, groupedMs,
                  correct ? "yes" : "NO");
    }
  }
  std::printf("\n");
  return 0;
}
