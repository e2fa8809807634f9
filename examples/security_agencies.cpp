// Security agencies: the paper's second §1 scenario.
//
// "Multiple agencies may need to share their criminal record databases in
//  identifying certain suspects ... However, they cannot indiscriminately
//  open up their databases to all other agencies."
//
// Five agencies hold private threat-score databases.  Each runs the real
// node service logic (query::ServiceCore), simulated in virtual time over
// a wide-area network with realistic latencies - and the example crashes
// one agency mid-query to demonstrate the ring repair of §3.2 (the
// survivors still finish and agree).

#include <cstdio>
#include <numeric>

#include "common/logging.hpp"
#include "data/database.hpp"
#include "query/service_sim.hpp"

using namespace privtopk;

namespace {

data::PrivateDatabase makeAgency(const std::string& name,
                                 std::initializer_list<std::pair<const char*, Value>>
                                     suspects) {
  data::PrivateDatabase db(name);
  data::Table records(data::Schema(
      {{"alias", data::ColumnType::Text}, {"threat_score", data::ColumnType::Int}}));
  for (const auto& [alias, score] : suspects) {
    records.appendRow({data::Cell{std::string(alias)}, data::Cell{score}});
  }
  db.addTable("records", std::move(records));
  return db;
}

struct Outcome {
  Value maximum = 0;         ///< as agency-north (the initiator) learns it
  double completedMs = 0.0;  ///< virtual ms until it held the answer
  std::size_t messages = 0;
};

/// One max query, initiated by agency-north, under `faults` (crashes are
/// counted in messages an agency has sent; see net::FaultSpec).
Outcome runQuery(const std::vector<data::PrivateDatabase>& agencies,
                 const net::FaultSpec& faults, std::uint64_t seed) {
  static const sim::ExponentialLatency wan(20.0, 15.0);  // ~WAN round trips
  query::SimOptions options;
  options.latency = &wan;
  options.latencySeed = seed;
  options.faults = faults;
  std::vector<std::uint64_t> seeds(agencies.size());
  std::iota(seeds.begin(), seeds.end(), seed * 16);
  std::vector<NodeId> ring(agencies.size());
  std::iota(ring.begin(), ring.end(), NodeId{0});
  query::QueryDescriptor descriptor;
  descriptor.queryId = 1;
  descriptor.type = query::QueryType::Max;
  descriptor.tableName = "records";
  descriptor.attribute = "threat_score";
  descriptor.params.domain = Domain{0, 1000};
  descriptor.params.epsilon = 1e-6;
  query::ServiceSim sim(agencies, seeds, options);
  sim.initiate(descriptor, ring);
  sim.run();
  const query::ServiceSim::Retired& answer = *sim.outcome(1);
  return Outcome{answer.result->front(), answer.at, sim.sends().size()};
}

}  // namespace

int main() {
  // The ring repair below logs each retransmission and splice; keep the
  // output to the story.
  setLogLevel(LogLevel::Error);
  std::vector<data::PrivateDatabase> agencies;
  agencies.push_back(makeAgency("agency-north",
                                {{"viper", 310}, {"ghost", 640}}));
  agencies.push_back(makeAgency("agency-south",
                                {{"raven", 720}, {"mole", 150}}));
  agencies.push_back(makeAgency("agency-east",
                                {{"shade", 910}, {"drift", 430}}));
  agencies.push_back(makeAgency("agency-west", {{"croc", 505}}));
  agencies.push_back(makeAgency("agency-central",
                                {{"lynx", 660}, {"pike", 875}}));

  // --- Normal operation over a simulated WAN. ---------------------------
  const Outcome healthy = runQuery(agencies, net::FaultSpec{}, 11);
  std::printf("Maximum threat score across %zu agencies: %lld\n",
              agencies.size(), static_cast<long long>(healthy.maximum));
  std::printf("  completed in %.1f virtual ms over a WAN "
              "(%zu messages)\n\n",
              healthy.completedMs, healthy.messages);

  // --- The same query with agency-east crashing mid-protocol. -----------
  // agency-east holds the global max (910); if it dies before contributing,
  // the survivors' answer is the max among the remaining data.  Its
  // predecessor declares it dead after repeated failed sends and splices
  // it out of the ring.
  const Outcome degraded =
      runQuery(agencies, net::FaultSpec::parse("crash:2@0"), 12);
  std::printf("With agency-east down from the start:\n");
  std::printf("  survivors' maximum threat score: %lld (agency-east's 910 "
              "is unavailable)\n",
              static_cast<long long>(degraded.maximum));
  std::printf("  ring repaired; answered after %.1f virtual ms\n\n",
              degraded.completedMs);

  // --- Crash late: the value is usually already contributed. -------------
  // The probabilistic protocol masks values in early rounds, so a node that
  // dies mid-query may or may not have inserted its real value yet.  Count
  // both outcomes over repeated runs.
  int kept = 0;
  const int reruns = 50;
  for (int i = 0; i < reruns; ++i) {
    // agency-east dies after sending 4 messages: its announce forward and
    // the tokens of rounds 1-3.
    const Outcome lateCrash =
        runQuery(agencies, net::FaultSpec::parse("crash:2@4"),
                 13 + static_cast<std::uint64_t>(i));
    if (lateCrash.maximum == 910) ++kept;
  }
  std::printf("With agency-east crashing late (after its 4th message), over "
              "%d runs:\n",
              reruns);
  std::printf("  its value (910) survived in %d runs - it was already "
              "merged into the\n  global vector;  in the other %d runs the "
              "value was still masked by the\n  randomization when the "
              "agency died, so the survivors converge on a\n  lower value "
              "(correct over the data that remained reachable).\n",
              kept, reruns - kept);
  return 0;
}
