// Google-benchmark microbenchmarks: protocol execution cost as a function
// of ring size and k, plus the engines' overheads.  Not a paper figure;
// establishes the computational claim of §4.2 that local computation is
// negligible (no cryptographic operations on the token path).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>

#include "support/bench_json.hpp"
#include "support/experiment.hpp"

#include "data/generator.hpp"
#include "protocol/local_algorithm.hpp"
#include "protocol/group.hpp"
#include "protocol/runner.hpp"
#include "protocol/secure_sum.hpp"
#include "query/federation.hpp"
#include "query/service_sim.hpp"

using namespace privtopk;

namespace {

protocol::ProtocolParams params(std::size_t k) {
  protocol::ProtocolParams p;
  p.k = k;
  p.rounds = 5;
  return p;
}

void BM_MaxQuery_VsNodes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  data::UniformDistribution dist;
  Rng dataRng(1);
  const auto values = data::generateValueSets(n, 10, dist, dataRng);
  const protocol::RingQueryRunner runner(params(1),
                                         protocol::ProtocolKind::Probabilistic);
  Rng rng(2);
  protocol::RunResult last;
  for (auto _ : state) {
    last = runner.run(values, rng);
    benchmark::DoNotOptimize(last.result);
  }
  // One "item" per ring step actually executed; use the measured round
  // count, not the configured literal, so items/sec stays honest when
  // effectiveRounds() diverges from the parameter.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(last.rounds));
  state.counters["n"] = static_cast<double>(n);
  state.counters["k"] = 1;
  state.counters["rounds"] = static_cast<double>(last.rounds);
  state.counters["messages"] = static_cast<double>(last.totalMessages);
}
BENCHMARK(BM_MaxQuery_VsNodes)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_TopKQuery_VsK(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  data::UniformDistribution dist;
  Rng dataRng(3);
  const auto values = data::generateValueSets(8, 64, dist, dataRng);
  const protocol::RingQueryRunner runner(params(k),
                                         protocol::ProtocolKind::Probabilistic);
  Rng rng(4);
  protocol::RunResult last;
  for (auto _ : state) {
    last = runner.run(values, rng);
    benchmark::DoNotOptimize(last.result);
  }
  state.counters["n"] = 8;
  state.counters["k"] = static_cast<double>(k);
  state.counters["rounds"] = static_cast<double>(last.rounds);
  state.counters["messages"] = static_cast<double>(last.totalMessages);
}
BENCHMARK(BM_TopKQuery_VsK)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_NaiveQuery(benchmark::State& state) {
  data::UniformDistribution dist;
  Rng dataRng(5);
  const auto values = data::generateValueSets(16, 10, dist, dataRng);
  const protocol::RingQueryRunner runner(params(4),
                                         protocol::ProtocolKind::Naive);
  Rng rng(6);
  protocol::RunResult last;
  for (auto _ : state) {
    last = runner.run(values, rng);
    benchmark::DoNotOptimize(last.result);
  }
  state.counters["n"] = 16;
  state.counters["k"] = 4;
  state.counters["rounds"] = static_cast<double>(last.rounds);
  state.counters["messages"] = static_cast<double>(last.totalMessages);
}
BENCHMARK(BM_NaiveQuery);

void BM_SimulatedQuery(benchmark::State& state) {
  // One max query through 16 simulated service cores: announce pass,
  // rounds and dissemination, in virtual time.
  data::UniformDistribution dist;
  Rng dataRng(7);
  const auto dbs =
      data::fleetFromValues(data::generateValueSets(16, 10, dist, dataRng));
  std::vector<std::uint64_t> seeds(dbs.size(), 8);
  std::vector<NodeId> ring(dbs.size());
  std::iota(ring.begin(), ring.end(), NodeId{0});
  query::QueryDescriptor descriptor;
  descriptor.tableName = "sales";
  descriptor.attribute = "revenue";
  descriptor.params = params(1);
  for (auto _ : state) {
    query::ServiceSim sim(dbs, seeds);
    sim.initiate(descriptor, ring);
    sim.run();
    benchmark::DoNotOptimize(sim.outcome(descriptor.queryId));
  }
}
BENCHMARK(BM_SimulatedQuery);

void BM_GroupedQuery(benchmark::State& state) {
  data::UniformDistribution dist;
  Rng dataRng(9);
  const auto values = data::generateValueSets(128, 5, dist, dataRng);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protocol::runGrouped(values, params(1),
                             protocol::ProtocolKind::Probabilistic, 8, rng)
            .result);
  }
}
BENCHMARK(BM_GroupedQuery);

void BM_SecureSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::int64_t>> counters(
      n, std::vector<std::int64_t>(16, 3));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::secureSum(counters, rng).totals);
  }
}
BENCHMARK(BM_SecureSum)->Arg(4)->Arg(64);

void BM_LocalTopKStep(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto schedule =
      std::make_shared<const protocol::ExponentialSchedule>(1.0, 0.5);
  protocol::RandomizedTopKAlgorithm algo(k, schedule, Rng(12), kPaperDomain);
  data::UniformDistribution dist;
  Rng rng(13);
  TopKVector local = dist.sampleMany(rng, k);
  std::sort(local.begin(), local.end(), std::greater<>());
  algo.reset(local);
  TopKVector incoming = dist.sampleMany(rng, k);
  std::sort(incoming.begin(), incoming.end(), std::greater<>());
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.step(incoming, 2));
  }
}
BENCHMARK(BM_LocalTopKStep)->Arg(1)->Arg(16)->Arg(256);

// One node's local scan (LocalParty::localInput / localAggregate) over a
// 50k-row table, as bulk-inproc asks it: top-k 200 or Sum, unfiltered and
// under each filter shape (Filter::parse syntax), plus bottom-k and a
// clause that keeps almost no rows (~5 of 50k: the ranked walk reads
// every mask byte).  This is the per-node figure behind perfbench's
// data.local_input_us.  The rows time the steady state: the value order
// is built once, with the table; BM_ValueOrder times that build.
const data::PrivateDatabase& scanTable() {
  static const data::PrivateDatabase db = [] {
    data::Table t(data::Schema({{"value", data::ColumnType::Int},
                                {"region", data::ColumnType::Int},
                                {"label", data::ColumnType::Text}}));
    Rng rng(14);
    for (std::size_t row = 0; row < 50'000; ++row) {
      const Value region = rng.uniformInt(0, 7);
      const std::string label = "r" + std::to_string(region);
      t.appendRow({data::Cell{rng.uniformInt(1, 10'000)}, data::Cell{region},
                   data::Cell{label}});
    }
    data::PrivateDatabase out("bench");
    out.addTable("data", std::move(t));
    (void)out.table("data").valueOrder("value");
    return out;
  }();
  return db;
}

// The first ranked scan's extra cost: radix-sorting a 50k-row column
// (values in [1, 10000], two byte passes) into its value order.
void BM_ValueOrder(benchmark::State& state, const char* column) {
  const std::vector<Value>& values =
      scanTable().table("data").intColumn(column);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::valueOrderOf(values));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK_CAPTURE(BM_ValueOrder, build_50k, "value");

void BM_LocalInput(benchmark::State& state, const char* filter,
                   query::QueryType type) {
  query::QueryDescriptor d;
  d.type = type;
  d.params.k = 200;
  d.filter = query::Filter::parse(filter);
  const query::LocalParty party(scanTable());
  for (auto _ : state) {
    if (d.isAggregate()) {
      benchmark::DoNotOptimize(party.localAggregate(d));
    } else {
      benchmark::DoNotOptimize(party.localInput(d));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          50'000);
}
BENCHMARK_CAPTURE(BM_LocalInput, unfiltered_topk, "", query::QueryType::TopK);
BENCHMARK_CAPTURE(BM_LocalInput, unfiltered_bottomk, "",
                  query::QueryType::BottomK);
BENCHMARK_CAPTURE(BM_LocalInput, rare_eq_topk, "value==5000",
                  query::QueryType::TopK);
BENCHMARK_CAPTURE(BM_LocalInput, int_eq_topk, "region==3",
                  query::QueryType::TopK);
BENCHMARK_CAPTURE(BM_LocalInput, int_le_topk, "value<=5000",
                  query::QueryType::TopK);
BENCHMARK_CAPTURE(BM_LocalInput, text_eq_topk, "label==r3",
                  query::QueryType::TopK);
BENCHMARK_CAPTURE(BM_LocalInput, two_clauses_topk, "region==3,value<=5000",
                  query::QueryType::TopK);
BENCHMARK_CAPTURE(BM_LocalInput, unfiltered_sum, "", query::QueryType::Sum);
BENCHMARK_CAPTURE(BM_LocalInput, int_eq_sum, "region==3",
                  query::QueryType::Sum);
BENCHMARK_CAPTURE(BM_LocalInput, int_le_sum, "value<=5000",
                  query::QueryType::Sum);
BENCHMARK_CAPTURE(BM_LocalInput, text_eq_sum, "label==r3",
                  query::QueryType::Sum);
BENCHMARK_CAPTURE(BM_LocalInput, two_clauses_sum, "region==3,value<=5000",
                  query::QueryType::Sum);

// Monte-Carlo sweep scaling: one figure-style point (100 trials) at a
// given worker-thread count.  The exported counters record the wall clock
// and the speedup over the single-threaded row, so the BENCH JSON carries
// the parallel harness's perf trajectory across commits.  The Arg(1) row
// runs first (registration order) and seeds the baseline.
template <typename Measure>
void sweepWithThreads(benchmark::State& state, double& baselineMs,
                      const Measure& measure) {
  bench::SeriesSpec spec;
  spec.n = 64;
  spec.k = 4;
  spec.valuesPerNode = 8;
  spec.rounds = 10;
  spec.trials = 100;
  spec.threads = static_cast<int>(state.range(0));

  double totalMs = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(measure(spec));
    totalMs += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  const double perSweepMs =
      state.iterations() > 0
          ? totalMs / static_cast<double>(state.iterations())
          : 0.0;
  if (spec.threads == 1) baselineMs = perSweepMs;
  state.counters["threads"] = static_cast<double>(spec.threads);
  state.counters["trials"] = static_cast<double>(spec.trials);
  state.counters["sweep_ms"] = perSweepMs;
  if (spec.threads > 1 && baselineMs > 0.0 && perSweepMs > 0.0) {
    state.counters["speedup_vs_1t"] = baselineMs / perSweepMs;
  }
}

void BM_PrecisionSweep_Threads(benchmark::State& state) {
  static double baselineMs = 0.0;
  sweepWithThreads(state, baselineMs, [](const bench::SeriesSpec& spec) {
    return bench::measurePrecisionSeries(spec);
  });
}
BENCHMARK(BM_PrecisionSweep_Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LoPSweep_Threads(benchmark::State& state) {
  static double baselineMs = 0.0;
  sweepWithThreads(state, baselineMs, [](const bench::SeriesSpec& spec) {
    return bench::measureLoP(spec);
  });
}
BENCHMARK(BM_LoPSweep_Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return privtopk::benchsupport::runBenchmarksWithJson(argc, argv,
                                                       "BENCH_protocol.json");
}
