// perfbench: end-to-end and per-layer benchmark of a 9-node NodeService
// fleet.  Usage:
//
//   perfbench --workload <paper-tcp|bulk-inproc|zipf-gateway> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures in rounds: each round sets up a fresh fleet, runs a
// short warm phase (answers checked, not timed), then measures its share
// of --seconds with no tracing.  The timing figures pool the requests
// that ran only in the 100 ms slices, across all rounds, with the least
// host CPU steal, so neither bursts of host interference nor one fleet's
// start-up luck moves them.
//
// --trace 1 runs an untraced phase for the overhead baseline, then a
// traced phase on a fresh fleet whose transports are wrapped in
// CaptureTransport (each phase follows a round's warm phase and stops
// after kTracedExecutions executions or --seconds), and prints the
// per-layer metrics.
//
// Every answer is checked; the last stdout line is one JSON object, and
// the exit code is non-zero when a check, the percentile rule or the
// layer-sum tolerance fails.

#include <malloc.h>

#include <charconv>
#include <cmath>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw privtopk::ConfigError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
        throw privtopk::ConfigError("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw privtopk::ConfigError("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else {
      throw privtopk::ConfigError("unknown flag " + flag);
    }
  }
  if (!haveWorkload) throw privtopk::ConfigError("--workload is required");
  return args;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Prints the notes, a metric table and the JSON result line; returns the
/// exit code.  `phases` are every live phase of the run, warm-ups too:
/// each of their answers was checked.
int finish(const Report& report, const std::vector<const PhaseResult*>& phases,
           std::size_t measuredAttempts) {
  for (const auto& note : report.notes) std::cout << "# " << note << '\n';
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::size_t errors = 0;
  for (const PhaseResult* phase : phases) {
    failed += phase->attempted - phase->answered;
    wrong += phase->wrong;
    errors += phase->errors;
    for (const auto& f : phase->failures) {
      std::cout << "# FAILURE " << f << '\n';
    }
  }
  std::cout << "# checked answers: " << wrong << " wrong, " << errors
            << " calls failed\n";
  for (const auto& v : report.violations) {
    std::cout << "# VIOLATION " << v << '\n';
  }
  for (const auto& m : report.metrics) {
    std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit << '\n';
  }
  bool finite = true;
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(measuredAttempts);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    finite = finite && std::isfinite(m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            number(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  const bool ok = failed == 0 && report.violations.empty() && finite;
  return ok ? 0 : 1;
}

/// A fresh fleet plus the seconds its set-up took (table generation,
/// fleet start and link warm-up).
std::unique_ptr<Bench> setUp(const WorkloadSpec& spec, std::uint64_t seed,
                             bool capture, double& seconds) {
  // Hand memory freed by the previous fleet back, so every set-up starts
  // alike.
  ::malloc_trim(0);
  const std::int64_t t0 = nowNs();
  auto bench = std::make_unique<Bench>(spec, seed, capture);
  seconds = static_cast<double>(nowNs() - t0) / 1e9;
  return bench;
}

int measuredRun(const WorkloadSpec& spec, const Args& args) {
  const auto pool = [&] {
    auto questions = makePool(spec, args.seed);
    computeTruths(questions,
                  generateTables(spec.rowsPerNode, tableSeed(args.seed)));
    return questions;
  }();
  const double roundSeconds = args.seconds / static_cast<double>(kRounds);
  std::vector<PhaseResult> warmUps;
  std::vector<PhaseResult> rounds;
  std::vector<double> setupSeconds;
  for (std::size_t round = 0; round < kRounds; ++round) {
    double seconds = 0.0;
    auto bench = setUp(spec, args.seed, false, seconds);
    setupSeconds.push_back(seconds);
    warmUps.push_back(bench->run(pool, roundSeconds / 10, false));
    rounds.push_back(bench->run(pool, roundSeconds, false));
    rounds.back().rssMb = rssMb();
  }
  const Report report = endToEnd(rounds, setupSeconds);
  std::vector<const PhaseResult*> phases;
  std::size_t attempts = 0;
  for (const auto& r : rounds) {
    phases.push_back(&r);
    attempts += r.attempted;
  }
  for (const auto& w : warmUps) phases.push_back(&w);
  return finish(report, phases, attempts);
}

/// Executions a traced run captures (it also stops at --seconds): enough
/// for a reportable p99 of every per-execution span, few enough that the
/// captured payloads stay in the tens of MiB.
constexpr std::size_t kTracedExecutions = 3000;

int tracedRun(const WorkloadSpec& spec, const Args& args) {
  auto pool = makePool(spec, args.seed);
  // Each phase starts after the same warm phase as a measured round, so
  // neither runs its first requests against an empty gateway cache.
  const double warmSeconds = args.seconds / static_cast<double>(10 * kRounds);
  double seconds = 0.0;
  PhaseResult untracedWarmUp;
  PhaseResult untraced;
  {
    auto bench = setUp(spec, args.seed, false, seconds);
    computeTruths(pool, bench->fleet().tables());
    untracedWarmUp = bench->run(pool, warmSeconds, false);
    untraced = bench->run(pool, args.seconds, false, kTracedExecutions);
  }
  auto bench = setUp(spec, args.seed, true, seconds);
  const PhaseResult tracedWarmUp = bench->run(pool, warmSeconds, false);
  const auto before = privtopk::obs::MetricsRegistry::global().snapshot();
  PhaseResult traced = bench->run(pool, args.seconds, true, kTracedExecutions);
  const auto after = privtopk::obs::MetricsRegistry::global().snapshot();
  const Report report = perLayer(*bench, spec, pool, traced,
                                 percentile(untraced.latencyMs, 0.5).value,
                                 before, after);
  return finish(report, {&traced, &untraced, &untracedWarmUp, &tracedWarmUp},
                traced.attempted);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    // Tearing a fleet down closes live links, which every peer would log
    // as a warning; failures that matter surface as failed queries.
    privtopk::setLogLevel(privtopk::LogLevel::Error);
    const WorkloadSpec spec = workloadSpec(args.workload);
    std::cout << "# workload " << spec.name << " seed " << args.seed
              << " seconds " << args.seconds << (args.trace ? " traced" : "")
              << '\n';
    return args.trace ? tracedRun(spec, args) : measuredRun(spec, args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
