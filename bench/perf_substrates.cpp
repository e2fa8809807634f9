// Google-benchmark microbenchmarks for the substrates: crypto primitives,
// serialization, and transports.  Quantifies the paper's §4.2 efficiency
// argument - cryptographic link protection (our substitution) costs orders
// of magnitude more per byte than the protocol's local computation.

#include <benchmark/benchmark.h>

#include <numeric>

#include "support/bench_json.hpp"

#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/secure_channel.hpp"
#include "crypto/sha256.hpp"
#include "net/inproc.hpp"
#include "net/message.hpp"

using namespace privtopk;

namespace {

void BM_Sha256(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  std::vector<std::uint8_t> key(32, 0x11);
  std::vector<std::uint8_t> data(1024, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmacSha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_HmacSha256);

void BM_ChaCha20(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  crypto::ChaChaKey key{};
  std::iota(key.begin(), key.end(), std::uint8_t{0});
  std::vector<std::uint8_t> data(size, 0x33);
  for (auto _ : state) {
    crypto::chacha20XorInPlace(key, crypto::makeNonce(1, 1), 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(4096)->Arg(65536);

void BM_DhHandshake512(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    Rng a = rng.fork(1);
    Rng b = rng.fork(2);
    crypto::SecureHandshake alice(crypto::SecureHandshake::Role::Initiator,
                                  crypto::DhGroup::test512(), a);
    crypto::SecureHandshake bob(crypto::SecureHandshake::Role::Responder,
                                crypto::DhGroup::test512(), b);
    benchmark::DoNotOptimize(alice.deriveSession(bob.localHello()));
  }
}
BENCHMARK(BM_DhHandshake512);

void BM_DhModexp2048(benchmark::State& state) {
  const auto& group = crypto::DhGroup::modp2048();
  Rng rng(2);
  const auto kp = crypto::dhGenerate(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::modexp(group.g, kp.privateKey, group.p));
  }
}
BENCHMARK(BM_DhModexp2048);

void BM_SealOpen(benchmark::State& state) {
  Rng a(3);
  Rng b(4);
  crypto::SecureHandshake alice(crypto::SecureHandshake::Role::Initiator,
                                crypto::DhGroup::test512(), a);
  crypto::SecureHandshake bob(crypto::SecureHandshake::Role::Responder,
                              crypto::DhGroup::test512(), b);
  auto tx = alice.deriveSession(bob.localHello());
  auto rx = bob.deriveSession(alice.localHello());
  std::vector<std::uint8_t> payload(512, 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rx.open(tx.seal(payload)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_SealOpen);

// One untraced round token of k distinct values, as a ring hop encodes it
// and as the next hop decodes it.
net::RoundToken benchToken(std::size_t k) {
  TopKVector vector(k);
  for (std::size_t i = 0; i < k; ++i) {
    vector[i] = 10'000 - static_cast<Value>(i);
  }
  return net::RoundToken{1, 3, std::move(vector), {}};
}

void BM_EncodeToken(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::Message token = benchToken(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encodeMessage(token));
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["bytes"] =
      static_cast<double>(net::encodeMessage(token).size());
}
BENCHMARK(BM_EncodeToken)->Arg(16)->Arg(256);

void BM_DecodeToken(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Bytes wire = net::encodeMessage(benchToken(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decodeMessage(wire));
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["bytes"] = static_cast<double>(wire.size());
}
BENCHMARK(BM_DecodeToken)->Arg(16)->Arg(256);

void BM_InProcRoundTrip(benchmark::State& state) {
  net::InProcTransport transport(2);
  const Bytes payload(128, 0x77);
  for (auto _ : state) {
    transport.send(0, 1, payload);
    benchmark::DoNotOptimize(
        transport.receive(1, std::chrono::milliseconds(100)));
  }
  state.counters["messages"] = static_cast<double>(transport.messagesSent());
  state.counters["bytes"] = static_cast<double>(transport.bytesSent());
}
BENCHMARK(BM_InProcRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  return privtopk::benchsupport::runBenchmarksWithJson(
      argc, argv, "BENCH_substrates.json");
}
