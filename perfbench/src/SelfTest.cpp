//===- SelfTest.cpp - Self-tests of the benchmark harness -----------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the harness rules the metrics rest on: the percentile rule, the
/// open loop's due-time accounting, and seed determinism of the Zipf and
/// uniform generators. run.py runs this before every measurement and
/// refuses to measure when it fails. Exit 0 when every check passes.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <thread>

using namespace pb;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::fprintf(stderr, "selftest: %s: %s\n", Ok ? "ok" : "FAIL", What);
  Failures += !Ok;
}

void percentileRule() {
  // p99 needs at least 10 samples beyond its nearest rank: 1000 samples
  // leave 10 beyond rank 990, 999 leave 9 beyond the same rank.
  std::fprintf(stderr, "selftest: p99 sample counts 999 -> %d, 1000 -> %d; "
                       "p50 sample counts 19 -> %d, 20 -> %d\n",
               supportsPercentile(999, 0.99), supportsPercentile(1000, 0.99),
               supportsPercentile(19, 0.5), supportsPercentile(20, 0.5));
  check(!supportsPercentile(999, 0.99) && supportsPercentile(1000, 0.99),
        "p99 is reported only with >= 10 samples beyond it");
  check(!supportsPercentile(19, 0.5) && supportsPercentile(20, 0.5),
        "p50 is reported only with >= 10 samples beyond it");
  std::vector<double> V;
  for (int I = 1; I <= 2000; ++I)
    V.push_back(I);
  check(percentile(V, 0.5) == 1000 && percentile(V, 0.99) == 1980,
        "nearest-rank percentiles of 1..2000");
  check(std::isnan(percentile({1, 2, 3}, 0.99)), "unsupported percentile is NaN");
}

void openLoopDueTime() {
  // 40 requests at 1000/s; request 10 stalls 20 ms. Every request queued
  // behind the stall must be charged the wait from its due time, though
  // its own service time is tiny.
  const double Rate = 1000.0;
  auto Timing = runOpenLoop(Clock::now(), Rate, 40, 0, 1, [](size_t I) {
    if (I == 10)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  bool Ok = Timing.size() == 40;
  for (size_t I = 0; Ok && I < Timing.size(); ++I) {
    double ExpectedMin = 0.0;
    if (I >= 10 && I < 30) // still behind the stall (20 ms = 20 slots)
      ExpectedMin = 20000.0 - 1000.0 * static_cast<double>(I - 10) - 500.0;
    Ok = Timing[I].LatencyUs >= ExpectedMin;
  }
  std::fprintf(stderr, "selftest: latency at 9, 11, 20, 35: %.0f %.0f %.0f %.0f us\n",
               Timing[9].LatencyUs, Timing[11].LatencyUs, Timing[20].LatencyUs,
               Timing[35].LatencyUs);
  check(Ok, "a stall inflates the latency of every later request from its due time");
  check(Timing[11].LagUs > 15000.0, "the generator reports how late it sent");
  check(Timing[39].LatencyUs < 5000.0, "the loop catches up after the stall");
}

void seeds() {
  Rng A(42), B(42), C(43);
  bool Same = true, Differs = false;
  for (int I = 0; I < 1000; ++I) {
    uint64_t X = A.next(), Y = B.next(), Z = C.next();
    Same &= X == Y;
    Differs |= X != Z;
  }
  check(Same && Differs, "one seed gives one stream; another seed another");
  check(Rng(7).fork(1).next() == Rng(7).fork(1).next() &&
            Rng(7).fork(1).next() != Rng(7).fork(2).next(),
        "forked streams depend only on seed and tag");

  Zipf Z(96, 1.0);
  Rng R1(5), R2(5);
  std::vector<size_t> Count(96);
  bool Repeat = true;
  const int N = 200000;
  for (int I = 0; I < N; ++I) {
    size_t K = Z.sample(R1);
    Repeat &= K == Z.sample(R2);
    ++Count[K];
  }
  check(Repeat, "Zipf draws repeat for one seed");
  double Share0 = static_cast<double>(Count[0]) / N;
  std::fprintf(stderr, "selftest: Zipf(96, 1.0) rank-0 share %.4f, expected %.4f (%d draws)\n",
               Share0, Z.probability(0), N);
  check(std::fabs(Share0 - Z.probability(0)) < 0.01 && Count[0] > Count[1] &&
            Count[1] > Count[10],
        "Zipf frequencies follow the distribution");
}

} // namespace

int main() {
  percentileRule();
  openLoopDueTime();
  seeds();
  std::fprintf(stderr, "selftest: %s\n", Failures ? "FAILED" : "all passed");
  return Failures ? 1 : 0;
}
