//===- Harness.h - Timing, statistics, tracing and output ------*- C++ -*-===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload-independent half of the benchmark: clocks, the percentile
/// rule, seeded generators (uniform and Zipf), the open-loop due-time
/// scheduler, in-memory spans with self time, the result line, and the
/// host fingerprint. Kept free of SafeGen headers so the self-tests
/// (SelfTest.cpp) exercise exactly this code without the libraries.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}
inline double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

/// Keeps a value alive against dead-code elimination.
template <typename T> inline void keep(const T &V) {
  asm volatile("" : : "g"(&V) : "memory");
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
double geomean(const std::vector<double> &V);

/// The percentile rule: a percentile P (in (0,1)) of N samples is
/// reported only when at least MinBeyond samples lie strictly beyond its
/// nearest-rank position. Returns NaN when the sample cannot support P.
constexpr size_t MinBeyond = 10;
bool supportsPercentile(size_t N, double P);
double percentile(std::vector<double> V, double P);

/// The best of per-window values (the minimum when lower is better, else
/// the maximum), skipping windows whose value is NaN. The workloads time
/// in windows spread over the run because the reference host's speed
/// swings by a quarter over seconds; the best window is the figure that
/// repeats from run to run.
double best(const std::vector<double> &Windows, bool LowerIsBetter);

/// Samples of one latency class, with the rule applied on read.
struct Samples {
  std::vector<double> V;
  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  double p(double P) const { return percentile(V, P); }
};

//===----------------------------------------------------------------------===//
// Seeded generators
//===----------------------------------------------------------------------===//

/// SplitMix64: tiny, fully specified (no library-version dependence), so
/// one seed gives the same inputs on every host.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double Lo, double Hi) { return Lo + (Hi - Lo) * uniform(); }
  /// Uniform integer in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// A child stream whose sequence depends only on this stream's seed and
  /// \p Tag (so adding draws to one stream never shifts another).
  Rng fork(uint64_t Tag) const { return Rng(S ^ (Tag * 0xD1B54A32D192ED03ull)); }

private:
  uint64_t S;
};

/// Zipf(s) over ranks [0, N): P(rank r) proportional to 1/(r+1)^s.
class Zipf {
public:
  Zipf(size_t N, double S);
  size_t sample(Rng &R) const;
  double probability(size_t Rank) const;

private:
  std::vector<double> Cdf;
};

/// FNV-1a over bytes, for fingerprints of seeded inputs and schedules.
uint64_t hashBytes(const void *Data, size_t Len, uint64_t H = 0xcbf29ce484222325ull);
inline uint64_t hashDoubles(const std::vector<double> &V, uint64_t H = 0xcbf29ce484222325ull) {
  return hashBytes(V.data(), V.size() * sizeof(double), H);
}

//===----------------------------------------------------------------------===//
// Open loop
//===----------------------------------------------------------------------===//

/// One request's timing in an open loop. Latency is measured from the
/// request's *due* time, so a stall delays and charges every request
/// queued behind it (no coordinated omission); Lag is how late the
/// generator sent it.
struct OpenLoopTiming {
  double LatencyUs = 0.0;
  double LagUs = 0.0;
};

/// Runs requests [0, Count) at a fixed Rate (requests per second) on one
/// sender: request I is due at Start + I / Rate; the sender waits until
/// it is due (or sends at once when behind) and calls Send(I) blocking.
/// \p Stride / \p Offset let several senders split one schedule: sender
/// J handles I = Offset, Offset + Stride, ... with the same due times.
std::vector<OpenLoopTiming>
runOpenLoop(Clock::time_point Start, double Rate, size_t Count, size_t Offset,
            size_t Stride, const std::function<void(size_t)> &Send);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory spans around layer calls, recorded only when enabled. Each
/// span has a name, start/end, the span that was open on the same thread
/// when it began (its parent), and an optional request id shared by the
/// spans of one request. Written out once, at the end of the run.
namespace trace {
void enable(bool On);
bool enabled();
/// Moves this thread's finished spans to the global list; call before a
/// thread that recorded spans exits.
void flushThread();
/// Writes every span (with self time) and a per-name summary to \p Path.
/// Returns false when the file cannot be written.
bool write(const std::string &Path, const std::string &HeaderJson);
/// Number of spans recorded so far (all threads that flushed).
size_t spanCount();
/// Tracing overhead on a fixed unit of work, in percent: \p Unit runs 15
/// times with spans recorded and 15 times without, interleaved, and the
/// result is the median of the traced/untraced time ratios minus one.
/// Leaves tracing as it found it.
double overheadPct(const std::function<void()> &Unit);

class Span {
public:
  explicit Span(const char *Name, uint64_t RequestId = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  Clock::time_point Start;
};
} // namespace trace

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// What one workload run reports. Failed counts operations whose output
/// check failed or that were refused; any failure makes the run fail.
struct Result {
  std::map<std::string, Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  /// Values that must repeat exactly for one seed (counts, certified bits,
  /// hashes of the seeded inputs); compared across runs by main.cpp.
  std::map<std::string, std::string> Exact;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  void fail(const std::string &Why, uint64_t Count = 1) {
    Failed += Count;
    if (Errors.size() < 20)
      Errors.push_back(Why);
  }
  bool correct() const { return Failed == 0 && Attempted > 0; }
};

/// The final stdout line: {"correct","attempted","failed","metrics"}.
std::string resultJson(const Result &R);

/// Peak resident set of this process, MiB.
double peakRssMiB();

/// Host fingerprint (CPU model, nproc, compiler, build type) plus
/// \p Extra key/value pairs, as one JSON object.
std::string fingerprintJson(const std::map<std::string, std::string> &Extra);

/// Runs \p Argv (argv[0] looked up on PATH) with stdout redirected to
/// \p StdoutPath and stderr to \p StderrPath (empty = inherit), waits for
/// it, and returns its exit status (-1 when it could not start or was
/// killed).
int runProcess(const std::vector<std::string> &Argv,
               const std::string &StdoutPath, const std::string &StderrPath);

std::string readFile(const std::string &Path);
bool writeFile(const std::string &Path, const std::string &Text);

} // namespace pb

#endif // PERFBENCH_HARNESS_H
