//===- Harness.cpp - Timing, statistics, tracing and output ---------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <mutex>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace pb {

double median(std::vector<double> V) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return std::nan("");
  double S = 0.0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

double best(const std::vector<double> &Windows, bool LowerIsBetter) {
  double B = std::nan("");
  for (double W : Windows)
    if (!std::isnan(W) && (std::isnan(B) || (LowerIsBetter ? W < B : W > B)))
      B = W;
  return B;
}

static size_t nearestRank(size_t N, double P) {
  size_t R = static_cast<size_t>(std::ceil(P * static_cast<double>(N)));
  return R == 0 ? 0 : R - 1;
}

bool supportsPercentile(size_t N, double P) {
  if (N == 0)
    return false;
  return N - 1 - nearestRank(N, P) >= MinBeyond;
}

double percentile(std::vector<double> V, double P) {
  if (!supportsPercentile(V.size(), P))
    return std::nan("");
  std::sort(V.begin(), V.end());
  return V[nearestRank(V.size(), P)];
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

Zipf::Zipf(size_t N, double S) : Cdf(N) {
  double Acc = 0.0;
  for (size_t R = 0; R < N; ++R) {
    Acc += 1.0 / std::pow(static_cast<double>(R + 1), S);
    Cdf[R] = Acc;
  }
  for (double &C : Cdf)
    C /= Acc;
}

size_t Zipf::sample(Rng &R) const {
  double U = R.uniform();
  size_t I = static_cast<size_t>(std::upper_bound(Cdf.begin(), Cdf.end(), U) -
                                 Cdf.begin());
  return std::min(I, Cdf.size() - 1);
}

double Zipf::probability(size_t Rank) const {
  return Rank == 0 ? Cdf[0] : Cdf[Rank] - Cdf[Rank - 1];
}

uint64_t hashBytes(const void *Data, size_t Len, uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

std::vector<OpenLoopTiming>
runOpenLoop(Clock::time_point Start, double Rate, size_t Count, size_t Offset,
            size_t Stride, const std::function<void(size_t)> &Send) {
  std::vector<OpenLoopTiming> Out;
  for (size_t I = Offset; I < Count; I += Stride) {
    auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(I / Rate));
    auto Now = Clock::now();
    if (Now < Due) {
      // Sleep the bulk, spin the last stretch: sleep_until alone
      // overshoots by the scheduler's wake-up latency.
      if (Due - Now > std::chrono::microseconds(120))
        std::this_thread::sleep_until(Due - std::chrono::microseconds(60));
      while (Clock::now() < Due) {
      }
    }
    auto Sent = Clock::now();
    Send(I);
    auto Done = Clock::now();
    Out.push_back({usBetween(Due, Done), usBetween(Due, Sent)});
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace trace {
namespace {

struct Rec {
  const char *Name;
  uint64_t Id, Parent, Request;
  Clock::time_point Start, End;
  uint32_t Tid;
};

std::atomic<bool> On{false};
std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextTid{1};
std::mutex GlobalM;
std::vector<Rec> Global; // guarded by GlobalM
Clock::time_point Epoch = Clock::now();

struct ThreadBuf {
  std::vector<Rec> Done;
  std::vector<uint64_t> Open;
  uint32_t Tid = NextTid.fetch_add(1);
  ~ThreadBuf() { flush(); }
  void flush() {
    if (Done.empty())
      return;
    std::lock_guard<std::mutex> L(GlobalM);
    Global.insert(Global.end(), Done.begin(), Done.end());
    Done.clear();
  }
};
thread_local ThreadBuf Buf;

/// Self time of each record: its duration minus the durations of its
/// direct children (children nest inside their parent on one thread).
std::map<uint64_t, double> selfTimes(const std::vector<Rec> &All) {
  std::map<uint64_t, double> Self;
  for (const Rec &R : All)
    Self[R.Id] += usBetween(R.Start, R.End);
  for (const Rec &R : All)
    if (R.Parent)
      Self[R.Parent] -= usBetween(R.Start, R.End);
  return Self;
}

} // namespace

void enable(bool V) { On.store(V); }
bool enabled() { return On.load(std::memory_order_relaxed); }
void flushThread() { Buf.flush(); }

Span::Span(const char *N, uint64_t RequestId) : Name(N) {
  if (!enabled())
    return;
  Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Parent = Buf.Open.empty() ? 0 : Buf.Open.back();
  Request = RequestId;
  Buf.Open.push_back(Id);
  Start = Clock::now();
}

Span::~Span() {
  if (!Id)
    return;
  auto End = Clock::now();
  Buf.Open.pop_back();
  Buf.Done.push_back({Name, Id, Parent, Request, Start, End, Buf.Tid});
}

size_t spanCount() {
  flushThread();
  std::lock_guard<std::mutex> L(GlobalM);
  return Global.size();
}

double overheadPct(const std::function<void()> &Unit) {
  const unsigned Pairs = 15;
  const bool Was = enabled();
  auto Timed = [&](bool Traced) {
    enable(Traced);
    auto T0 = Clock::now();
    Unit();
    return nsBetween(T0, Clock::now());
  };
  Timed(false); // warm-up
  std::vector<double> Ratios;
  for (unsigned I = 0; I < Pairs; ++I) {
    // Alternate which half goes first, so a drift in host speed does not
    // favour one.
    double On, Off;
    if (I % 2) {
      On = Timed(true);
      Off = Timed(false);
    } else {
      Off = Timed(false);
      On = Timed(true);
    }
    Ratios.push_back(On / Off);
  }
  enable(Was);
  return 100.0 * (median(Ratios) - 1.0);
}

bool write(const std::string &Path, const std::string &HeaderJson) {
  flushThread();
  std::lock_guard<std::mutex> L(GlobalM);
  std::map<uint64_t, double> Self = selfTimes(Global);
  struct Sum {
    size_t Count = 0;
    double Total = 0.0, SelfT = 0.0;
  };
  std::map<std::string, Sum> ByName;
  for (const Rec &R : Global) {
    Sum &S = ByName[R.Name];
    ++S.Count;
    S.Total += usBetween(R.Start, R.End);
    S.SelfT += Self[R.Id];
  }
  std::ofstream Out(Path);
  if (!Out)
    return false;
  char Line[512];
  Out << "{\"header\": " << HeaderJson << ",\n\"summary\": [\n";
  size_t I = 0;
  for (const auto &[Name, S] : ByName) {
    std::snprintf(Line, sizeof(Line),
                  "  {\"name\": \"%s\", \"count\": %zu, \"total_us\": %.3f, "
                  "\"self_us\": %.3f}%s\n",
                  Name.c_str(), S.Count, S.Total, S.SelfT,
                  ++I == ByName.size() ? "" : ",");
    Out << Line;
  }
  // Every span counts in the summary; the first MaxWritten are listed.
  const size_t MaxWritten = 20000;
  const size_t Written = std::min(Global.size(), MaxWritten);
  Out << "],\n\"spans_total\": " << Global.size() << ",\n\"spans\": [\n";
  for (size_t J = 0; J < Written; ++J) {
    const Rec &R = Global[J];
    std::snprintf(Line, sizeof(Line),
                  "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"request\": %llu, \"tid\": %u, \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"self_us\": %.3f}%s\n",
                  R.Name, static_cast<unsigned long long>(R.Id),
                  static_cast<unsigned long long>(R.Parent),
                  static_cast<unsigned long long>(R.Request), R.Tid,
                  usBetween(Epoch, R.Start), usBetween(Epoch, R.End),
                  Self[R.Id], J + 1 == Written ? "" : ",");
    Out << Line;
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

} // namespace trace

//===----------------------------------------------------------------------===//
// Results and host
//===----------------------------------------------------------------------===//

static std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

static std::string jsonString(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O + "\"";
}

std::string resultJson(const Result &R) {
  std::ostringstream O;
  O << "{\"correct\": " << (R.correct() ? "true" : "false")
    << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
    << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    O << (First ? "" : ", ") << jsonString(Name) << ": {\"value\": "
      << jsonNumber(M.Value) << ", \"unit\": " << jsonString(M.Unit) << "}";
    First = false;
  }
  O << "}}";
  return O.str();
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string fingerprintJson(const std::map<std::string, std::string> &Extra) {
  std::string Cpu = "unknown";
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t C = Line.find(':');
      Cpu = C == std::string::npos ? Line : Line.substr(C + 2);
      break;
    }
  std::map<std::string, std::string> F = Extra;
  F["cpu_model"] = Cpu;
  F["nproc"] = std::to_string(std::thread::hardware_concurrency());
  F["compiler"] = __VERSION__;
  std::string O = "{";
  bool First = true;
  for (const auto &[K, V] : F) {
    O += (First ? "" : ", ") + jsonString(K) + ": " + jsonString(V);
    First = false;
  }
  return O + "}";
}

int runProcess(const std::vector<std::string> &Argv,
               const std::string &StdoutPath, const std::string &StderrPath) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    auto Redirect = [](const std::string &Path, int Fd) {
      if (Path.empty())
        return;
      int F = open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (F < 0)
        _exit(127);
      dup2(F, Fd);
      close(F);
    };
    Redirect(StdoutPath, 1);
    Redirect(StderrPath, 2);
    execvp(Args[0], Args.data());
    _exit(127);
  }
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

} // namespace pb
