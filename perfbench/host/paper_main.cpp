//===- paper_main.cpp - Timing harness for SafeGen's emitted C ------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Built by the `paper` workload with the host g++, against aa/Runtime.h
/// and the runtime archives, exactly as a user builds SafeGen's output.
/// generated.inc (written by the workload) holds, per program of paper
/// Table II:
///   - pb_<cfg>_<ana>::<prog>  the emitted sound code, per configuration,
///                             with and without the static analysis;
///   - pb_plain::<prog>        the original double code;
///   - pb_ddref::<prog>        the original code on double-double, the
///                             independent reference every enclosure must
///                             contain.
///
/// Usage: paper_prog INPUTS SECONDS MIN_ROUNDS [--noana]
/// Prints, per (program, config, analysis), a `pc ...` line with the
/// checks and `call`/`plain` lines with every timed sample (ns), then its
/// own peak resident set (`rss_kib N`), and exits 1 when any enclosure
/// misses the reference or a repeated call differs.
///
//===----------------------------------------------------------------------===//

#include "aa/Runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>
#include <sys/resource.h>

// Emitted code protects a 2-D array parameter with aa_prioritize(a),
// where `a` has decayed to a pointer to rows; Runtime.h has no overload
// for that. This one protects the first row, matching the pointer form's
// first-element rule, and steps aside if the runtime grows its own.
namespace pb_detail {
template <class P>
concept Prioritizable = requires(P X) { aa_prioritize(X); };
inline constexpr bool RuntimeHasRowPointer = Prioritizable<const f64a (*)[32]>;
} // namespace pb_detail
template <class T, unsigned long N>
  requires(!pb_detail::RuntimeHasRowPointer)
static inline void aa_prioritize(const T (*A)[N]) {
  aa_prioritize(A[0]);
}

/// Double-double (about 106 bits), round-to-nearest only: the reference.
struct pbdd {
  double hi = 0.0, lo = 0.0;
  pbdd() = default;
  pbdd(double X) : hi(X) {}
  pbdd(double H, double L) : hi(H), lo(L) {}
};
static inline pbdd pbQuickTwoSum(double A, double B) {
  double S = A + B;
  return {S, B - (S - A)};
}
static inline pbdd pbTwoSum(double A, double B) {
  double S = A + B, BB = S - A;
  return {S, (A - (S - BB)) + (B - BB)};
}
static inline pbdd operator+(pbdd A, pbdd B) {
  pbdd S = pbTwoSum(A.hi, B.hi), T = pbTwoSum(A.lo, B.lo);
  S.lo += T.hi;
  S = pbQuickTwoSum(S.hi, S.lo);
  S.lo += T.lo;
  return pbQuickTwoSum(S.hi, S.lo);
}
static inline pbdd operator-(pbdd A) { return {-A.hi, -A.lo}; }
static inline pbdd operator-(pbdd A, pbdd B) { return A + (-B); }
static inline pbdd operator*(pbdd A, pbdd B) {
  double P = A.hi * B.hi;
  double E = std::fma(A.hi, B.hi, -P) + (A.hi * B.lo + A.lo * B.hi);
  return pbQuickTwoSum(P, E);
}
static inline pbdd operator/(pbdd A, pbdd B) {
  double Q1 = A.hi / B.hi;
  pbdd R = A - B * pbdd(Q1);
  double Q2 = R.hi / B.hi;
  R = R - B * pbdd(Q2);
  double Q3 = R.hi / B.hi;
  return pbQuickTwoSum(Q1, Q2) + pbdd(Q3);
}
static inline bool operator<(pbdd A, pbdd B) {
  return A.hi < B.hi || (A.hi == B.hi && A.lo < B.lo);
}
static inline bool operator>(pbdd A, pbdd B) { return B < A; }
static inline bool operator==(pbdd A, pbdd B) { return A.hi == B.hi && A.lo == B.lo; }
static inline bool operator!=(pbdd A, pbdd B) { return !(A == B); }
static inline pbdd fabs(pbdd A) { return A < pbdd(0.0) ? -A : A; }

#include "generated.inc"

namespace {

using Clock = std::chrono::steady_clock;

// Problem sizes of the paper's evaluation (Sec. VII).
constexpr int HenonIters = 75;
constexpr int SorN = 10, SorIters = 25;
constexpr int FgmN = 8, FgmIters = 25;
constexpr int LufN = 20;

struct Inputs {
  double HX, HY;
  double Omega, G[SorN][SorN];
  double H[FgmN][FgmN], F[FgmN], Lb[FgmN], Ub[FgmN], Step, Beta;
  double A[LufN][LufN];
};

bool readInputs(const char *Path, Inputs &In) {
  std::ifstream F(Path);
  std::vector<double> V;
  for (std::string Tok; F >> Tok;)
    V.push_back(std::strtod(Tok.c_str(), nullptr));
  size_t I = 0;
  auto Take = [&](double &X) { X = I < V.size() ? V[I++] : 0.0; };
  Take(In.HX);
  Take(In.HY);
  Take(In.Omega);
  for (auto &Row : In.G)
    for (double &X : Row)
      Take(X);
  for (auto &Row : In.H)
    for (double &X : Row)
      Take(X);
  for (double *Vec : {In.F, In.Lb, In.Ub})
    for (int J = 0; J < FgmN; ++J)
      Take(Vec[J]);
  Take(In.Step);
  Take(In.Beta);
  for (auto &Row : In.A)
    for (double &X : Row)
      Take(X);
  return I == V.size() && I > 0;
}

inline void mk(double &O, double V) { O = V; }
inline void mk(pbdd &O, double V) { O = pbdd(V); }
inline void mk(f64a &O, double V) { O = aa_input_f64(V); }

/// One program's outputs: enclosures for sound runs, values otherwise.
struct Out {
  std::vector<double> Lo, Hi, Bits;
  std::vector<pbdd> Ref;
  std::vector<int> Ints;
};
inline void put(Out &O, const double &V) { O.Lo.push_back(V); O.Hi.push_back(V); }
inline void put(Out &O, const pbdd &V) { O.Ref.push_back(V); }
inline void put(Out &O, const f64a &V) {
  O.Lo.push_back(aa_lo_f64(V));
  O.Hi.push_back(aa_hi_f64(V));
  O.Bits.push_back(aa_bits_f64(V));
}

// Per-program drivers, generic over the value type. Each initializes the
// arguments from the inputs, calls, and collects every output.
template <class T, class Fn> void henon(Fn F, const Inputs &In, Out *O) {
  T X[1], Y[1];
  mk(X[0], In.HX);
  mk(Y[0], In.HY);
  F(X, Y, HenonIters);
  if (O) {
    put(*O, X[0]);
    put(*O, Y[0]);
  }
}

template <class T, class Fn> void sor(Fn F, const Inputs &In, Out *O) {
  std::unique_ptr<T[][32]> Grid(new T[32][32]);
  auto G = Grid.get();
  T Omega;
  mk(Omega, In.Omega);
  for (int I = 0; I < SorN; ++I)
    for (int J = 0; J < SorN; ++J)
      mk(G[I][J], In.G[I][J]);
  F(SorN, Omega, G, SorIters);
  if (O)
    for (int I = 0; I < SorN; ++I)
      for (int J = 0; J < SorN; ++J)
        put(*O, G[I][J]);
}

template <class T, class Fn> void fgm(Fn F, const Inputs &In, Out *O) {
  std::unique_ptr<T[][8]> Hm(new T[8][8]);
  auto H = Hm.get();
  T Fv[8], X[8], Lb[8], Ub[8], Step, Beta;
  for (int I = 0; I < FgmN; ++I) {
    for (int J = 0; J < FgmN; ++J)
      mk(H[I][J], In.H[I][J]);
    mk(Fv[I], In.F[I]);
    mk(X[I], 0.0);
    mk(Lb[I], In.Lb[I]);
    mk(Ub[I], In.Ub[I]);
  }
  mk(Step, In.Step);
  mk(Beta, In.Beta);
  F(FgmN, H, Fv, X, Lb, Ub, Step, Beta, FgmIters);
  if (O)
    for (int I = 0; I < FgmN; ++I)
      put(*O, X[I]);
}

template <class T, class Fn> void luf(Fn F, const Inputs &In, Out *O) {
  std::unique_ptr<T[][32]> Am(new T[32][32]);
  auto A = Am.get();
  int Pivot[32];
  for (int I = 0; I < LufN; ++I)
    for (int J = 0; J < LufN; ++J)
      mk(A[I][J], In.A[I][J]);
  F(LufN, A, Pivot);
  if (O) {
    for (int I = 0; I < LufN; ++I)
      for (int J = 0; J < LufN; ++J)
        put(*O, A[I][J]);
    O->Ints.assign(Pivot, Pivot + LufN);
  }
}

/// One timed (program, config, analysis) case.
struct Case {
  const char *Prog, *Cfg, *Ana;
  void (*Sound)(const Inputs &, Out *);
  void (*Plain)(const Inputs &, Out *);
  void (*Ref)(const Inputs &, Out *);
  std::vector<double> CallNs, PlainNs;
  unsigned PlainReps = 0;
  Out First;
  unsigned ContainFail = 0, IdentFail = 0;
};

#define PB_CASE(P, C, A)                                                      \
  Case {                                                                      \
    #P, #C, #A,                                                               \
        [](const Inputs &In, Out *O) { P<f64a>(pb_##C##_##A::P, In, O); },     \
        [](const Inputs &In, Out *O) { P<double>(pb_plain::P, In, O); },       \
        [](const Inputs &In, Out *O) { P<pbdd>(pb_ddref::P, In, O); }, {}, {}, \
        0, {}, 0, 0                                                           \
  }
#define PB_PROGRAMS(C, A)                                                     \
  PB_CASE(henon, C, A), PB_CASE(sor, C, A), PB_CASE(fgm, C, A),               \
      PB_CASE(luf, C, A)

double nsSince(Clock::time_point T) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T).count();
}

const char *notation(const char *Cfg) {
  return std::strcmp(Cfg, "dspv") == 0 ? "f64a-dspv" : "f64a-smpn";
}

/// One sound call under a fresh environment (so every call draws the same
/// symbol stream); only argument set-up and the call itself are timed.
double soundCall(Case &C, const Inputs &In, Out *O) {
  safegen::sg::SoundScope Scope(notation(C.Cfg), 16);
  auto T0 = Clock::now();
  C.Sound(In, nullptr);
  double Ns = nsSince(T0);
  if (O) {
    // Outputs are read from a second, identical call: the timed call
    // keeps no output bookkeeping.
    safegen::sg::SoundScope Again(notation(C.Cfg), 16);
    C.Sound(In, O);
  }
  return Ns;
}

bool contains(double Lo, double Hi, pbdd R) {
  return !(R < pbdd(Lo)) && !(pbdd(Hi) < R);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 4) {
    std::fprintf(stderr, "usage: %s INPUTS SECONDS MIN_ROUNDS [--noana]\n", Argv[0]);
    return 2;
  }
  Inputs In{};
  if (!readInputs(Argv[1], In)) {
    std::fprintf(stderr, "cannot read inputs from %s\n", Argv[1]);
    return 2;
  }
  const double Seconds = std::atof(Argv[2]);
  const size_t MinRounds = static_cast<size_t>(std::atol(Argv[3]));
  const bool NoAna = Argc > 4 && std::strcmp(Argv[4], "--noana") == 0;

  std::vector<Case> Cases = {PB_PROGRAMS(dspv, ana), PB_PROGRAMS(smpn, ana)};
  if (NoAna) {
    std::vector<Case> More = {PB_PROGRAMS(dspv, noana), PB_PROGRAMS(smpn, noana)};
    Cases.insert(Cases.end(), More.begin(), More.end());
  }

  // Reference and first outputs; containment of every enclosure.
  for (Case &C : Cases) {
    Out Ref;
    C.Ref(In, &Ref);
    soundCall(C, In, &C.First);
    if (C.First.Lo.size() != Ref.Ref.size()) {
      ++C.ContainFail;
      continue;
    }
    if (std::strcmp(C.Prog, "luf") == 0 && C.First.Ints != Ref.Ints)
      ++C.ContainFail; // pivot choices diverged from the reference
    for (size_t I = 0; I < Ref.Ref.size(); ++I)
      if (!contains(C.First.Lo[I], C.First.Hi[I], Ref.Ref[I]))
        ++C.ContainFail;
  }

  // Round-robin timing: one sound call per case, then a block of plain
  // calls long enough to time, until the budget is spent and at least
  // MinRounds rounds ran.
  auto Start = Clock::now();
  Out Check;
  size_t Round = 0;
  while (Round < MinRounds || nsSince(Start) < Seconds * 1e9) {
    for (Case &C : Cases) {
      // Every 64th round re-reads the outputs and compares bit-for-bit.
      bool Verify = Round % 64 == 63;
      Check = Out();
      C.CallNs.push_back(soundCall(C, In, Verify ? &Check : nullptr));
      if (Verify &&
          (std::memcmp(Check.Lo.data(), C.First.Lo.data(), 8 * Check.Lo.size()) != 0 ||
           std::memcmp(Check.Hi.data(), C.First.Hi.data(), 8 * Check.Hi.size()) != 0))
        ++C.IdentFail;
      if (!C.PlainReps) {
        auto T0 = Clock::now();
        C.Plain(In, nullptr);
        C.PlainReps = static_cast<unsigned>(std::max(1.0, 20000.0 / std::max(nsSince(T0), 1.0)));
      }
      auto T0 = Clock::now();
      for (unsigned R = 0; R < C.PlainReps; ++R)
        C.Plain(In, nullptr);
      C.PlainNs.push_back(nsSince(T0) / C.PlainReps);
    }
    ++Round;
  }

  int Rc = 0;
  for (Case &C : Cases) {
    double Bits = 1e9;
    for (double B : C.First.Bits)
      Bits = std::min(Bits, B);
    std::printf("pc %s %s %s bits_min=%.17g outputs=%zu contain_fail=%u "
                "ident_fail=%u\n",
                C.Prog, C.Cfg, C.Ana, Bits, C.First.Lo.size(), C.ContainFail,
                C.IdentFail);
    for (auto [Tag, V] : {std::pair{"call", &C.CallNs}, std::pair{"plain", &C.PlainNs}}) {
      std::printf("%s", Tag);
      for (double Ns : *V)
        std::printf(" %.1f", Ns);
      std::printf("\n");
    }
    if (C.ContainFail || C.IdentFail)
      Rc = 1;
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  std::printf("rss_kib %ld\n", U.ru_maxrss);
  return Rc;
}
