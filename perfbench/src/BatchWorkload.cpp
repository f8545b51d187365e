//===- BatchWorkload.cpp - Offline batched evaluation ---------------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `batch` workload: each kernel is compiled once with compileBatchFn,
/// then runBatchCompiled runs on four threads in a fixed cyclic schedule
/// over kernel (poly11 at K = 16 dense, div40 at K = 128 sparse), engine
/// (tape, native) and batch size (1024, 16384). Every cycle also times
/// the same kernels in plain double (the unsound reference), warm
/// single-instance calls (an already-compiled query) and one cold
/// single-instance call that parses and compiles first.
///
/// Checks: tape and native agree bit-for-bit on every call, and sampled
/// instances agree with the tree walker.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/BatchKernel.h"
#include "frontend/Frontend.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace pb {

using namespace safegen;

namespace {

constexpr unsigned Threads = 4;
constexpr unsigned WarmCallsPerCycle = 50;
constexpr unsigned ColdCallsPerCycle = 20;
/// Each cycle (under a second) is a window: figures are taken per cycle
/// and the best cycle is reported; at least MinCycles run.
constexpr size_t MinCycles = 5;
/// Set-ups timed back to back at the start and in every cycle.
constexpr unsigned SetupReps = 5;

struct Kernel {
  KernelSource Src;
  aa::AAConfig Cfg;
  std::unique_ptr<frontend::CompilationUnit> CU;
  core::CompiledBatchFn Fn;
};

struct Cell {
  size_t Kernel;
  size_t N;
  std::vector<std::vector<double>> Args;
  std::vector<double> Flat; ///< the same inputs, for the double reference
  std::vector<double> TapeUs, NativeUs, NativeT1Us, DoubleUs;
  std::vector<core::BatchCallResult> Ref; ///< first tape result
  unsigned DoubleReps = 0;
};

aa::AAConfig config(const char *Notation, int K, bool Sparse) {
  aa::AAConfig C = *aa::AAConfig::parse(Notation);
  C.K = K;
  C.Sparse = Sparse;
  return C;
}

core::InterpreterOptions engine(core::ExecEngine E) {
  core::InterpreterOptions O;
  O.Engine = E;
  return O;
}

void compileKernel(Kernel &K) {
  trace::Span S("core.compileBatchFn");
  K.CU = frontend::parseSource(K.Src.Name + ".c", K.Src.Source);
  K.Fn = core::compileBatchFn(K.CU->Ctx->tu(), K.Src.Function,
                              engine(core::ExecEngine::Native), true);
}

std::vector<Kernel> makeKernels() {
  std::vector<Kernel> Ks(2);
  Ks[0].Src = poly11Source();
  Ks[0].Cfg = config("f64a-dspn", 16, false);
  Ks[1].Src = div40Source();
  Ks[1].Cfg = config("f64a-dspn", 128, true);
  return Ks;
}

std::vector<Cell> makeCells(uint64_t Seed) {
  std::vector<Cell> Cells;
  for (size_t K = 0; K < 2; ++K)
    for (size_t N : {size_t(1024), size_t(16384)}) {
      Cell C;
      C.Kernel = K;
      C.N = N;
      Rng R = Rng(Seed).fork(K * 131 + N);
      for (size_t I = 0; I < N; ++I) {
        if (K == 0)
          C.Args.push_back({R.uniform(0.25, 0.75)});
        else
          C.Args.push_back({R.uniform(0.2, 0.4), R.uniform(0.5, 0.7)});
        C.Flat.insert(C.Flat.end(), C.Args.back().begin(), C.Args.back().end());
      }
      Cells.push_back(std::move(C));
    }
  return Cells;
}

double doubleEval(const Cell &C) {
  double Acc = 0.0;
  if (C.Kernel == 0) {
    for (size_t I = 0; I < C.N; ++I)
      Acc += poly11(C.Flat[I]);
  } else {
    for (size_t I = 0; I < C.N; ++I)
      Acc += div40(C.Flat[2 * I], C.Flat[2 * I + 1]);
  }
  return Acc;
}

bool sameResults(const std::vector<core::BatchCallResult> &A,
                 const std::vector<core::BatchCallResult> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Success != B[I].Success ||
        std::memcmp(&A[I].Return.Lo, &B[I].Return.Lo, 8) != 0 ||
        std::memcmp(&A[I].Return.Hi, &B[I].Return.Hi, 8) != 0 ||
        std::memcmp(&A[I].CertifiedBits, &B[I].CertifiedBits, 8) != 0)
      return false;
  return true;
}

} // namespace

void runBatch(const RunContext &Ctx, Result &R) {
  // Set-up: parse and compile both kernels, build the seeded inputs. It is
  // timed here and again at the start of every cycle (spread over the run
  // like every other figure); setup_s is the fastest, as with every other
  // timed figure's best window.
  std::vector<double> SetupS;
  std::vector<Kernel> Ks;
  std::vector<Cell> Cells;
  auto Setup = [&](std::vector<Kernel> &K, std::vector<Cell> &C) {
    for (unsigned I = 0; I < SetupReps; ++I) {
      auto T0 = Clock::now();
      std::vector<Kernel> K1 = makeKernels();
      for (Kernel &Each : K1)
        compileKernel(Each);
      std::vector<Cell> C1 = makeCells(Ctx.Seed);
      SetupS.push_back(secondsSince(T0));
      // The previous repeat's kernels and inputs are freed here, untimed.
      K = std::move(K1);
      C = std::move(C1);
    }
  };
  Setup(Ks, Cells);
  {
    // Exact-count check: the inputs are a function of the seed.
    std::vector<Cell> Again = makeCells(Ctx.Seed);
    bool Same = true;
    for (size_t C = 0; C < Cells.size(); ++C)
      Same &= hashDoubles(Cells[C].Flat) == hashDoubles(Again[C].Flat);
    R.Attempted += 1;
    if (!Same)
      R.fail("batch inputs are not a function of the seed");
  }

  const core::InterpreterOptions Tape = engine(core::ExecEngine::Tape);
  const core::InterpreterOptions Native = engine(core::ExecEngine::Native);
  std::vector<Samples> WarmUs(Ks.size());
  // Per kernel, per cycle.
  std::vector<std::vector<Samples>> WarmW(Ks.size()), ColdW(Ks.size()), CompileW(Ks.size());
  uint64_t Fallback = 0;
  double Sink = 0.0;

  auto Run = [&](Kernel &K, const core::InterpreterOptions &O,
                 const std::vector<std::vector<double>> &Args, unsigned T,
                 std::vector<core::BatchCallResult> &Out) {
    trace::Span S("core.runBatchCompiled");
    auto T0 = Clock::now();
    Out = core::runBatchCompiled(K.CU->Ctx->tu(), K.Fn, K.Cfg, Args, T, O);
    return usBetween(T0, Clock::now());
  };

  std::vector<core::BatchCallResult> TapeOut, NativeOut, Tmp;
  // Instance I of the kernel's small cell, as a one-instance query.
  auto Query = [&](size_t K, size_t I) {
    const Cell &C = Cells[2 * K];
    return std::vector<std::vector<double>>(1, C.Args[I % C.N]);
  };
  // W is the sample's cycle, or -1 for samples outside the schedule.
  auto Warm = [&](size_t K, size_t I, long W) {
    double Us = Run(Ks[K], Native, Query(K, I), 1, Tmp);
    WarmUs[K].add(Us);
    if (W >= 0)
      WarmW[K][W].add(Us);
  };
  auto Cold = [&](size_t K, size_t I, long W) {
    Kernel C;
    C.Src = Ks[K].Src;
    C.Cfg = Ks[K].Cfg;
    auto T0 = Clock::now();
    compileKernel(C);
    double CompileUs = usBetween(T0, Clock::now());
    Run(C, Native, Query(K, I), 1, Tmp);
    if (W >= 0) {
      CompileW[K][W].add(CompileUs);
      ColdW[K][W].add(usBetween(T0, Clock::now()));
    }
    R.Attempted += 1;
    const Cell &Small = Cells[2 * K];
    if (!Small.Ref.empty() && !sameResults(Tmp, {Small.Ref[I % Small.N]}))
      R.fail(C.Src.Name + ": cold single-instance call differs from the batch");
  };

  auto Start = Clock::now();
  size_t Cycle = 0;
  while (Cycle < MinCycles || secondsSince(Start) < Ctx.Seconds) {
    const long W = static_cast<long>(Cycle);
    for (size_t K = 0; K < Ks.size(); ++K) {
      WarmW[K].emplace_back();
      ColdW[K].emplace_back();
      CompileW[K].emplace_back();
    }
    {
      std::vector<Kernel> K2;
      std::vector<Cell> C2;
      Setup(K2, C2);
    }
    for (Cell &C : Cells) {
      Kernel &K = Ks[C.Kernel];
      double TT = Run(K, Tape, C.Args, Threads, TapeOut);
      double NT = Run(K, Native, C.Args, Threads, NativeOut);
      C.TapeUs.push_back(TT);
      C.NativeUs.push_back(NT);
      R.Attempted += 2;
      if (C.Ref.empty()) {
        C.Ref = TapeOut;
        for (const core::BatchCallResult &B : C.Ref)
          Fallback += !B.UsedTape;
      }
      if (!sameResults(TapeOut, NativeOut))
        R.fail(K.Src.Name + "/n" + std::to_string(C.N) + ": native differs from tape");
      if (!sameResults(TapeOut, C.Ref))
        R.fail(K.Src.Name + "/n" + std::to_string(C.N) + ": tape result changed between calls");
      if (Ctx.Trace)
        C.NativeT1Us.push_back(Run(K, Native, C.Args, 1, Tmp));

      // The unsound reference, in blocks long enough to time.
      if (!C.DoubleReps) {
        auto T0 = Clock::now();
        Sink += doubleEval(C);
        C.DoubleReps = static_cast<unsigned>(std::max(1.0, 200.0 / std::max(usBetween(T0, Clock::now()), 1e-3)));
      }
      auto T0 = Clock::now();
      for (unsigned I = 0; I < C.DoubleReps; ++I)
        Sink += doubleEval(C);
      C.DoubleUs.push_back(usBetween(T0, Clock::now()) / C.DoubleReps);
    }
    // Warm single-instance queries on the compiled kernels, and cold ones
    // that must parse and compile first.
    for (size_t K = 0; K < Ks.size(); ++K)
      for (unsigned I = 0; I < WarmCallsPerCycle; ++I)
        Warm(K, Cycle * WarmCallsPerCycle + I, W);
    for (size_t K = 0; K < Ks.size(); ++K)
      for (unsigned I = 0; I < ColdCallsPerCycle; ++I)
        Cold(K, Cycle * ColdCallsPerCycle + I, W);
    ++Cycle;
  }
  // Enough warm samples for the p99 (ten beyond it), however fast the
  // host ran the schedule.
  for (size_t K = 0; K < Ks.size(); ++K)
    for (size_t I = WarmUs[K].size(); I < 1000; ++I)
      Warm(K, I, -1);
  keep(Sink);

  // Sampled instances against the tree walker.
  double BitsMin = 1e9;
  for (Cell &C : Cells) {
    Kernel &K = Ks[C.Kernel];
    Rng Rs = Rng(Ctx.Seed).fork(0x7ee + C.N + C.Kernel);
    std::vector<size_t> Idx;
    std::vector<std::vector<double>> Args;
    for (unsigned I = 0; I < 8; ++I) {
      Idx.push_back(Rs.below(C.N));
      Args.push_back(C.Args[Idx.back()]);
    }
    std::vector<core::BatchCallResult> Tree;
    Run(K, engine(core::ExecEngine::Tree), Args, 1, Tree);
    R.Attempted += 1;
    for (size_t I = 0; I < Idx.size(); ++I)
      if (!sameResults({Tree[I]}, {C.Ref[Idx[I]]})) {
        R.fail(K.Src.Name + "/n" + std::to_string(C.N) + ": tape differs from the tree walker");
        break;
      }
    for (const core::BatchCallResult &B : C.Ref) {
      if (!B.Success)
        R.fail(K.Src.Name + ": instance failed: " + B.Error);
      BitsMin = std::min(BitsMin, B.CertifiedBits);
    }
  }

  // Per cell over the whole run: the ratios and the per-layer rows.
  std::vector<double> Slow, TapeNs, NativeNs, Speedup;
  for (Cell &C : Cells) {
    double D = median(C.DoubleUs);
    Slow.push_back(median(C.TapeUs) / D);
    Slow.push_back(median(C.NativeUs) / D);
    TapeNs.push_back(median(C.TapeUs) * 1e3 / C.N);
    NativeNs.push_back(median(C.NativeUs) * 1e3 / C.N);
    std::fprintf(stderr,
                 "batch: %s n%zu: tape %.1f ns/inst, native %.1f ns/inst, "
                 "double %.2f ns/inst (%zu calls)\n",
                 Ks[C.Kernel].Src.Name.c_str(), C.N, TapeNs.back(), NativeNs.back(),
                 D * 1e3 / C.N, C.TapeUs.size());
    if (!C.NativeT1Us.empty()) {
      Speedup.push_back(median(C.NativeT1Us) / median(C.NativeUs));
      std::fprintf(stderr, "batch: %s n%zu: native t1/t4 = %.2f\n",
                   Ks[C.Kernel].Src.Name.c_str(), C.N, Speedup.back());
    }
  }
  // Per cycle: throughput as the geomean over cells of each cell's rate
  // (every cell weighs the same, so the memory-bound div40/n16384 cell,
  // most exposed to other tenants, does not set it alone), and the
  // geomean over kernels of the single-instance percentiles.
  std::vector<double> InstPerS, CallsPerS, HitW, MissW, CompileWin;
  for (size_t W = 0; W < Cycle; ++W) {
    std::vector<double> Inst, Calls;
    for (const Cell &C : Cells)
      for (const std::vector<double> *Us : {&C.TapeUs, &C.NativeUs}) {
        const double Seconds = (*Us)[W] * 1e-6;
        Calls.push_back(1.0 / Seconds);
        Inst.push_back(static_cast<double>(C.N) / Seconds);
      }
    InstPerS.push_back(geomean(Inst));
    CallsPerS.push_back(geomean(Calls));
    std::vector<double> H, M, Cp;
    for (size_t K = 0; K < Ks.size(); ++K) {
      H.push_back(WarmW[K][W].p(0.5));
      M.push_back(ColdW[K][W].p(0.5));
      Cp.push_back(median(CompileW[K][W].V));
    }
    HitW.push_back(geomean(H));
    MissW.push_back(geomean(M));
    CompileWin.push_back(geomean(Cp));
  }
  std::vector<double> HitP50, HitP99;
  for (size_t K = 0; K < Ks.size(); ++K) {
    HitP50.push_back(WarmUs[K].p(0.5));
    HitP99.push_back(WarmUs[K].p(0.99));
  }
  std::fprintf(stderr, "batch: %zu cycles; %zu warm calls per kernel; set-up %.3f ms\n",
               Cycle, WarmUs[0].size(), 1e3 * best(SetupS, true));
  char Bits[40];
  std::snprintf(Bits, sizeof(Bits), "%.17g", BitsMin);
  R.Exact["certified_bits_min"] = Bits;
  uint64_t InputHash = 0xcbf29ce484222325ull;
  for (const Cell &C : Cells)
    InputHash = hashDoubles(C.Flat, InputHash);
  R.Exact["inputs"] = std::to_string(InputHash);

  if (!Ctx.Trace) {
    R.set("setup_s", best(SetupS, true), "s");
    R.set("compile_us", best(CompileWin, true), "us");
    R.set("slowdown", geomean(Slow), "x");
    R.set("certified_bits_min", BitsMin, "bits");
    R.set("instances_per_s", best(InstPerS, false), "1/s");
    R.set("hit_p50_us", best(HitW, true), "us");
    R.set("hit_p99_us", geomean(HitP99), "us");
    R.set("miss_p50_us", best(MissW, true), "us");
    R.set("requests_per_s", best(CallsPerS, false), "1/s");
    return;
  }

  std::vector<KernelSource> Srcs = {Ks[0].Src, Ks[1].Src};
  measureCommonLayers(Srcs, 0.1 * Ctx.Seconds, R);
  measureExecLayers(Srcs, 0.1 * Ctx.Seconds, R);
  // The schedule's own numbers replace the probe's where it has them.
  R.set("core.exec.tape_ns_per_instance", geomean(TapeNs), "ns");
  R.set("core.exec.native_ns_per_instance", geomean(NativeNs), "ns");
  R.set("core.exec.call_us", geomean(HitP50), "us");
  size_t CellInstances = 0;
  for (const Cell &C : Cells)
    CellInstances += C.N;
  R.set("core.exec.tree_fallback_share",
        static_cast<double>(Fallback) / static_cast<double>(CellInstances), "ratio");
  R.set("support.pool.speedup_t4", geomean(Speedup), "ratio");
  measureServiceLayers(Ctx, Srcs, R);
  // Tracing overhead on the schedule's most span-dense part: warm
  // single-instance calls.
  R.set("tracing.overhead_pct", trace::overheadPct([&] {
          for (unsigned I = 0; I < 200; ++I)
            Run(Ks[I % Ks.size()], Native, Query(I % Ks.size(), I), 1, Tmp);
        }),
        "%");
}

} // namespace pb
