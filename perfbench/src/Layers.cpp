//===- Layers.cpp - Kernels and per-layer measurements shared by workloads ===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "aa/Batch.h"
#include "aa/Runtime.h"
#include "core/BatchKernel.h"
#include "core/NativeEmitter.h"
#include "core/SafeGen.h"
#include "core/Tape.h"
#include "frontend/Frontend.h"
#include "service/Wire.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace pb {

using namespace safegen;

KernelSource poly11Source() {
  return {"poly11",
          "double f(double x) {\n"
          "  double t = x*x - x;\n"
          "  double u = t*x + 0.5;\n"
          "  double w = u*u - t;\n"
          "  return (w+x)*u - w*t;\n"
          "}\n",
          "f",
          {0.5},
          {}};
}

KernelSource div40Source() {
  std::string S = "double f(double x, double y) {\n"
                  "  double t = x * x - y;\n"
                  "  double u = t * x + 0.5;\n"
                  "  double w = u / (t * t + 2.0);\n";
  for (unsigned I = 0; I < 40; ++I)
    switch (I % 4) {
    case 0: S += "  w = w * u + t * 0.125;\n"; break;
    case 1: S += "  u = (u + w) * 0.5 - t;\n"; break;
    case 2: S += "  t = t * w + u * u;\n"; break;
    default: S += "  w = w / (t * t + 3.0) + u;\n"; break;
    }
  S += "  return sqrt(w * w + 2.0) + u;\n"
       "}\n";
  return {"div40", S, "f", {0.3, 0.6}, {}};
}

std::vector<KernelSource> servicePool(uint64_t Seed, size_t Count) {
  Rng R = Rng(Seed).fork(0x5e41);
  std::vector<KernelSource> Pool;
  char Line[160];
  for (size_t K = 0; K < Count; ++K) {
    // Twelve statements: three of each kind, in a seeded order.
    unsigned Kinds[12];
    for (unsigned I = 0; I < 12; ++I)
      Kinds[I] = I % 4;
    for (unsigned I = 11; I > 0; --I)
      std::swap(Kinds[I], Kinds[R.below(I + 1)]);
    // Constants are printed with four decimals and read back, so the
    // double version below computes exactly what the source says.
    auto C = [&](double Lo, double Hi) {
      std::snprintf(Line, sizeof(Line), "%.4f", R.uniform(Lo, Hi));
      return std::strtod(Line, nullptr);
    };
    std::vector<double> Cs = {C(0.2, 0.8), C(0.3, 0.7), C(1.5, 2.5)};
    std::string S = "double f(double x, double y) {\n";
    std::snprintf(Line, sizeof(Line),
                  "  double t = x * x - %.4f * y;\n"
                  "  double u = t * x + %.4f;\n"
                  "  double w = u / (t * t + %.4f);\n",
                  Cs[0], Cs[1], Cs[2]);
    S += Line;
    static const char *const Forms[4] = {
        "  w = w * %.4f + t * %.4f;\n", "  u = (u + w) * %.4f - t * %.4f;\n",
        "  t = t * %.4f + u * u * %.4f;\n", "  w = w / (t * t + %.4f) + u * %.4f;\n"};
    static const double Ranges[4][4] = {
        {0.3, 0.7, 0.1, 0.3}, {0.3, 0.6, 0.1, 0.3}, {0.2, 0.5, 0.1, 0.3}, {2.0, 3.0, 0.2, 0.5}};
    for (unsigned I = 0; I < 12; ++I) {
      const double *Rg = Ranges[Kinds[I]];
      double A = C(Rg[0], Rg[1]), B = C(Rg[2], Rg[3]);
      Cs.push_back(A);
      Cs.push_back(B);
      std::snprintf(Line, sizeof(Line), Forms[Kinds[I]], A, B);
      S += Line;
    }
    Cs.push_back(C(1.5, 2.5));
    std::snprintf(Line, sizeof(Line), "  return sqrt(w * w + %.4f) + u * u;\n}\n",
                  Cs.back());
    S += Line;
    std::vector<unsigned> Ks(Kinds, Kinds + 12);
    auto Plain = [Ks, Cs](double X, double Y) {
      double T = X * X - Cs[0] * Y;
      double U = T * X + Cs[1];
      double W = U / (T * T + Cs[2]);
      for (size_t I = 0; I < Ks.size(); ++I) {
        const double A = Cs[3 + 2 * I], B = Cs[4 + 2 * I];
        switch (Ks[I]) {
        case 0: W = W * A + T * B; break;
        case 1: U = (U + W) * A - T * B; break;
        case 2: T = T * A + U * U * B; break;
        default: W = W / (T * T + A) + U * B; break;
        }
      }
      return std::sqrt(W * W + Cs.back()) + U * U;
    };
    Pool.push_back({"pool" + std::to_string(K), S, "f", {0.4, 0.6}, Plain});
  }
  return Pool;
}

namespace {

aa::AAConfig config(const char *Notation, int K, bool Sparse = false) {
  aa::AAConfig C = *aa::AAConfig::parse(Notation);
  C.K = K;
  C.Sparse = Sparse;
  return C;
}

/// Median time of Fn over repetitions within Budget seconds (at least
/// MinReps), in the unit Scale converts seconds to.
template <typename Fn>
double medianTime(double Budget, unsigned MinReps, double Scale, Fn &&F) {
  std::vector<double> T;
  auto Start = Clock::now();
  while (T.size() < MinReps || (secondsSince(Start) < Budget && T.size() < 100000)) {
    auto A = Clock::now();
    F();
    T.push_back(std::chrono::duration<double>(Clock::now() - A).count() * Scale);
  }
  return median(T);
}

/// Seeds for N instances of a kernel: its argument seeds, with the first
/// floating argument nudged per instance so instances differ.
std::vector<std::vector<double>> instanceArgs(const KernelSource &K, size_t N) {
  std::vector<std::vector<double>> A(N, K.Args);
  for (size_t I = 0; I < N; ++I)
    if (!A[I].empty())
      A[I][0] += 1e-3 * static_cast<double>(I % 97) * (K.Args[0] != std::floor(K.Args[0]));
  return A;
}

size_t countOccurrences(const std::string &S, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = S.find(Needle); P != std::string::npos;
       P = S.find(Needle, P + 1))
    ++N;
  return N;
}

} // namespace

void measureCommonLayers(const std::vector<KernelSource> &Kernels,
                         double Budget, Result &R) {
  const double Slice = Budget / 6.0 / static_cast<double>(Kernels.size());

  // Frontend.
  std::vector<double> Parse;
  for (const KernelSource &K : Kernels)
    Parse.push_back(medianTime(Slice, 5, 1e6, [&] {
      trace::Span S("frontend.parseSource");
      auto CU = frontend::parseSource(K.Name + ".c", K.Source);
      keep(CU);
    }));
  R.set("frontend.parse_us", geomean(Parse), "us");

  // Compiler passes and the analysis/emit counts, at both paper configs.
  std::map<std::string, std::vector<double>> PassUs;
  double DagNodes = 0, ReusePairs = 0, EmitBytes = 0, Sites = 0;
  for (const KernelSource &K : Kernels)
    for (const char *Cfg : {"f64a-dspv", "f64a-smpn"}) {
      core::SafeGenOptions O;
      O.Config = config(Cfg, 16);
      std::map<std::string, std::vector<double>> Local;
      core::SafeGenResult Last;
      medianTime(Slice / 2, 3, 1e6, [&] {
        trace::Span S("core.compileSource");
        Last = core::compileSource(K.Name + ".c", K.Source, O);
        for (const core::PassTiming &P : Last.PassTimings)
          Local[P.Name].push_back(P.Seconds * 1e6);
      });
      for (auto &[Name, V] : Local)
        PassUs[Name].push_back(std::max(median(V), 1e-3));
      for (const analysis::AnalysisReport &Rep : Last.Reports) {
        DagNodes += Rep.DAGNodes;
        ReusePairs += Rep.ReusePairs;
      }
      EmitBytes += static_cast<double>(Last.OutputSource.size());
      Sites += static_cast<double>(countOccurrences(Last.OutputSource, "aa_prioritize("));
    }
  for (const char *Pass : {"const-fold", "tac", "annotate", "affine-rewrite", "emit"})
    R.set(std::string("core.pass.") + Pass + "_us",
          PassUs.count(Pass) ? geomean(PassUs[Pass]) : std::nan(""), "us");
  R.set("analysis.dag_nodes", DagNodes, "count");
  R.set("analysis.reuse_pairs", ReusePairs, "count");
  R.set("core.emit_bytes", EmitBytes, "bytes");
  R.set("core.emit_prioritize_sites", Sites, "count");

  // Tape compiler and native emitter. Kernels outside the tape subset
  // have no tape to emit from; poly11 stands in when none has one.
  std::vector<double> TapeUs, NativeUs;
  auto TapeAndNative = [&](const KernelSource &K) {
    auto CU = frontend::parseSource(K.Name + ".c", K.Source);
    const frontend::FunctionDecl *F = CU->Ctx->tu().findFunction(K.Function);
    if (!F)
      return;
    std::optional<core::Tape> T;
    TapeUs.push_back(std::max(medianTime(Slice, 5, 1e6, [&] {
      trace::Span S("core.compileToTape");
      T = core::compileToTape(F);
    }), 1e-3));
    if (!T)
      return;
    NativeUs.push_back(std::max(medianTime(Slice, 5, 1e6, [&] {
      trace::Span S("core.emitNativeBlock");
      core::NativeBlock B = core::emitNativeBlock(*T);
      keep(B);
    }), 1e-3));
  };
  for (const KernelSource &K : Kernels)
    TapeAndNative(K);
  if (NativeUs.empty())
    TapeAndNative(poly11Source());
  R.set("core.tape.compile_us", geomean(TapeUs), "us");
  R.set("core.native.emit_us", geomean(NativeUs), "us");

  // Wire: the hit-path frames (hash-only 1-instance request, 1-instance
  // response), which every cache-hit request encodes and decodes once.
  {
    service::wire::EvalRequest Req;
    Req.SourceHash = service::wire::fnv1a64(Kernels.front().Source);
    Req.Config = "f64a-dspv";
    Req.Eng = service::wire::Engine::Native;
    Req.Function = Kernels.front().Function;
    Req.NumArgs = static_cast<uint32_t>(Kernels.front().Args.size());
    Req.NumInstances = 1;
    Req.Seeds = Kernels.front().Args;
    service::wire::EvalResponse Resp;
    Resp.St = service::wire::Status::Ok;
    Resp.Instances.resize(1);
    Resp.Instances[0].Success = true;
    Resp.Instances[0].Lo = 0.25;
    Resp.Instances[0].Hi = 0.25000000001;
    Resp.Instances[0].CertifiedBits = 40;
    const unsigned Reps = 256;
    std::string ReqBytes, RespBytes;
    double Enc = medianTime(Budget / 12, 5, 1e9 / Reps, [&] {
      trace::Span S("service.wire.encode");
      for (unsigned I = 0; I < Reps; ++I) {
        ReqBytes = service::wire::encodeEvalRequest(Req);
        RespBytes = service::wire::encodeEvalResponse(Resp);
        keep(ReqBytes);
        keep(RespBytes);
      }
    });
    service::wire::EvalRequest ReqOut;
    service::wire::EvalResponse RespOut;
    bool Ok = true;
    double Dec = medianTime(Budget / 12, 5, 1e9 / Reps, [&] {
      trace::Span S("service.wire.decode");
      for (unsigned I = 0; I < Reps; ++I) {
        Ok &= service::wire::decodeEvalRequest(ReqBytes, ReqOut);
        Ok &= service::wire::decodeEvalResponse(RespBytes, RespOut);
      }
    });
    R.Attempted += 1;
    if (!Ok || ReqOut.SourceHash != Req.SourceHash ||
        RespOut.Instances.size() != 1 || RespOut.Instances[0].Hi != Resp.Instances[0].Hi)
      R.fail("wire round trip changed a field");
    R.set("service.wire.encode_ns", Enc, "ns");
    R.set("service.wire.decode_ns", Dec, "ns");
  }

  // Per-form runtime: aa_add_f64 / aa_mul_f64 on forms holding a few
  // symbols, at k = 16 in both paper configs.
  {
    std::vector<double> OpNs;
    for (const char *Cfg : {"f64a-dspv", "f64a-smpn"}) {
      sg::SoundScope Scope(Cfg, 16);
      f64a A = aa_input_f64(0.3), B = aa_input_f64(0.7);
      f64a C = aa_mul_f64(A, B);
      const unsigned Reps = 512;
      OpNs.push_back(medianTime(Budget / 12, 5, 1e9 / (2 * Reps), [&] {
        trace::Span S("aa.form_ops");
        f64a X = C;
        for (unsigned I = 0; I < Reps; ++I) {
          X = aa_add_f64(X, A);
          X = aa_mul_f64(X, B);
        }
        keep(X);
      }));
    }
    R.set("aa.form_op_ns", geomean(OpNs), "ns");
  }

  // Batch kernels directly (no tape, no interpreter), and the glue share
  // of the native engine on the same kernel and size.
  {
    const int32_t N = 1024;
    aa::AAConfig Cfg = config("f64a-dspn", 16);
    std::vector<double> Xs(N), Lo(N), Hi(N);
    for (int32_t I = 0; I < N; ++I)
      Xs[I] = 0.25 + 0.5 * I / N;
    support::ThreadPool One(1);
    double KernelNs = medianTime(Budget / 12, 5, 1e9 / N, [&] {
      trace::Span S("aa.batch.poly11");
      aa::batch::run(Cfg, N, One, [&](int32_t First, int32_t) {
        aa::BatchF64 X = aa::BatchF64::input(Xs.data() + First);
        aa::BatchF64 Y = poly11(X);
        Y.bounds(Lo.data() + First, Hi.data() + First);
      });
      keep(Lo);
    });
    R.set("aa.batch_kernel_ns_per_instance", KernelNs, "ns");

    KernelSource P = poly11Source();
    auto CU = frontend::parseSource("poly11.c", P.Source);
    core::InterpreterOptions IO;
    IO.Engine = core::ExecEngine::Native;
    core::CompiledBatchFn Fn = core::compileBatchFn(CU->Ctx->tu(), "f", IO, true);
    std::vector<std::vector<double>> Args(N);
    for (int32_t I = 0; I < N; ++I)
      Args[I] = {Xs[I]};
    std::vector<core::BatchCallResult> Res;
    double NativeNs = medianTime(Budget / 12, 5, 1e9 / N, [&] {
      trace::Span S("core.runBatchCompiled");
      Res = core::runBatchCompiled(CU->Ctx->tu(), Fn, Cfg, Args, 1, IO);
    });
    R.Attempted += 1;
    for (int32_t I = 0; I < N; ++I)
      if (!Res[I].Success || Res[I].Return.Lo != Lo[I] || Res[I].Return.Hi != Hi[I]) {
        R.fail("native poly11 differs from BatchF64 poly11");
        break;
      }
    R.set("core.exec.glue_share", 1.0 - KernelNs / NativeNs, "ratio");

    // Resident bytes per instance of div40's result at K = 128.
    for (bool Sparse : {false, true}) {
      aa::AAConfig C = config("f64a-dspn", 128, Sparse);
      fp::RoundUpwardScope Up;
      aa::BatchEnvScope Env(C, N);
      std::vector<double> Ys(N, 0.6);
      aa::BatchF64 X = aa::BatchF64::input(Xs.data());
      aa::BatchF64 Y = aa::BatchF64::input(Ys.data());
      aa::BatchF64 Out = div40(X, Y);
      R.set(std::string("aa.batch.bytes_per_instance.") + (Sparse ? "sparse" : "dense"),
            static_cast<double>(Out.residentBytes()) / N, "bytes");
    }
  }
}

void measureExecLayers(const std::vector<KernelSource> &Kernels, double Budget,
                       Result &R) {
  const double Slice = Budget / 7.0 / static_cast<double>(Kernels.size());
  aa::AAConfig Cfg = config("f64a-dspn", 16);
  std::vector<double> TapeNs, NativeNs, CallUs, Speedup, PrioShare;
  size_t Fallback = 0, Total = 0;
  for (const KernelSource &K : Kernels) {
    auto CU = frontend::parseSource(K.Name + ".c", K.Source);
    const frontend::TranslationUnit &TU = CU->Ctx->tu();
    core::InterpreterOptions Tape, Native, TapeNoPrio;
    Tape.Engine = core::ExecEngine::Tape;
    Native.Engine = core::ExecEngine::Native;
    TapeNoPrio = Tape;
    TapeNoPrio.Prioritize = false;
    core::CompiledBatchFn Fn = core::compileBatchFn(TU, K.Function, Native, true);
    core::CompiledBatchFn FnNoPrio = core::compileBatchFn(TU, K.Function, TapeNoPrio, false);
    const size_t N = 64;
    auto Args = instanceArgs(K, N);
    auto One = instanceArgs(K, 1);
    std::vector<core::BatchCallResult> A, B;
    auto Run = [&](const core::CompiledBatchFn &F, const core::InterpreterOptions &O,
                   const std::vector<std::vector<double>> &In, unsigned Threads,
                   std::vector<core::BatchCallResult> &Out) {
      trace::Span S("core.runBatchCompiled");
      Out = core::runBatchCompiled(TU, F, Cfg, In, Threads, O);
    };
    double TT = medianTime(Slice, 3, 1e9 / N, [&] { Run(Fn, Tape, Args, 1, A); });
    double NT = medianTime(Slice, 3, 1e9 / N, [&] { Run(Fn, Native, Args, 1, B); });
    double N4 = medianTime(Slice, 3, 1e9 / N, [&] { Run(Fn, Native, Args, 4, B); });
    double TP = medianTime(Slice, 3, 1e9 / N, [&] { Run(FnNoPrio, TapeNoPrio, Args, 1, B); });
    CallUs.push_back(medianTime(Slice, 3, 1e6, [&] { Run(Fn, Native, One, 1, B); }));
    Run(Fn, Native, Args, 1, B);
    R.Attempted += 1;
    for (size_t I = 0; I < N; ++I) {
      ++Total;
      Fallback += !A[I].UsedTape;
      if (A[I].Success != B[I].Success || A[I].Return.Lo != B[I].Return.Lo ||
          A[I].Return.Hi != B[I].Return.Hi) {
        R.fail(K.Name + ": tape and native differ");
        break;
      }
    }
    TapeNs.push_back(TT);
    NativeNs.push_back(NT);
    Speedup.push_back(NT / N4);
    PrioShare.push_back(1.0 - TP / TT);
  }
  R.set("core.exec.tape_ns_per_instance", geomean(TapeNs), "ns");
  R.set("core.exec.native_ns_per_instance", geomean(NativeNs), "ns");
  R.set("core.exec.call_us", geomean(CallUs), "us");
  R.set("support.pool.speedup_t4", geomean(Speedup), "ratio");
  R.set("core.exec.tree_fallback_share",
        Total ? static_cast<double>(Fallback) / static_cast<double>(Total) : 0.0, "ratio");
  double Share = 0.0;
  for (double S : PrioShare)
    Share += S;
  R.set("aa.prioritize_share", Share / static_cast<double>(PrioShare.size()), "ratio");
}

} // namespace pb
