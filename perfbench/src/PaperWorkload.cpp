//===- PaperWorkload.cpp - The paper's artifact: emitted C, host-built ----===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `paper` workload: the four Table II programs in benchmarks/
/// (henon 75 iterations, sor 10x10x25, fgm n = 8 x 25, luf 20x20), each
/// compiled by core::compileSource with the analysis on at f64a-dspv and
/// f64a-smpn, k = 16. Set-up also emits the analysis-off variants, writes
/// them with the original double code and a double-double reference into
/// one translation unit, and builds it with the host g++ against
/// aa/Runtime.h (host/paper_main.cpp). The measured phase times
/// compileSource round-robin, then runs the built program, which times
/// the generated code against the unsound double code and checks every
/// enclosure against the reference.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/SafeGen.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <regex>
#include <sstream>

namespace pb {

using namespace safegen;

namespace {

const char *const Programs[] = {"henon", "sor", "fgm", "luf"};
const char *const Configs[] = {"dspv", "smpn"};

struct Emitted {
  double Bytes = 0, Sites = 0, DagNodes = 0, ReusePairs = 0;
};

core::SafeGenOptions options(const char *Cfg, bool Analysis) {
  core::SafeGenOptions O;
  O.Config = *aa::AAConfig::parse(std::string("f64a-") + Cfg);
  O.Config.K = 16;
  O.RunAnalysis = Analysis;
  return O;
}

/// The nominal inputs, in paper_main.cpp's order.
std::vector<double> nominalInputs() {
  Rng R(0x9a9e);
  std::vector<double> V;
  V.push_back(R.uniform(0.05, 0.25)); // henon x0
  V.push_back(R.uniform(0.05, 0.25)); // henon y0
  V.push_back(1.25);                  // sor omega
  for (int I = 0; I < 100; ++I)
    V.push_back(R.uniform(0.1, 1.0));
  // fgm: H symmetric, diagonally dominant; f = -H x* with x* in the box.
  double H[8][8], XStar[8], RowSum = 0.0;
  for (int I = 0; I < 8; ++I)
    for (int J = 0; J <= I; ++J)
      H[I][J] = H[J][I] = I == J ? R.uniform(1.0, 1.5) : R.uniform(0.0, 0.1);
  for (int I = 0; I < 8; ++I)
    XStar[I] = R.uniform(0.3, 0.8);
  for (int I = 0; I < 8; ++I) {
    double S = 0.0;
    for (int J = 0; J < 8; ++J) {
      V.push_back(H[I][J]);
      S += H[I][J];
    }
    RowSum = std::max(RowSum, S);
  }
  for (int I = 0; I < 8; ++I) {
    double F = 0.0;
    for (int J = 0; J < 8; ++J)
      F -= H[I][J] * XStar[J];
    V.push_back(F);
  }
  for (int I = 0; I < 8; ++I)
    V.push_back(-1.0);
  for (int I = 0; I < 8; ++I)
    V.push_back(1.0);
  V.push_back(1.0 / RowSum); // step
  V.push_back(0.5);          // beta
  // luf: A = L U with unit L, |L| <= 0.5 and U's diagonal in [1, 2].
  double L[20][20] = {}, U[20][20] = {};
  for (int I = 0; I < 20; ++I)
    for (int J = 0; J < 20; ++J) {
      if (J < I)
        L[I][J] = R.uniform(0.1, 0.5);
      if (J == I) {
        L[I][J] = 1.0;
        U[I][J] = R.uniform(1.0, 2.0);
      }
      if (J > I)
        U[I][J] = R.uniform(0.1, 0.5);
    }
  for (int I = 0; I < 20; ++I)
    for (int J = 0; J < 20; ++J) {
      double S = 0.0;
      for (int K = 0; K < 20; ++K)
        S += L[I][K] * U[K][J];
      V.push_back(S);
    }
  return V;
}

/// Seeded inputs, as hex floats in paper_main.cpp's order: fixed nominal
/// inputs (drawn once from a fixed stream), each scaled by a seeded factor
/// in [0.999, 1.001]. The seed changes every input while keeping the
/// certified bits comparable between seeds. Chosen so no branch of the
/// programs sits near its threshold (the sound code follows midpoint
/// decisions, the reference exact ones): fgm's solution lies inside its
/// box, luf's pivots are dominant by a factor of two.
std::string makeInputs(uint64_t Seed) {
  std::vector<double> V = nominalInputs();
  Rng R = Rng(Seed).fork(0x9a9e);
  for (double &X : V)
    X *= R.uniform(0.999, 1.001);
  std::string Out;
  char Buf[40];
  for (double X : V) {
    std::snprintf(Buf, sizeof(Buf), "%a\n", X);
    Out += Buf;
  }
  return Out;
}

std::string stripIncludes(const std::string &Src) {
  std::istringstream In(Src);
  std::string Out;
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("#include", 0) != 0)
      Out += Line + "\n";
  return Out;
}

size_t count(const std::string &S, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = S.find(Needle); P != std::string::npos; P = S.find(Needle, P + 1))
    ++N;
  return N;
}

/// One (program, config, analysis) case of the host-built program, with
/// its samples accumulated over every block.
struct ChildCase {
  std::string Prog, Cfg, Ana;
  double Bits = 1e9, ContainFail = 0, IdentFail = 0;
  std::vector<double> CallNs, PlainNs;
  /// Per block: the p50 of this block's calls.
  std::vector<double> BlockP50;
};

/// Folds one run of the program into \p Cases (keyed by their label) and
/// its peak resident set into \p RssMiB (the maximum over runs). Returns
/// the number of cases the run reported.
size_t parseChild(const std::string &Out, std::map<std::string, ChildCase> &Cases,
                  double &RssMiB) {
  std::istringstream In(Out);
  ChildCase *Cur = nullptr;
  size_t N = 0;
  for (std::string Line; std::getline(In, Line);) {
    std::istringstream L(Line);
    std::string Tag;
    L >> Tag;
    if (Tag == "rss_kib") {
      double KiB = 0.0;
      L >> KiB;
      RssMiB = std::max(RssMiB, KiB / 1024.0);
    } else if (Tag == "pc") {
      ChildCase C;
      L >> C.Prog >> C.Cfg >> C.Ana;
      Cur = &Cases.try_emplace(C.Prog + "/" + C.Cfg + "/" + C.Ana, C).first->second;
      ++N;
      for (std::string Tok; L >> Tok;) {
        size_t Eq = Tok.find('=');
        double V = Eq == std::string::npos ? 0 : std::strtod(Tok.c_str() + Eq + 1, nullptr);
        std::string Key = Tok.substr(0, Eq);
        if (Key == "bits_min")
          Cur->Bits = std::min(Cur->Bits, V);
        else if (Key == "contain_fail")
          Cur->ContainFail += V;
        else if (Key == "ident_fail")
          Cur->IdentFail += V;
      }
    } else if (Cur && (Tag == "call" || Tag == "plain")) {
      std::vector<double> V;
      for (double X; L >> X;)
        V.push_back(X);
      if (Tag == "call") {
        Cur->BlockP50.push_back(percentile(V, 0.5));
        Cur->CallNs.insert(Cur->CallNs.end(), V.begin(), V.end());
      } else {
        Cur->PlainNs.insert(Cur->PlainNs.end(), V.begin(), V.end());
      }
    }
  }
  return N;
}

} // namespace

void runPaper(const RunContext &Ctx, Result &R) {
  std::vector<std::string> Sources;
  for (const char *P : Programs) {
    Sources.push_back(readFile(Ctx.Root + "/benchmarks/" + P + ".c"));
    if (Sources.back().empty()) {
      R.fail(std::string("cannot read benchmarks/") + P + ".c");
      return;
    }
  }

  // Set-up, three times: emit every variant, write the translation unit
  // and the seeded inputs, build with the host compiler.
  const std::string Prog = Ctx.WorkDir + "/paper_prog";
  const std::string InputsPath = Ctx.WorkDir + "/inputs.txt";
  std::vector<double> SetupS;
  std::string FirstUnit;
  Emitted Totals;
  for (unsigned Rep = 0; Rep < 3; ++Rep) {
    auto T0 = Clock::now();
    std::string Unit = "// Emitted by SafeGen for the paper workload.\n";
    Emitted Sum;
    for (const char *Cfg : Configs)
      for (bool Ana : {true, false}) {
        Unit += std::string("namespace pb_") + Cfg + (Ana ? "_ana" : "_noana") + " {\n";
        for (size_t P = 0; P < Sources.size(); ++P) {
          core::SafeGenResult Res =
              core::compileSource(std::string(Programs[P]) + ".c", Sources[P], options(Cfg, Ana));
          if (!Res.Success) {
            R.fail(std::string("compileSource failed for ") + Programs[P] + ": " + Res.Diagnostics);
            return;
          }
          Unit += stripIncludes(Res.OutputSource);
          if (Ana) {
            Sum.Bytes += static_cast<double>(Res.OutputSource.size());
            Sum.Sites += static_cast<double>(count(Res.OutputSource, "aa_prioritize("));
            for (const analysis::AnalysisReport &A : Res.Reports) {
              Sum.DagNodes += A.DAGNodes;
              Sum.ReusePairs += A.ReusePairs;
            }
          }
        }
        Unit += "}\n";
      }
    Unit += "namespace pb_plain {\n";
    for (const std::string &S : Sources)
      Unit += S;
    Unit += "}\nnamespace pb_ddref {\n";
    static const std::regex Double("\\bdouble\\b");
    for (const std::string &S : Sources)
      Unit += std::regex_replace(S, Double, "pbdd");
    Unit += "}\n";
    if (!writeFile(Ctx.WorkDir + "/generated.inc", Unit) ||
        !writeFile(InputsPath, makeInputs(Ctx.Seed))) {
      R.fail("cannot write into " + Ctx.WorkDir);
      return;
    }
    int Rc;
    {
      trace::Span S("host.gxx");
      Rc = runProcess({"g++", "-std=c++20", "-O2", "-frounding-math", "-ffp-contract=off",
                       "-I", PB_SRC_DIR, "-I", Ctx.WorkDir, PB_HOST_MAIN, PB_LIB_AA,
                       PB_LIB_IA, PB_LIB_SUPPORT, "-lpthread", "-o", Prog},
                      "", Ctx.WorkDir + "/gxx.log");
    }
    if (Rc != 0) {
      std::fprintf(stderr, "%s", readFile(Ctx.WorkDir + "/gxx.log").c_str());
      R.fail("host g++ failed to build the emitted code");
      return;
    }
    SetupS.push_back(secondsSince(T0));
    R.Attempted += 1;
    if (Rep == 0) {
      FirstUnit = Unit;
      Totals = Sum;
    } else if (Unit != FirstUnit) {
      R.fail("emitted code differs between two compiles of the same input");
    }
  }
  R.Exact["core.emit_bytes"] = std::to_string(Totals.Bytes);
  R.Exact["core.emit_prioritize_sites"] = std::to_string(Totals.Sites);
  R.Exact["analysis.dag_nodes"] = std::to_string(Totals.DagNodes);
  R.Exact["analysis.reuse_pairs"] = std::to_string(Totals.ReusePairs);
  R.Exact["inputs"] = std::to_string(hashBytes(readFile(InputsPath).data(), readFile(InputsPath).size()));

  // Measured phase: Blocks alternations of a compile block (compileSource
  // round-robin over program x config) and a run of the built program.
  // Host speed drifts over seconds, so each block is a window and
  // latencies and rates come from the best window; ratios from medians.
  const unsigned Blocks = Ctx.Trace ? 2 : 12;
  // Every case gets the 1000 calls its p99 needs (ten beyond it); the
  // traced run reports no p99.
  const size_t MinRounds = Ctx.Trace ? 20 : (1000 + Blocks - 1) / Blocks;
  std::map<std::string, ChildCase> Cases;
  double ChildRssMiB = 0.0;
  std::vector<double> CompileWindowUs, CompileWindowRate;
  std::map<std::string, std::vector<double>> CompileAll;
  const std::string ChildOut = Ctx.WorkDir + "/paper_prog.out";
  char Secs[32], Rounds[32];
  std::snprintf(Secs, sizeof(Secs), "%.3f", 0.75 * Ctx.Seconds / Blocks);
  std::snprintf(Rounds, sizeof(Rounds), "%zu", MinRounds);
  for (unsigned B = 0; B < Blocks; ++B) {
    std::map<std::string, std::vector<double>> CompileUs;
    size_t Compiles = 0;
    double Busy = 0.0;
    auto Start = Clock::now();
    while (Compiles < 16 || secondsSince(Start) < 0.25 * Ctx.Seconds / Blocks)
      for (size_t P = 0; P < Sources.size(); ++P)
        for (const char *Cfg : Configs) {
          auto T0 = Clock::now();
          core::SafeGenResult Res;
          {
            trace::Span S("core.compileSource");
            Res = core::compileSource(std::string(Programs[P]) + ".c", Sources[P],
                                      options(Cfg, true));
          }
          double Us = usBetween(T0, Clock::now());
          CompileUs[std::string(Programs[P]) + "/" + Cfg].push_back(Us);
          Busy += Us * 1e-6;
          ++Compiles;
          R.Attempted += 1;
          if (!Res.Success)
            R.fail(std::string("compileSource failed for ") + Programs[P]);
        }
    std::vector<double> Medians;
    for (auto &[Key, V] : CompileUs) {
      Medians.push_back(median(V));
      CompileAll[Key].insert(CompileAll[Key].end(), V.begin(), V.end());
    }
    CompileWindowUs.push_back(geomean(Medians));
    CompileWindowRate.push_back(static_cast<double>(Compiles) / Busy);

    std::vector<std::string> Argv = {Prog, InputsPath, Secs, Rounds};
    if (Ctx.Trace)
      Argv.push_back("--noana");
    int Rc;
    {
      trace::Span S("host.paper_prog");
      Rc = runProcess(Argv, ChildOut, "");
    }
    const size_t Reported = parseChild(readFile(ChildOut), Cases, ChildRssMiB);
    R.Attempted += 1;
    if (Rc != 0 || Reported != (Ctx.Trace ? 16u : 8u))
      R.fail("generated-code run failed (exit " + std::to_string(Rc) + ")");
  }

  // Per block: geomean over the timed cases of their block p50.
  std::vector<double> BlockHit(Blocks, 0.0), BlockSum(Blocks, 0.0);
  std::vector<double> P99, Slow;
  std::map<std::string, double> AnaP50, NoAnaP50;
  double BitsMin = 1e9;
  size_t Timed = 0;
  for (auto &[Key, C] : Cases) {
    R.Attempted += C.CallNs.size();
    if (C.ContainFail > 0)
      R.fail(Key + ": enclosures miss the double-double reference",
             static_cast<uint64_t>(C.ContainFail));
    if (C.IdentFail > 0)
      R.fail(Key + ": repeated calls differ", static_cast<uint64_t>(C.IdentFail));
    const double P50 = median(C.CallNs), Plain = median(C.PlainNs);
    std::fprintf(stderr,
                 "paper: %s: %zu calls, p50 %.1f us, p99 %.1f us, double %.3f us, "
                 "slowdown %.1fx, bits %.2f\n",
                 Key.c_str(), C.CallNs.size(), P50 / 1e3, percentile(C.CallNs, 0.99) / 1e3,
                 Plain / 1e3, P50 / Plain, C.Bits);
    (C.Ana == "noana" ? NoAnaP50 : AnaP50)[C.Prog + "/" + C.Cfg] = P50;
    if (C.Ana == "noana" || C.BlockP50.size() != Blocks)
      continue;
    ++Timed;
    for (unsigned B = 0; B < Blocks; ++B) {
      BlockHit[B] += std::log(C.BlockP50[B]);
      BlockSum[B] += C.BlockP50[B];
    }
    P99.push_back(percentile(C.CallNs, 0.99));
    Slow.push_back(P50 / Plain);
    BitsMin = std::min(BitsMin, C.Bits);
  }
  std::vector<double> HitUs, CallsPerS;
  for (unsigned B = 0; B < Blocks; ++B) {
    HitUs.push_back(std::exp(BlockHit[B] / static_cast<double>(Timed)) / 1e3);
    CallsPerS.push_back(1e9 * static_cast<double>(Timed) / BlockSum[B]);
  }
  std::vector<double> CompileMedians;
  for (auto &[Key, V] : CompileAll)
    CompileMedians.push_back(median(V));
  char Bits[40];
  std::snprintf(Bits, sizeof(Bits), "%.17g", BitsMin);
  R.Exact["certified_bits_min"] = Bits;

  if (!Ctx.Trace) {
    R.set("setup_s", best(SetupS, true), "s");
    R.set("compile_us", best(CompileWindowUs, true), "us");
    R.set("slowdown", geomean(Slow), "x");
    R.set("certified_bits_min", BitsMin, "bits");
    R.set("instances_per_s", best(CallsPerS, false), "1/s");
    R.set("hit_p50_us", best(HitUs, true), "us");
    R.set("hit_p99_us", geomean(P99) / 1e3, "us");
    R.set("miss_p50_us", best(CompileWindowUs, true), "us");
    R.set("requests_per_s", best(CompileWindowRate, false), "1/s");
    R.set("peak_rss_mb", ChildRssMiB, "MiB"); // main.cpp takes the max with its own
    return;
  }

  std::vector<KernelSource> Kernels = {
      {"henon", Sources[0], "henon", {0.1, 0.2, 75}, {}},
      {"sor", Sources[1], "sor", {10, 1.25, 0.5, 25}, {}},
      {"fgm", Sources[2], "fgm", {8, 1.2, -0.5, 0.0, -1.0, 1.0, 0.1, 0.5, 25}, {}},
      {"luf", Sources[3], "luf", {20, 0.5, 0}, {}}};
  measureCommonLayers(Kernels, 0.1 * Ctx.Seconds, R);
  measureExecLayers(Kernels, 0.1 * Ctx.Seconds, R);
  measureServiceLayers(Ctx, Kernels, R);
  // The generated code's own prioritize cost replaces the interpreter's.
  std::vector<double> With, Without;
  for (auto &[Key, V] : AnaP50)
    if (NoAnaP50.count(Key)) {
      With.push_back(V);
      Without.push_back(NoAnaP50[Key]);
      std::fprintf(stderr, "paper: %s: prioritize share %.3f\n", Key.c_str(),
                   1.0 - NoAnaP50[Key] / V);
    }
  R.set("aa.prioritize_share", 1.0 - geomean(Without) / geomean(With), "ratio");
  // Tracing overhead on one round-robin pass of the measured compiles.
  R.set("tracing.overhead_pct", trace::overheadPct([&] {
          for (size_t P = 0; P < Sources.size(); ++P)
            for (const char *Cfg : Configs) {
              trace::Span S("core.compileSource");
              keep(core::compileSource(std::string(Programs[P]) + ".c", Sources[P],
                                       options(Cfg, true)));
            }
        }),
        "%");
}

} // namespace pb
