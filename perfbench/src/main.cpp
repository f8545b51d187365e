//===- main.cpp - The SafeGen benchmark entry point -----------------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload {paper,batch,service} --seed N --seconds S
///           --trace {0,1} [--root DIR]
///
/// Runs one workload from the checkout root (default: the current
/// directory), prints the host fingerprint, and ends stdout with one JSON
/// line {"correct","attempted","failed","metrics"}: every end-to-end
/// metric when untraced, every per-layer metric when traced (then the
/// spans are also written to .bench_build/perfbench-traces/). Exits 1
/// when an output check fails or a metric is missing.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "aa/Kernels/Isa.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

using namespace pb;

namespace {

// The metric names of BENCHMARK.json; every run must report its set.
const char *const EndToEnd[] = {
    "setup_s",    "compile_us",     "slowdown",       "certified_bits_min",
    "instances_per_s", "hit_p50_us", "hit_p99_us",    "miss_p50_us",
    "requests_per_s",  "ok_share",   "peak_rss_mb"};
const char *const PerLayer[] = {
    "frontend.parse_us",
    "core.pass.const-fold_us",
    "core.pass.tac_us",
    "core.pass.annotate_us",
    "core.pass.affine-rewrite_us",
    "core.pass.emit_us",
    "analysis.dag_nodes",
    "analysis.reuse_pairs",
    "core.emit_bytes",
    "core.emit_prioritize_sites",
    "aa.form_op_ns",
    "aa.prioritize_share",
    "core.tape.compile_us",
    "core.native.emit_us",
    "core.exec.tape_ns_per_instance",
    "core.exec.native_ns_per_instance",
    "aa.batch_kernel_ns_per_instance",
    "core.exec.glue_share",
    "core.exec.tree_fallback_share",
    "support.pool.speedup_t4",
    "aa.batch.bytes_per_instance.dense",
    "aa.batch.bytes_per_instance.sparse",
    "core.exec.call_us",
    "service.wire.encode_ns",
    "service.wire.decode_ns",
    "service.residual_us",
    "service.cache.hit_share",
    "service.cache.compiles",
    "service.cache.evictions",
    "service.cache.acquire_miss_us",
    "service.server.requests_per_drain",
    "loadgen.lag_us_p99",
    "tracing.overhead_pct"};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper|batch|service "
               "--seed N --seconds S --trace 0|1 [--root DIR]\n",
               Why);
  return 2;
}

/// Compares the run's exact values with those a previous run of the same
/// binary and seed stored, or stores them. Returns the mismatches.
std::vector<std::string> checkExact(const RunContext &Ctx, const Result &R) {
  namespace fs = std::filesystem;
  const std::string Exe = readFile("/proc/self/exe");
  const std::string Dir = ".bench_build/perfbench-exact";
  fs::create_directories(Dir);
  const std::string Path = Dir + "/" + Ctx.Workload + "-" + std::to_string(Ctx.Seed) + "-" +
                           std::to_string(hashBytes(Exe.data(), Exe.size())) + ".txt";
  std::string Now;
  for (const auto &[K, V] : R.Exact)
    Now += K + " " + V + "\n";
  std::string Before = readFile(Path);
  std::vector<std::string> Diff;
  if (Before.empty()) {
    writeFile(Path, Now);
  } else if (Before != Now) {
    Diff.push_back("exact values changed for one seed:\nbefore:\n" + Before + "now:\n" + Now);
  }
  return Diff;
}

} // namespace

int main(int Argc, char **Argv) {
  RunContext Ctx;
  Ctx.Root = ".";
  int Trace = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      Ctx.Workload = V;
    else if (K == "--seed")
      Ctx.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      Ctx.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      Trace = std::atoi(V.c_str());
    else if (K == "--root")
      Ctx.Root = V;
    else
      return usage(("unknown option " + K).c_str());
  }
  if (Ctx.Workload != "paper" && Ctx.Workload != "batch" && Ctx.Workload != "service")
    return usage("unknown workload");
  if (!(Ctx.Seconds > 0) || (Trace != 0 && Trace != 1))
    return usage("bad --seconds or --trace");
  Ctx.Trace = Trace == 1;
  if (chdir(Ctx.Root.c_str()) != 0)
    return usage("cannot enter --root");
  Ctx.Root = std::filesystem::current_path().string();
  // Work files live under the checkout, addressed relative to it (Unix
  // socket paths must stay short).
  Ctx.WorkDir = ".bench_build/perfbench-work/" + Ctx.Workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(Ctx.WorkDir);

  std::map<std::string, std::string> Host = {
      {"isa_tier", safegen::aa::isa::name(safegen::aa::isa::activeTier())},
      {"build_type", PB_BUILD_TYPE},
      {"workload", Ctx.Workload},
      {"seed", std::to_string(Ctx.Seed)},
      {"trace", std::to_string(Trace)}};
  const std::string Fingerprint = fingerprintJson(Host);
  std::printf("fingerprint %s\n", Fingerprint.c_str());
  std::fflush(stdout);

  trace::enable(Ctx.Trace);
  Result R;
  if (Ctx.Workload == "paper")
    runPaper(Ctx, R);
  else if (Ctx.Workload == "batch")
    runBatch(Ctx, R);
  else
    runService(Ctx, R);
  trace::enable(false);

  for (const std::string &D : checkExact(Ctx, R))
    R.fail(D);
  R.Attempted = std::max<uint64_t>(R.Attempted, 1);
  if (Ctx.Trace) {
    const size_t Spans = trace::spanCount();
    std::filesystem::create_directories(".bench_build/perfbench-traces");
    const std::string Path = ".bench_build/perfbench-traces/" + Ctx.Workload + "-seed" +
                             std::to_string(Ctx.Seed) + ".json";
    if (!trace::write(Path, Fingerprint))
      R.fail("cannot write " + Path);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", Spans, Path.c_str());
  } else {
    R.set("ok_share",
          static_cast<double>(R.Attempted - std::min(R.Failed, R.Attempted)) /
              static_cast<double>(R.Attempted),
          "ratio");
    // A workload that runs its timed code in a child process (paper)
    // reports the child's peak; the larger of the two counts.
    auto Child = R.Metrics.find("peak_rss_mb");
    R.set("peak_rss_mb",
          std::max(peakRssMiB(), Child == R.Metrics.end() ? 0.0 : Child->second.Value), "MiB");
  }

  // Exactly the declared set, every value finite.
  std::map<std::string, Metric> Declared;
  for (const char *Name : Ctx.Trace ? std::vector<const char *>(std::begin(PerLayer), std::end(PerLayer))
                                    : std::vector<const char *>(std::begin(EndToEnd), std::end(EndToEnd))) {
    auto It = R.Metrics.find(Name);
    if (It == R.Metrics.end() || !std::isfinite(It->second.Value)) {
      R.fail(std::string("metric ") + Name + " missing or not finite");
      continue;
    }
    Declared[Name] = It->second;
  }
  R.Metrics = Declared;

  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", E.c_str());
  std::filesystem::remove_all(Ctx.WorkDir);
  std::printf("%s\n", resultJson(R).c_str());
  return R.correct() ? 0 : 1;
}
