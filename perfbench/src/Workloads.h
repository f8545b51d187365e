//===- Workloads.h - The benchmark's workloads and shared layers -*- C++ -*-===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

/// One run's parameters. Root is the checkout (the repository's files);
/// WorkDir is this run's private scratch directory inside it.
struct RunContext {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Root;
  std::string WorkDir;
};

/// A kernel in SafeGen's C subset, with the function to call and one
/// instance's numeric argument seeds (Interpreter::makeDefaultArg fills
/// array parameters with their seed).
struct KernelSource {
  std::string Name;
  std::string Source;
  std::string Function;
  std::vector<double> Args;
  /// The same function in plain double (service pool kernels only): the
  /// unsound reference for `slowdown`.
  std::function<double(double, double)> Plain;
};

/// bench_batch's 11-op kernel (5 mul, 6 add/sub) and bench_service's
/// 40-statement div/sqrt kernel, as source and as C++ templates over the
/// value type (double for the unsound reference, aa::BatchF64 for the
/// kernel-only timing). The templates perform the same operations in the
/// same order as the source.
KernelSource poly11Source();
KernelSource div40Source();

template <typename V> V poly11(const V &X) {
  V T = X * X - X;
  V U = T * X + V(0.5);
  V W = U * U - T;
  return (W + X) * U - W * T;
}

template <typename V> V div40(const V &X, const V &Y) {
  V T = X * X - Y;
  V U = T * X + V(0.5);
  V W = U / (T * T + V(2.0));
  for (unsigned I = 0; I < 40; ++I)
    switch (I % 4) {
    case 0: W = W * U + T * V(0.125); break;
    case 1: U = (U + W) * V(0.5) - T; break;
    case 2: T = T * W + U * U; break;
    default: W = W / (T * T + V(3.0)) + U; break;
    }
  using std::sqrt; // double; aa::BatchF64 finds its own by ADL
  return sqrt(W * W + V(2.0)) + U;
}

/// Seeded pool of distinct straight-line kernels of equal shape for the
/// service workload: same statement count and operation mix, distinct
/// constants and statement order, every denominator bounded away from
/// zero and every sqrt argument positive.
std::vector<KernelSource> servicePool(uint64_t Seed, size_t Count);

/// The three workloads. Each fills R with every end-to-end metric
/// (untraced) or every per-layer metric (traced), and records output
/// check failures in R.
void runPaper(const RunContext &Ctx, Result &R);
void runBatch(const RunContext &Ctx, Result &R);
void runService(const RunContext &Ctx, Result &R);

//===----------------------------------------------------------------------===//
// Layer probes (Layers.cpp)
//===----------------------------------------------------------------------===//

/// Per-layer metrics that are measured the same way in every workload,
/// on the workload's own kernels where the layer takes source:
///  - frontend.parse_us, core.pass.*_us, analysis.dag_nodes,
///    analysis.reuse_pairs, core.emit_bytes, core.emit_prioritize_sites
///    (compileSource at f64a-dspv and f64a-smpn, k = 16);
///  - core.tape.compile_us, core.native.emit_us (compileToTape and
///    emitNativeBlock on the same kernels);
///  - service.wire.encode_ns / decode_ns (an EvalRequest carrying each
///    kernel and a 1-instance response);
///  - aa.form_op_ns (aa_add_f64 / aa_mul_f64 at k = 16, both configs),
///    aa.batch_kernel_ns_per_instance and aa.batch.bytes_per_instance.*
///    (poly11 and div40 through aa::BatchF64 directly).
/// \p Budget bounds the time spent (seconds).
void measureCommonLayers(const std::vector<KernelSource> &Kernels,
                         double Budget, Result &R);

/// Per-layer metrics of the batched engines, for workloads whose own path
/// does not time them: runBatchCompiled of each kernel at 64 instances
/// (tape and native, 1 and 4 threads) and at 1 instance (call_us), the
/// tree-fallback share, and the prioritize share (tape with and without
/// honouring the kernels' prioritize pragmas).
void measureExecLayers(const std::vector<KernelSource> &Kernels,
                       double Budget, Result &R);

/// Service-layer metrics (wire excluded) from a short in-process server
/// run on \p Kernels: cache hit share, compiles, evictions, acquire-miss
/// time, requests per drain, residual and generator lag. Used by the
/// workloads that do not run the service themselves; needs the metrics
/// of measureCommonLayers and measureExecLayers already in \p R.
void measureServiceLayers(const RunContext &Ctx,
                          const std::vector<KernelSource> &Kernels, Result &R);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
