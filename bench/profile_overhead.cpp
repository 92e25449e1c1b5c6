//===- bench/profile_overhead.cpp - Cost-profiler overhead ----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what cost profiling costs the interpreter: the same clean
/// run repeats with profiling off, in counting mode (the site-count hook
/// alone), and in calling-context mode (observer-driven context tree),
/// and the bench reports throughput plus the slowdown factors relative
/// to the unprofiled run. Counting mode is the one campaigns and the
/// pipeline lean on, so its slowdown — not the absolute throughputs,
/// which are machine-dependent — is regression-gated tightly by ctest
/// via ipas-bench-diff against the checked-in
/// tools/testdata/BENCH_profile_overhead.json baseline; context mode
/// gets a generous gate.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "fault/FunctionHarness.h"
#include "frontend/CodeGen.h"
#include "interp/CostProfiler.h"
#include "ir/Verifier.h"
#include "transform/Mem2Reg.h"
#include "transform/SimplifyCFG.h"

#include <algorithm>

using namespace ipas;
using namespace ipas::bench;

namespace {

// The same Jacobi-style sweep prop_overhead.cpp uses: enough memory
// traffic and control flow per run that the per-step hook, not run
// setup, dominates the profiled-variant cost.
const char *KernelSource =
    "int kernel(int n) {\n"
    "  int a[64];\n"
    "  int i = 0;\n"
    "  while (i < 64) { a[i] = i * 3 + 1; i = i + 1; }\n"
    "  int sweep = 0;\n"
    "  int acc = 0;\n"
    "  while (sweep < n) {\n"
    "    int j = 1;\n"
    "    while (j < 63) {\n"
    "      a[j] = (a[j - 1] + a[j] + a[j + 1]) / 3;\n"
    "      j = j + 1;\n"
    "    }\n"
    "    acc = acc + a[32];\n"
    "    sweep = sweep + 1;\n"
    "  }\n"
    "  return acc;\n"
    "}\n";

std::unique_ptr<Module> compileKernel() {
  Diagnostics Diags;
  std::unique_ptr<Module> M = compileMiniC(KernelSource, "profile_overhead",
                                           Diags);
  if (!M || Diags.hasErrors()) {
    std::fprintf(stderr, "error: kernel does not compile:\n%s\n",
                 Diags.summary().c_str());
    std::exit(1);
  }
  removeUnreachableBlocks(*M);
  promoteAllocasToRegisters(*M);
  M->renumber();
  for (const std::string &E : verifyModule(*M)) {
    std::fprintf(stderr, "error: verifier: %s\n", E.c_str());
    std::exit(1);
  }
  return M;
}

enum class Variant { Off, Counting, Context };
constexpr size_t kNumVariants = 3;

/// One variant's accumulated measurement.
struct Tally {
  uint64_t ElapsedUs = 0;
  size_t Runs = 0;
  uint64_t Steps = 0;                ///< Steps of one clean run.
  std::vector<uint64_t> BatchUs;     ///< Wall clock of each batch.

  double runsPerSec() const {
    return ElapsedUs ? static_cast<double>(Runs) * 1e6 /
                           static_cast<double>(ElapsedUs)
                     : 0.0;
  }
};

/// \p NumRuns timed clean runs of \p V, added to \p T. Each profiled
/// run constructs its own CostProfiler, exactly like real callers (one
/// profiler per profiled clean run), so construction cost is charged to
/// the profiling variant it belongs to.
void batch(const ModuleLayout &Layout, Variant V, size_t NumRuns,
           Tally &T) {
  FunctionHarness H("kernel", {RtValue::fromI64(24)});
  uint64_t T0 = obs::monotonicMicros();
  for (size_t R = 0; R != NumRuns; ++R) {
    ExecutionRecord Rec;
    if (V == Variant::Off) {
      Rec = H.execute(Layout, nullptr, UINT64_MAX);
    } else {
      CostProfiler Prof(Layout, V == Variant::Counting
                                    ? CostProfiler::Mode::Counting
                                    : CostProfiler::Mode::Context);
      Rec = H.execute(Layout, RunRequest{.Profiler = &Prof});
      if (Prof.totalSteps() != Rec.Steps) {
        std::fprintf(stderr,
                     "error: profiled counts sum to %llu, run took %llu "
                     "steps\n",
                     static_cast<unsigned long long>(Prof.totalSteps()),
                     static_cast<unsigned long long>(Rec.Steps));
        std::exit(1);
      }
    }
    if (Rec.Status != RunStatus::Finished || !Rec.OutputValid) {
      std::fprintf(stderr, "error: clean run failed\n");
      std::exit(1);
    }
    T.Steps = Rec.Steps;
  }
  uint64_t Us = obs::monotonicMicros() - T0;
  T.ElapsedUs += Us;
  T.Runs += NumRuns;
  T.BatchUs.push_back(Us);
}

/// Measures all three variants by interleaving them in small batches
/// until every variant has at least \p NumRuns runs and half a second
/// of accumulated wall clock. The gated metric is a ratio, and one
/// sequential window per variant lets frequency scaling, scheduler
/// drift or a neighbouring process land entirely on one side of the
/// division; interleaving puts the batches of one round a few
/// milliseconds apart.
void measureVariants(const ModuleLayout &Layout, size_t NumRuns,
                     Tally *T) {
  constexpr uint64_t MinWindowUs = 500000;
  constexpr size_t Batch = 8;
  for (bool More = true; More;) {
    More = false;
    for (size_t K = 0; K != kNumVariants; ++K) {
      batch(Layout, static_cast<Variant>(K), Batch, T[K]);
      if (T[K].Runs < NumRuns || T[K].ElapsedUs < MinWindowUs)
        More = true;
    }
  }
}

/// Slowdown of \p Profiled against \p Off: the median over rounds of
/// the ratio of their batch times. A burst of contention that stalls
/// one batch moves one ratio, not the median.
double medianSlowdown(const Tally &Off, const Tally &Profiled) {
  std::vector<double> Ratios;
  for (size_t K = 0; K != Off.BatchUs.size(); ++K)
    if (Off.BatchUs[K])
      Ratios.push_back(static_cast<double>(Profiled.BatchUs[K]) /
                       static_cast<double>(Off.BatchUs[K]));
  if (Ratios.empty())
    return 0.0;
  std::nth_element(Ratios.begin(), Ratios.begin() + Ratios.size() / 2,
                   Ratios.end());
  return Ratios[Ratios.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv,
      "profile_overhead: clean-run throughput with cost profiling "
      "off / counting / calling-context");
  const size_t NumRuns = Opts.Cfg.EvalRuns;

  std::unique_ptr<Module> M = compileKernel();
  ModuleLayout Layout(*M);

  std::printf("== cost-profiler overhead ==\n");
  std::printf("(kernel: 64-point Jacobi sweep, at least %zu clean runs "
              "per variant, interleaved)\n\n",
              NumRuns);

  // Warm up caches/allocator so the first measured batches are not
  // penalized, then discard the tallies.
  Tally T[kNumVariants];
  for (size_t K = 0; K != kNumVariants; ++K)
    batch(Layout, static_cast<Variant>(K), NumRuns / 16 + 1, T[K]);
  for (Tally &Each : T)
    Each = Tally();

  measureVariants(Layout, NumRuns, T);
  uint64_t Steps = T[0].Steps;
  double Off = T[0].runsPerSec();
  double Counting = T[1].runsPerSec();
  double Context = T[2].runsPerSec();

  double SlowCounting = medianSlowdown(T[0], T[1]);
  double SlowContext = medianSlowdown(T[0], T[2]);

  std::printf("  %-16s %12s %10s\n", "variant", "runs/sec", "slowdown");
  std::printf("  %-16s %12.0f %9.2fx\n", "profiling off", Off, 1.0);
  std::printf("  %-16s %12.0f %9.2fx\n", "counting", Counting,
              SlowCounting);
  std::printf("  %-16s %12.0f %9.2fx\n", "context", Context, SlowContext);
  std::printf("  (%llu steps per run)\n",
              static_cast<unsigned long long>(Steps));

  BenchReport Report("profile_overhead", Opts);
  Report.metric("steps_per_run", Steps);
  Report.metric("runs_per_sec_off", Off);
  Report.metric("runs_per_sec_counting", Counting);
  Report.metric("runs_per_sec_context", Context);
  Report.metric("slowdown_counting_x", SlowCounting);
  Report.metric("slowdown_context_x", SlowContext);
  Report.metric("overhead_counting_pct", 100.0 * (SlowCounting - 1.0));
  Report.metric("overhead_context_pct", 100.0 * (SlowContext - 1.0));
  return 0;
}
