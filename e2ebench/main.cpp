//===- e2ebench/main.cpp - End-to-end benchmark binary ---------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   ipas_e2ebench --workload NAME --seed N --seconds S --trace 0|1
///                 [--work-dir DIR] [--programs DIR] [--refs FILE]
///                 [--dump-digests FILE] [--tiny] [--backend vm|interp]
///
/// Runs one workload as a closed loop with one client: the set-up several
/// times (setup_s is their median), then timed iterations back to back
/// until the next one would overrun S seconds (at least one; wall_s is
/// their median). Every iteration's outputs are checked outside the timed
/// section. With --trace 1 the loop is followed by one iteration with the
/// JSONL trace and the interpreter statistics on, and the per-layer
/// metrics replace the end-to-end ones. The last stdout line is the JSON
/// result; see README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "BuildCheck.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace bench;

namespace {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// User plus system CPU seconds of this process so far.
double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

/// Completed injections per second of campaign wall time.
double injectionRate(const CampaignTally &T) {
  return T.WallSeconds > 0 ? static_cast<double>(T.Injections) / T.WallSeconds
                           : 0;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: ipas_e2ebench --workload "
               "workflow-is|train-grid|adhoc-vm --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--programs DIR] [--refs FILE] "
               "[--dump-digests FILE] [--tiny] [--backend vm|interp]\n",
               Why);
  return 2;
}

/// A JSON number with every digit (integers print without a fraction).
std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
      continue;
    }
    if (!(V = Next()))
      return usage(("missing value for " + A).c_str());
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else if (A == "--programs") {
      O.ProgramsDir = V;
    } else if (A == "--refs") {
      O.RefsPath = V;
    } else if (A == "--dump-digests") {
      O.DumpDigestsPath = V;
    } else if (A == "--backend") {
      if (std::strcmp(V, "vm") && std::strcmp(V, "interp"))
        return usage("--backend takes vm or interp");
      O.AdhocBackend = std::strcmp(V, "vm") ? ipas::ExecBackend::Interp
                                            : ipas::ExecBackend::Vm;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    return usage("--workload and --seed are required");
  if (const char *Why = buildRefusal()) {
    std::fprintf(stderr, "error: refusing to benchmark: %s\n", Why);
    return 3;
  }
  std::unique_ptr<BenchWorkload> W = makeBenchWorkload(O);
  if (!W)
    return usage(("unknown workload " + O.Workload).c_str());
  ipas::obs::setLogLevel(ipas::obs::Severity::Warn);

  Checks C(O.RefsPath, O.scaleName(), O.Seed);

  // Set-up, several times; the last one's inputs are kept. Workloads
  // whose timed phase injects nothing report their set-up campaigns'
  // injection rate.
  std::vector<double> SetupTimes, Rates;
  SetupStats Setup;
  for (unsigned R = 0; R != W->setupRepeats(); ++R) {
    Setup = SetupStats();
    double T0 = nowSeconds();
    W->setUp(C, Setup);
    SetupTimes.push_back(nowSeconds() - T0);
    if (W->injectsDuringSetup())
      Rates.push_back(injectionRate(Setup.Fault));
  }

  // The closed loop: one client, each iteration starts when the previous
  // one (and its checks) ended.
  std::vector<IterationStats> Iters;
  double Cpu = 0, Busy = 0;
  double LoopStart = nowSeconds();
  for (;;) {
    double Begin = nowSeconds();
    IterationStats S;
    double Cpu0 = cpuSeconds();
    W->run(S);
    S.WallSeconds = nowSeconds() - Begin;
    Cpu += cpuSeconds() - Cpu0;
    Busy += S.WallSeconds;
    W->check(C, S);
    Iters.push_back(std::move(S));
    double End = nowSeconds();
    if (End - LoopStart + (End - Begin) > O.Seconds)
      break;
  }
  std::vector<double> Walls;
  for (const IterationStats &S : Iters) {
    Walls.push_back(S.WallSeconds);
    if (!W->injectsDuringSetup())
      Rates.push_back(injectionRate(S.Fault));
  }
  double Wall = median(Walls);

  std::vector<Metric> Metrics;
  if (O.Trace) {
    // One more iteration, traced. Its wall time against the untraced
    // median is the tracing overhead.
    std::string TracePath = O.WorkDir + "/e2ebench-trace.jsonl";
    std::map<std::string, uint64_t> Before = registrySnapshot();
    ipas::obs::setStatsEnabled(true);
    if (!ipas::obs::TraceSink::open(TracePath)) {
      std::fprintf(stderr, "error: cannot open trace %s\n",
                   TracePath.c_str());
      return 1;
    }
    IterationStats S;
    double Begin = nowSeconds();
    W->run(S);
    S.WallSeconds = nowSeconds() - Begin;
    ipas::obs::TraceSink::close();
    ipas::obs::setStatsEnabled(false);
    std::map<std::string, uint64_t> After = registrySnapshot();
    W->check(C, S);
    std::map<std::string, double> Total;
    std::map<std::string, double> Self = spanSelfSeconds(TracePath, &Total);
    std::filesystem::remove(TracePath);
    Metrics = layerMetrics(S, Setup, Before, After, Self, Total, Wall,
                           Busy > 0 ? Cpu / Busy : 0);
    // Requested versus effective engine and threads, per campaign.
    for (const CampaignRow &R : S.Fault.Rows)
      std::printf("campaign %-22s requested %-6s x %u threads; ran %zu vm + "
                  "%zu interp + %zu unsplit runs, %.2f threads busy\n",
                  R.Label.c_str(), ipas::backendName(R.Requested), R.Threads,
                  R.VmRuns, R.InterpRuns, R.UnsplitRuns,
                  R.WallSeconds > 0 ? R.BusySeconds / R.WallSeconds : 0.0);
  } else {
    Metrics = {
        {"setup_s", median(SetupTimes), "s"},
        {"wall_s", Wall, "s"},
        {"injections_per_s", median(Rates), "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
  }
  C.finish();

  if (!O.DumpDigestsPath.empty()) {
    std::ofstream Out(O.DumpDigestsPath);
    Out << "{";
    const char *Sep = "";
    for (const auto &[Name, Hex] : C.digests()) {
      Out << Sep << "\"" << Name << "\": \"" << Hex << "\"";
      Sep = ", ";
    }
    Out << "}\n";
  }

  // The human-readable report, then the result line.
  std::printf("workload %s, seed %llu, %s scale: %zu iteration(s), "
              "%zu set-up(s), references %s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.scaleName(), Iters.size(), SetupTimes.size(),
              C.pinned() ? "pinned" : "not pinned for this seed");
  for (const Metric &M : Metrics)
    std::printf("  %-32s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (!O.Trace) {
    const IterationStats &Last = Iters.back();
    auto Optional = [](const char *Name, const std::optional<double> &V,
                       const char *Unit) {
      if (V)
        std::printf("  %-32s %14.6f %s\n", Name, *V, Unit);
      else
        std::printf("  %-32s %14s %s\n", Name, "n/a", Unit);
    };
    Optional("ipas_slowdown_x", Last.IpasSlowdown, "x");
    Optional("ipas_soc_reduction_pct", Last.IpasSocReductionPct, "%");
    std::printf("  %-32s %14.6f ratio (%llu of %llu operations)\n",
                "failed_frac",
                static_cast<double>(C.failed()) /
                    static_cast<double>(std::max<uint64_t>(1, C.attempted())),
                static_cast<unsigned long long>(C.failed()),
                static_cast<unsigned long long>(C.attempted()));
  }

  std::string Json = "{\"correct\": ";
  Json += C.failed() == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(C.attempted());
  Json += ", \"failed\": " + std::to_string(C.failed());
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Metrics[I].Name + "\": {\"value\": " +
            number(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
            "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
