//===- e2ebench/Bench.h - Shared types of the end-to-end benchmark ---------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark binary runs one workload as a closed loop with a single
/// client: set up (several times, for a median), then time iterations
/// back to back, checking every iteration's outputs outside the timed
/// section. These types are shared by main.cpp, the three
/// workloads (Workloads.cpp), the correctness checks (Checks.cpp) and the
/// per-layer accounting (Layers.cpp). See README.md.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_E2EBENCH_BENCH_H
#define IPAS_E2EBENCH_BENCH_H

#include "fault/Campaign.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace bench {

/// Steady-clock seconds since an arbitrary epoch.
double nowSeconds();

/// What the command line selected.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for the store files and the trace (inside the
  /// checkout; run.py creates and removes it).
  std::string WorkDir = ".";
  /// Directory of the frozen MiniC sources adhoc-vm campaigns on.
  std::string ProgramsDir;
  /// Pinned reference digests (refs/<workload>.json), or empty.
  std::string RefsPath;
  /// Writes this run's digests (first iteration) as JSON here, or empty.
  std::string DumpDigestsPath;
  /// Tiny scale: every campaign and grid shrunk for the self-test.
  bool Tiny = false;
  /// Engine for the adhoc-vm campaigns; Interp is used only to take
  /// reference digests from the interpreter.
  ipas::ExecBackend AdhocBackend = ipas::ExecBackend::Vm;

  const char *scaleName() const { return Tiny ? "tiny" : "default"; }
};

/// Busy seconds and counts the benchmark records around its own calls
/// into each module, keyed by per-layer metric name.
class Ledger {
public:
  void add(const std::string &Name, double V) { Values[Name] += V; }
  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? 0.0 : It->second;
  }
  const std::map<std::string, double> &values() const { return Values; }

private:
  std::map<std::string, double> Values;
};

/// Adds the seconds between construction and destruction to one ledger
/// entry (and bumps an optional count entry).
class TimedSpan {
public:
  TimedSpan(Ledger &L, std::string Name, std::string CountName = {})
      : L(L), Name(std::move(Name)), CountName(std::move(CountName)),
        Start(nowSeconds()) {}
  ~TimedSpan() {
    L.add(Name, nowSeconds() - Start);
    if (!CountName.empty())
      L.add(CountName, 1);
  }
  TimedSpan(const TimedSpan &) = delete;
  TimedSpan &operator=(const TimedSpan &) = delete;

private:
  Ledger &L;
  std::string Name, CountName;
  double Start;
};

/// Requested versus effective configuration of one campaign.
struct CampaignRow {
  std::string Label;
  ipas::ExecBackend Requested = ipas::ExecBackend::Interp;
  unsigned Threads = 1;
  size_t VmRuns = 0, InterpRuns = 0;
  /// Executed runs the campaign did not attribute to an engine
  /// (incremental campaigns report no backend split).
  size_t UnsplitRuns = 0;
  double WallSeconds = 0, BusySeconds = 0;
};

/// Campaign accounting summed over the campaigns of one phase.
struct CampaignTally {
  size_t Campaigns = 0;
  size_t Injections = 0; ///< Executed + pruned + reused.
  size_t Pruned = 0;
  size_t Reused = 0;
  size_t VmRuns = 0;
  size_t InterpRuns = 0;
  size_t RequestedVmRuns = 0; ///< Executed runs whose campaign asked for Vm.
  unsigned RequestedThreads = 0; ///< Largest request.
  double WallSeconds = 0;
  double BusySeconds = 0; ///< Sum of per-run LatencyUs.
  uint64_t CleanSteps = 0;
  std::vector<uint32_t> LatencyUs; ///< Executed runs only.
  std::vector<CampaignRow> Rows;

  /// \p Reused of \p R's records were carried over from a prior store
  /// (incremental campaigns) rather than executed or pruned;
  /// \p NotExecuted, when given, flags every pruned or reused record so
  /// the latency samples cover executed runs only.
  void add(const std::string &Label, const ipas::CampaignResult &R,
           ipas::ExecBackend Requested, unsigned Threads, size_t Reused = 0,
           const std::vector<char> *NotExecuted = nullptr);
  size_t executed() const { return Injections - Pruned - Reused; }
  size_t unsplit() const { return executed() - VmRuns - InterpRuns; }
};

/// Correctness bookkeeping. An operation is one campaign, one grid search,
/// one store round trip, or one summary (Table 4, top-N selection); each
/// counts as attempted, and as failed when any check on it fails. Digests
/// are compared with the pinned references for this seed when there are
/// any, and collected for --dump-digests.
class Checks {
public:
  /// Loads the references for \p Scale / \p Seed from \p RefsPath (an
  /// absent file or seed means "nothing pinned").
  Checks(const std::string &RefsPath, const std::string &Scale,
         uint64_t Seed);

  /// One operation; fails when \p Ok is false (\p Why goes to stderr).
  void op(const std::string &Name, bool Ok, const std::string &Why = {});
  /// One operation whose output \p Digest must match the pinned one;
  /// \p Ok carries the operation's other checks.
  void digestOp(const std::string &Name, uint64_t Digest, bool Ok = true,
                const std::string &Why = {});
  /// Fails once for every pinned digest no operation produced.
  void finish();

  bool pinned() const { return HavePins; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// The digests of each operation's first run, for --dump-digests.
  const std::map<std::string, std::string> &digests() const {
    return Seen;
  }

private:
  bool HavePins = false;
  std::map<std::string, std::string> Pins;
  std::map<std::string, std::string> Seen;
  uint64_t Attempted = 0, Failed = 0;
};

/// FNV-1a 64 folding, for output digests.
class Digest {
public:
  Digest &bytes(const void *P, size_t N);
  Digest &u64(uint64_t V) { return bytes(&V, sizeof V); }
  Digest &f64(double V);
  Digest &str(const std::string &S) { return u64(S.size()).bytes(S.data(), S.size()); }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// The deterministic (InstructionId, BitIndex, Result) stream of a
/// campaign plus its outcome counts and clean step count.
uint64_t campaignDigest(const ipas::CampaignResult &R);
std::string hex64(uint64_t V);

/// What one timed iteration produced, beyond its outputs.
struct IterationStats {
  double WallSeconds = 0; ///< The timed section only.
  CampaignTally Fault;
  Ledger Layers;
  /// Best IPAS variant by the ideal-point rule (workflow-is only).
  std::optional<double> IpasSlowdown, IpasSocReductionPct;
};

/// What one set-up produced.
struct SetupStats {
  CampaignTally Fault; ///< Campaigns run while setting up (train-grid).
  Ledger Layers;
};

/// One workload of the benchmark.
class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;
  /// How many times the set-up runs for the setup_s median.
  virtual unsigned setupRepeats() const = 0;
  /// Builds the inputs; called setupRepeats() times, the last one kept.
  virtual void setUp(Checks &C, SetupStats &S) = 0;
  /// The timed work of one iteration. Must not check outputs.
  virtual void run(IterationStats &S) = 0;
  /// Checks the outputs of the last run() (untimed).
  virtual void check(Checks &C, IterationStats &S) = 0;
  /// Whether set-up campaigns stand in for injections_per_s (the timed
  /// phase runs none).
  virtual bool injectsDuringSetup() const { return false; }
};

/// The workload \p O names, or null for an unknown name.
std::unique_ptr<BenchWorkload> makeBenchWorkload(const Options &O);

//--- Per-layer accounting (Layers.cpp) -------------------------------------//

/// Snapshot of the MetricsRegistry counters the per-layer metrics use.
std::map<std::string, uint64_t> registrySnapshot();

/// Self time per PhaseSpan name in a JSONL trace: each span's duration
/// minus the part its child spans on the same thread cover.
std::map<std::string, double> spanSelfSeconds(const std::string &TracePath,
                                              std::map<std::string, double>
                                                  *TotalSeconds = nullptr);

/// One named per-layer metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Every per-layer metric for the traced iteration \p S, in a fixed order
/// so each name is present on every workload (0 where a layer is idle).
std::vector<Metric> layerMetrics(const IterationStats &S,
                                 const SetupStats &Setup,
                                 const std::map<std::string, uint64_t> &Before,
                                 const std::map<std::string, uint64_t> &After,
                                 const std::map<std::string, double> &SpanSelf,
                                 const std::map<std::string, double> &SpanTotal,
                                 double UntracedWall, double CpuUtil);

} // namespace bench

#endif // IPAS_E2EBENCH_BENCH_H
