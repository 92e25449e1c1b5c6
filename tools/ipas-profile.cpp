//===- tools/ipas-profile.cpp - Cost-profile analytics -------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reads the .ipprof cost-profile stores written by `ipas-cc --profile-out`
/// and the pipeline's ProfileDir and answers the questions a protection
/// overhead raises:
///
///   ipas-profile run.ipprof                    # summary + heatmap + tables
///   ipas-profile run.ipprof --join camp.iprec  # soc vs cycles efficiency
///   ipas-profile run.ipprof --join camp.iprec --json  # same, one JSON object
///   ipas-profile ctx.ipprof --folded           # flamegraph folded stacks
///   ipas-profile --diff old.ipprof new.ipprof --threshold 5
///
/// The single-store mode renders an annotated source listing whose
/// per-line count/cycle columns sum exactly to the profiled run's totals,
/// the hottest instructions and functions under the store's cycle model,
/// and — when the store carries protection-overhead attribution — the
/// per-original-site marginal-cost table whose Σ equals the protected-
/// minus-baseline cycle delta exactly.
///
/// --join matches the overhead table against a campaign record store's
/// injection outcomes site by site (shadow/check clones folded back onto
/// their originals), producing the soc-per-kilocycle efficiency frontier
/// a protection budget optimizer consumes.
///
/// The diff mode refuses stores priced with different cycle models and
/// exits nonzero when total cycles or protection overhead grow by more
/// than --threshold percent — wired into CI, it turns silent slowdown
/// regressions into loud ones.
///
//===----------------------------------------------------------------------===//

#include "fault/Outcome.h"
#include "ir/Instruction.h"
#include "obs/Json.h"
#include "obs/LineTable.h"
#include "obs/ProfileStore.h"
#include "obs/RecordStore.h"
#include "support/ArgParser.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace ipas;
using obs::ProfContext;
using obs::ProfileStore;
using obs::ProfInstr;
using obs::ProfSiteOverhead;

namespace {

/// Everything the reports need, indexed once up front.
struct ProfIndex {
  const ProfileStore *S = nullptr;
  /// Line -> (exec count, cycles). Line 0 collects instructions with no
  /// source location, so column sums always equal CleanSteps/TotalCycles.
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> ByLine;
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> ByFunction;
  /// Line -> added protection cycles (overhead stores only).
  std::map<uint32_t, uint64_t> OverheadByLine;
  std::map<uint32_t, const ProfSiteOverhead *> BySite;
  int64_t TotalMarginal = 0;

  explicit ProfIndex(const ProfileStore &Store) : S(&Store) {
    for (const ProfInstr &I : Store.Instructions) {
      auto &L = ByLine[I.Line];
      L.first += I.ExecCount;
      L.second += I.Cycles;
      auto &F = ByFunction[I.FunctionIndex];
      F.first += I.ExecCount;
      F.second += I.Cycles;
    }
    for (const ProfSiteOverhead &O : Store.Overheads) {
      BySite.emplace(O.SiteId, &O);
      int64_t M = obs::marginalCycles(O);
      TotalMarginal += M;
      if (M > 0)
        OverheadByLine[O.Line] += static_cast<uint64_t>(M);
    }
  }

  std::string functionName(uint32_t Index) const {
    if (Index < S->Functions.size())
      return S->Functions[Index];
    return "<fn" + std::to_string(Index) + ">";
  }

  /// "@fn:line:col", or "@fn:?" for instructions with no location.
  std::string location(uint32_t FunctionIndex, uint32_t Line,
                       uint32_t Col) const {
    IPAS_GCC_RESTRICT_FALSE_POSITIVE_BEGIN
    std::string Out = "@" + functionName(FunctionIndex);
    if (Line)
      Out += ":" + std::to_string(Line) + ":" + std::to_string(Col);
    else
      Out += ":?";
    IPAS_GCC_RESTRICT_FALSE_POSITIVE_END
    return Out;
  }

  /// Attribution is conservative-exact by construction; surface any
  /// violation loudly instead of rendering nonsense tables.
  bool overheadExact() const {
    if (!S->HasOverhead)
      return true;
    return TotalMarginal == static_cast<int64_t>(S->TotalCycles) -
                                static_cast<int64_t>(S->BaselineTotalCycles);
  }

  int64_t overheadCycles() const {
    return static_cast<int64_t>(S->TotalCycles) -
           static_cast<int64_t>(S->BaselineTotalCycles);
  }

  /// Per-function cycles keyed by name (stable across stores, for diff).
  std::map<std::string, uint64_t> cyclesByFunction() const {
    std::map<std::string, uint64_t> Out;
    for (const auto &[Fn, CC] : ByFunction)
      if (CC.second)
        Out[functionName(Fn)] += CC.second;
    return Out;
  }
};

const char *modeName(uint8_t Mode) {
  return Mode == obs::ProfileContext ? "context" : "counting";
}

void printSummary(const ProfIndex &Ix) {
  const ProfileStore &S = *Ix.S;
  std::printf("module:   %s\n", S.ModuleName.c_str());
  std::printf("entry:    @%s  label: %s  mode: %s\n",
              S.EntryFunction.c_str(),
              S.Label.empty() ? "<none>" : S.Label.c_str(),
              modeName(S.Mode));
  std::printf("clean:    %llu steps, %llu model cycles\n",
              static_cast<unsigned long long>(S.CleanSteps),
              static_cast<unsigned long long>(S.TotalCycles));
  std::printf("store:    %zu instructions, %zu contexts, %zu line costs\n",
              S.Instructions.size(), S.Contexts.size(), S.LineCosts.size());
  if (S.HasOverhead) {
    int64_t Added = Ix.overheadCycles();
    std::printf("overhead: baseline %llu cycles, %+lld added (%+.1f%%), "
                "%zu sites, attribution %s\n",
                static_cast<unsigned long long>(S.BaselineTotalCycles),
                static_cast<long long>(Added),
                S.BaselineTotalCycles
                    ? 100.0 * static_cast<double>(Added) /
                          static_cast<double>(S.BaselineTotalCycles)
                    : 0.0,
                S.Overheads.size(), Ix.overheadExact() ? "exact" : "BROKEN");
    if (!Ix.overheadExact())
      std::printf("warning:  per-site marginal cycles sum to %lld, not the "
                  "%lld cycle delta\n",
                  static_cast<long long>(Ix.TotalMarginal),
                  static_cast<long long>(Ix.overheadCycles()));
  }
}

void printHotSites(const ProfIndex &Ix) {
  const ProfileStore &S = *Ix.S;
  std::vector<const ProfInstr *> Hot;
  for (const ProfInstr &I : S.Instructions)
    if (I.Cycles)
      Hot.push_back(&I);
  std::sort(Hot.begin(), Hot.end(),
            [](const ProfInstr *A, const ProfInstr *B) {
              return A->Cycles != B->Cycles ? A->Cycles > B->Cycles
                                            : A->Id < B->Id;
            });
  if (Hot.size() > 10)
    Hot.resize(10);

  std::printf("\n== hottest sites (by model cycles) ==\n");
  std::printf("%6s %-10s %-20s %12s %12s %6s\n", "id", "opcode", "location",
              "count", "cycles", "cyc%");
  for (const ProfInstr *I : Hot)
    std::printf("%6u %-10s %-20s %12llu %12llu %5.1f%%\n", I->Id,
                opcodeName(static_cast<Opcode>(I->Opcode)),
                Ix.location(I->FunctionIndex, I->Line, I->Col).c_str(),
                static_cast<unsigned long long>(I->ExecCount),
                static_cast<unsigned long long>(I->Cycles),
                S.TotalCycles ? 100.0 * static_cast<double>(I->Cycles) /
                                    static_cast<double>(S.TotalCycles)
                              : 0.0);
}

void printHeatmap(const ProfIndex &Ix, bool WithSource) {
  const ProfileStore &S = *Ix.S;
  std::printf("\n== source heatmap (per-line cost) ==\n");
  std::vector<std::string> Headers = {"count", "cycles"};
  if (S.HasOverhead)
    Headers.push_back("ovhcyc");
  obs::LineTable T(Headers);
  for (const auto &[Line, CC] : Ix.ByLine) {
    T.add(Line, 0, CC.first);
    T.add(Line, 1, CC.second);
  }
  if (S.HasOverhead)
    for (const auto &[Line, Ovh] : Ix.OverheadByLine)
      T.add(Line, 2, Ovh);
  T.print(S.SourceText, WithSource);
}

void printFunctionTable(const ProfIndex &Ix) {
  const ProfileStore &S = *Ix.S;
  std::printf("\n== cost by function ==\n");
  std::printf("%-16s %12s %12s %6s\n", "function", "count", "cycles",
              "cyc%");
  for (const auto &[Fn, CC] : Ix.ByFunction)
    std::printf("@%-15s %12llu %12llu %5.1f%%\n",
                Ix.functionName(Fn).c_str(),
                static_cast<unsigned long long>(CC.first),
                static_cast<unsigned long long>(CC.second),
                S.TotalCycles ? 100.0 * static_cast<double>(CC.second) /
                                    static_cast<double>(S.TotalCycles)
                              : 0.0);
}

/// The calling-context path of \p Node, root first, ';'-joined (the
/// flamegraph folded-stack convention).
std::string contextPath(const ProfIndex &Ix, uint32_t Node) {
  const ProfileStore &S = *Ix.S;
  std::vector<uint32_t> Chain;
  for (uint32_t C = Node;
       C < S.Contexts.size() && Chain.size() <= S.Contexts.size();
       C = S.Contexts[C].Parent)
    Chain.push_back(S.Contexts[C].FunctionIndex);
  std::string Out;
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
    if (!Out.empty())
      Out += ";";
    Out += Ix.functionName(*It);
  }
  return Out;
}

void printHotContexts(const ProfIndex &Ix) {
  const ProfileStore &S = *Ix.S;
  if (S.Mode != obs::ProfileContext || S.Contexts.empty())
    return;
  std::vector<const ProfContext *> Hot;
  for (const ProfContext &C : S.Contexts)
    if (C.Cycles)
      Hot.push_back(&C);
  std::sort(Hot.begin(), Hot.end(),
            [](const ProfContext *A, const ProfContext *B) {
              return A->Cycles != B->Cycles ? A->Cycles > B->Cycles
                                            : A->Id < B->Id;
            });
  if (Hot.size() > 10)
    Hot.resize(10);
  std::printf("\n== hottest contexts (exclusive cycles) ==\n");
  std::printf("%12s %12s  %s\n", "cycles", "steps", "call path");
  for (const ProfContext *C : Hot)
    std::printf("%12llu %12llu  %s\n",
                static_cast<unsigned long long>(C->Cycles),
                static_cast<unsigned long long>(C->Steps),
                contextPath(Ix, C->Id).c_str());
}

void printOverheadTable(const ProfIndex &Ix) {
  const ProfileStore &S = *Ix.S;
  if (!S.HasOverhead)
    return;
  std::vector<const ProfSiteOverhead *> Sites;
  size_t ProtectedSites = 0;
  for (const ProfSiteOverhead &O : S.Overheads) {
    if (O.Protected_)
      ++ProtectedSites;
    if (obs::marginalCycles(O) != 0)
      Sites.push_back(&O);
  }
  std::sort(Sites.begin(), Sites.end(),
            [](const ProfSiteOverhead *A, const ProfSiteOverhead *B) {
              int64_t MA = obs::marginalCycles(*A);
              int64_t MB = obs::marginalCycles(*B);
              return MA != MB ? MA > MB : A->SiteId < B->SiteId;
            });
  size_t Shown = std::min<size_t>(Sites.size(), 12);

  std::printf("\n== protection overhead by original site ==\n");
  std::printf("%zu of %zu sites protected; %zu carry overhead, top %zu "
              "shown\n",
              ProtectedSites, S.Overheads.size(), Sites.size(), Shown);
  std::printf("%6s %-10s %-20s %10s %10s %10s %10s\n", "site", "opcode",
              "location", "base", "shadow", "check", "marginal");
  for (size_t N = 0; N != Shown; ++N) {
    const ProfSiteOverhead &O = *Sites[N];
    std::printf("%6u %-10s %-20s %10llu %10llu %10llu %+10lld\n", O.SiteId,
                opcodeName(static_cast<Opcode>(O.Opcode)),
                Ix.location(O.FunctionIndex, O.Line, O.Col).c_str(),
                static_cast<unsigned long long>(O.BaseCycles),
                static_cast<unsigned long long>(O.ShadowCycles),
                static_cast<unsigned long long>(O.CheckCycles),
                static_cast<long long>(obs::marginalCycles(O)));
  }
  std::printf("sum of marginal cycles: %+lld (= protected %llu - baseline "
              "%llu)\n",
              static_cast<long long>(Ix.TotalMarginal),
              static_cast<unsigned long long>(S.TotalCycles),
              static_cast<unsigned long long>(S.BaselineTotalCycles));
}

/// Joins the per-site overhead table with a campaign record store:
/// vulnerability (SOC outcomes per injection site) against cost (marginal
/// protection cycles per site). The .iprec may come from a campaign over
/// the protected build itself (shadow/check clones are folded back onto
/// their originals positionally, mirroring the attribution mapping) or
/// over the matching unprotected build (identity mapping) — in the first
/// case `soc` is the residual SOC that slipped past protection, in the
/// second the vulnerability protection would remove. Sites are ranked by
/// soc per kilocycle: the efficiency frontier a budget optimizer walks.
/// With \p Json set, the same table is emitted as one JSON document
/// (rows + totals) instead of the human rendering.
int printEfficiencyJoin(const ProfIndex &Ix, const std::string &Path,
                        bool Json) {
  const ProfileStore &S = *Ix.S;
  if (!S.HasOverhead) {
    std::fprintf(stderr,
                 "error: --join: profile has no overhead attribution; "
                 "re-profile a protected build (ipas-cc --protect "
                 "--profile)\n");
    return 1;
  }
  obs::RecordStore R;
  std::string Err;
  if (!obs::readRecordStore(R, Path, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }

  // Record-store instruction id -> baseline site id: non-shadow/non-check
  // records, in id order, map positionally onto the overhead table — the
  // same surviving-original mapping the attribution pass used.
  std::vector<const obs::InstrRecord *> Records;
  for (const obs::InstrRecord &I : R.Instructions)
    Records.push_back(&I);
  std::sort(Records.begin(), Records.end(),
            [](const obs::InstrRecord *A, const obs::InstrRecord *B) {
              return A->Id < B->Id;
            });
  std::map<uint32_t, uint32_t> RecToSite;
  uint32_t NextSite = 0;
  for (const obs::InstrRecord *I : Records) {
    if (I->DupRole == static_cast<uint8_t>(DupRole::Shadow) ||
        I->DupRole == static_cast<uint8_t>(DupRole::Check))
      continue;
    auto It = Ix.BySite.find(NextSite);
    if (It == Ix.BySite.end() || It->second->Opcode != I->Opcode) {
      std::fprintf(stderr,
                   "error: --join: record store does not match the "
                   "profiled build (site %u: opcode mismatch or missing "
                   "overhead row)\n",
                   NextSite);
      return 1;
    }
    RecToSite[I->Id] = NextSite++;
  }
  if (NextSite != Ix.BySite.size()) {
    std::fprintf(stderr,
                 "error: --join: record store has %u original sites, "
                 "profile attributes %zu\n",
                 NextSite, Ix.BySite.size());
    return 1;
  }

  // Per-site injection and SOC counts, folded onto baseline site ids.
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> RunsSoc;
  for (const obs::InjectionRow &Row : R.Rows) {
    auto It = RecToSite.find(Row.InstructionId);
    if (It == RecToSite.end())
      continue; // injected into a shadow/check clone: no original site
    auto &RS = RunsSoc[It->second];
    RS.first += 1;
    if (Row.Outcome == static_cast<uint8_t>(Outcome::SOC))
      RS.second += 1;
  }

  struct EffRow {
    const ProfSiteOverhead *O;
    uint64_t Runs, Soc;
    int64_t Marginal;
    double SocPerKc; ///< -1 when no cycles were spent on the site.
  };
  std::vector<EffRow> Table;
  uint64_t TotalSoc = 0;
  for (const ProfSiteOverhead &O : S.Overheads) {
    auto It = RunsSoc.find(O.SiteId);
    uint64_t Runs = It != RunsSoc.end() ? It->second.first : 0;
    uint64_t Soc = It != RunsSoc.end() ? It->second.second : 0;
    TotalSoc += Soc;
    int64_t M = obs::marginalCycles(O);
    if (!Soc && M == 0)
      continue; // neither vulnerable nor costly: nothing to trade
    double Eff = M > 0 ? 1000.0 * static_cast<double>(Soc) /
                             static_cast<double>(M)
                       : -1.0;
    Table.push_back({&O, Runs, Soc, M, Eff});
  }
  std::sort(Table.begin(), Table.end(), [](const EffRow &A,
                                           const EffRow &B) {
    // Free soc first (no cycles spent), then best soc-per-cycle, then
    // cheapest, then stable by site id.
    bool FA = A.SocPerKc < 0 && A.Soc, FB = B.SocPerKc < 0 && B.Soc;
    if (FA != FB)
      return FA;
    if (A.SocPerKc != B.SocPerKc)
      return A.SocPerKc > B.SocPerKc;
    if (A.Marginal != B.Marginal)
      return A.Marginal < B.Marginal;
    return A.O->SiteId < B.O->SiteId;
  });

  if (Json) {
    obs::JsonWriter W;
    W.beginObject();
    W.key("tool").value("ipas-profile");
    W.key("mode").value("efficiency-join");
    W.key("module").value(S.ModuleName);
    W.key("profile_label").value(S.Label);
    W.key("campaign_label").value(R.Label);
    W.key("injections").value(static_cast<uint64_t>(R.Rows.size()));
    W.key("rows");
    W.beginArray();
    for (const EffRow &E : Table) {
      const ProfSiteOverhead &O = *E.O;
      W.beginObject();
      W.key("site").value(static_cast<uint64_t>(O.SiteId));
      W.key("opcode").value(opcodeName(static_cast<Opcode>(O.Opcode)));
      W.key("function").value(Ix.functionName(O.FunctionIndex));
      W.key("line").value(static_cast<uint64_t>(O.Line));
      W.key("col").value(static_cast<uint64_t>(O.Col));
      W.key("protected").value(O.Protected_ != 0);
      W.key("injections").value(E.Runs);
      W.key("soc").value(E.Soc);
      W.key("marginal_cycles").value(static_cast<int64_t>(E.Marginal));
      W.key("soc_per_kcycle");
      if (E.SocPerKc < 0)
        W.nullValue(); // no cycles spent: free soc or unmeasured site
      else
        W.value(E.SocPerKc);
      W.endObject();
    }
    W.endArray();
    W.key("totals");
    W.beginObject();
    W.key("soc").value(TotalSoc);
    W.key("marginal_cycles").value(static_cast<int64_t>(Ix.TotalMarginal));
    W.key("listed_sites").value(static_cast<uint64_t>(Table.size()));
    W.endObject();
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return 0;
  }

  std::printf("\n== protection efficiency (soc vs cycles spent) ==\n");
  std::printf("joined campaign: %s (%zu injections, %llu soc at original "
              "sites)\n",
              R.Label.empty() ? "<none>" : R.Label.c_str(), R.Rows.size(),
              static_cast<unsigned long long>(TotalSoc));
  std::printf("%6s %-10s %-20s %4s %8s %6s %10s %9s\n", "site", "opcode",
              "location", "prot", "inject", "soc", "marginal", "soc/kcyc");
  for (const EffRow &E : Table) {
    const ProfSiteOverhead &O = *E.O;
    std::printf("%6u %-10s %-20s %4s %8llu %6llu %+10lld ", O.SiteId,
                opcodeName(static_cast<Opcode>(O.Opcode)),
                Ix.location(O.FunctionIndex, O.Line, O.Col).c_str(),
                O.Protected_ ? "yes" : "no",
                static_cast<unsigned long long>(E.Runs),
                static_cast<unsigned long long>(E.Soc),
                static_cast<long long>(E.Marginal));
    // Zero marginal cycles: protection that cost nothing ("free"), or an
    // unprotected site whose protection cost is not yet measured ("-").
    if (E.SocPerKc < 0)
      std::printf("%9s\n", O.Protected_ ? "free" : "-");
    else
      std::printf("%9.3f\n", E.SocPerKc);
  }
  std::printf("total: %llu soc, %+lld marginal cycles over %zu listed "
              "sites\n",
              static_cast<unsigned long long>(TotalSoc),
              static_cast<long long>(Ix.TotalMarginal), Table.size());
  return 0;
}

int profileOne(const std::string &Path, bool WithSource,
               const std::string &JoinPath, bool Json) {
  ProfileStore S;
  std::string Err;
  if (!obs::readProfileStore(S, Path, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  ProfIndex Ix(S);
  if (Json) // --json: the efficiency document alone, no human tables
    return printEfficiencyJoin(Ix, JoinPath, true);
  printSummary(Ix);
  printHotSites(Ix);
  printHeatmap(Ix, WithSource);
  printFunctionTable(Ix);
  printHotContexts(Ix);
  printOverheadTable(Ix);
  if (!JoinPath.empty())
    return printEfficiencyJoin(Ix, JoinPath, false);
  return 0;
}

/// Flamegraph folded-stack output: one "fn;fn;fn cycles" line per
/// calling context with nonzero exclusive cycles. Pipe into any
/// flamegraph renderer.
int foldedStacks(const std::string &Path) {
  ProfileStore S;
  std::string Err;
  if (!obs::readProfileStore(S, Path, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  if (S.Mode != obs::ProfileContext || S.Contexts.empty()) {
    std::fprintf(stderr,
                 "error: %s: no calling-context data (counting-mode "
                 "store); re-profile with --profile-context\n",
                 Path.c_str());
    return 1;
  }
  ProfIndex Ix(S);
  for (const ProfContext &C : S.Contexts) {
    if (!C.Cycles)
      continue;
    std::printf("%s %llu\n", contextPath(Ix, C.Id).c_str(),
                static_cast<unsigned long long>(C.Cycles));
  }
  return 0;
}

int diffStores(const std::string &OldPath, const std::string &NewPath,
               int64_t Threshold) {
  ProfileStore OldS, NewS;
  std::string Err;
  if (!obs::readProfileStore(OldS, OldPath, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", OldPath.c_str(), Err.c_str());
    return 1;
  }
  if (!obs::readProfileStore(NewS, NewPath, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", NewPath.c_str(), Err.c_str());
    return 1;
  }
  if (OldS.CostModelCycles != NewS.CostModelCycles) {
    std::fprintf(stderr,
                 "error: stores were priced with different cycle models; "
                 "cycle totals are not comparable\n");
    return 1;
  }
  ProfIndex OldIx(OldS), NewIx(NewS);

  auto PctGrowth = [](uint64_t Old, uint64_t New) {
    if (!Old)
      return New ? 1e9 : 0.0;
    return 100.0 * (static_cast<double>(New) - static_cast<double>(Old)) /
           static_cast<double>(Old);
  };

  std::printf("diff: %s -> %s\n", OldPath.c_str(), NewPath.c_str());
  std::printf("steps:    %llu -> %llu (%+lld)\n",
              static_cast<unsigned long long>(OldS.CleanSteps),
              static_cast<unsigned long long>(NewS.CleanSteps),
              static_cast<long long>(NewS.CleanSteps) -
                  static_cast<long long>(OldS.CleanSteps));
  double CycGrowth = PctGrowth(OldS.TotalCycles, NewS.TotalCycles);
  std::printf("cycles:   %llu -> %llu (%+.1f%%)\n",
              static_cast<unsigned long long>(OldS.TotalCycles),
              static_cast<unsigned long long>(NewS.TotalCycles), CycGrowth);
  bool BothOverhead = OldS.HasOverhead && NewS.HasOverhead;
  double OvhGrowth = 0.0;
  if (BothOverhead) {
    int64_t OldOvh = OldIx.overheadCycles(), NewOvh = NewIx.overheadCycles();
    OvhGrowth = PctGrowth(OldOvh > 0 ? static_cast<uint64_t>(OldOvh) : 0,
                          NewOvh > 0 ? static_cast<uint64_t>(NewOvh) : 0);
    std::printf("overhead: %+lld -> %+lld cycles (%+.1f%%)\n",
                static_cast<long long>(OldOvh),
                static_cast<long long>(NewOvh), OvhGrowth);
  }

  // Per-function cycle deltas (union of names, zeros implied).
  auto OldFns = OldIx.cyclesByFunction(), NewFns = NewIx.cyclesByFunction();
  std::map<std::string, std::pair<uint64_t, uint64_t>> FnDelta;
  for (const auto &[F, N] : OldFns)
    FnDelta[F].first = N;
  for (const auto &[F, N] : NewFns)
    FnDelta[F].second = N;
  bool AnyFn = false;
  for (const auto &[F, P] : FnDelta) {
    if (P.first == P.second)
      continue;
    if (!AnyFn) {
      std::printf("\n== cycles by function ==\n");
      AnyFn = true;
    }
    std::printf("  @%s: %llu -> %llu (%+lld)\n", F.c_str(),
                static_cast<unsigned long long>(P.first),
                static_cast<unsigned long long>(P.second),
                static_cast<long long>(P.second) -
                    static_cast<long long>(P.first));
  }

  // Regression gate: total cycles and protection overhead may each grow
  // by at most --threshold percent.
  double Allowed = static_cast<double>(Threshold);
  bool Regressed = false;
  if (CycGrowth > Allowed) {
    std::printf("\nregression: total cycles grew %+.1f%% "
                "(threshold %lld%%)\n",
                CycGrowth, static_cast<long long>(Threshold));
    Regressed = true;
  }
  if (BothOverhead && OvhGrowth > Allowed) {
    std::printf("%sregression: protection overhead grew %+.1f%% "
                "(threshold %lld%%)\n",
                Regressed ? "" : "\n", OvhGrowth,
                static_cast<long long>(Threshold));
    Regressed = true;
  }
  if (Regressed)
    return 7;
  std::printf("\nok: no cost regression\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Diff = false, NoSource = false, Folded = false, Json = false;
  int64_t Threshold = 0;
  std::string JoinPath;
  ArgParser P("ipas-profile: analyse .ipprof cost-profile stores");
  P.addBool("diff", &Diff,
            "compare two stores (old new) and fail on cost regression");
  P.addInt("threshold", &Threshold,
           "allowed total-cycle / overhead growth in percent before "
           "--diff fails");
  P.addBool("no-source", &NoSource,
            "omit source text from the cost heatmap");
  P.addBool("folded", &Folded,
            "emit flamegraph folded stacks (context-mode stores only)");
  P.addString("join", &JoinPath,
              "join the per-site overhead table against the injection "
              "outcomes in this .iprec store (soc per cycle spent)");
  P.addBool("json", &Json,
            "emit the --join efficiency table as one JSON document "
            "instead of the human report (requires --join)");
  if (!P.parse(Argc, Argv))
    return 2;
  if (Json && JoinPath.empty()) {
    std::fprintf(stderr,
                 "error: --json renders the --join efficiency table; "
                 "pass --join <campaign.iprec> with it\n");
    return 2;
  }

  if (Diff) {
    if (P.positionals().size() != 2) {
      std::fprintf(
          stderr, "usage: ipas-profile --diff <old.ipprof> <new.ipprof>\n");
      return 2;
    }
    return diffStores(P.positionals()[0], P.positionals()[1], Threshold);
  }
  if (P.positionals().size() != 1) {
    std::fprintf(stderr, "usage: ipas-profile <store.ipprof> [flags]\n%s",
                 P.usage().c_str());
    return 2;
  }
  if (Folded)
    return foldedStacks(P.positionals()[0]);
  return profileOne(P.positionals()[0], !NoSource, JoinPath, Json);
}
