//===- tools/ipas-prop.cpp - Fault-propagation trace analytics -----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reads the .ipprop propagation stores written by `ipas-cc --prop-out`
/// and explains what the sampled injections actually did:
///
///   ipas-prop camp.ipprop                   # summary + per-injection table
///   ipas-prop camp.ipprop --dot 64          # DOT graph of run 64's spread
///   ipas-prop camp.ipprop --cross-validate  # static-vs-dynamic soundness
///
/// The summary mode renders one line per traced injection (depth,
/// corrupted-value count, masking tallies, latency to first output
/// corruption, dynamically reached sinks) plus an aggregate per-opcode
/// masking table — the dynamic complement of ipas-inspect's endpoint
/// tables.
///
/// The cross-validation mode is a soundness gate: it confronts the
/// static SocPropagation claims stored in the side table with the
/// dynamic ground truth of each traced record. A site the analysis
/// proved benign must never corrupt output; if any traced injection
/// into a statically-benign site ended in SOC the tool exits nonzero,
/// because that is a bug in the static analysis, not a statistic. The
/// classifier's predictions get the same treatment as a (non-fatal)
/// confusion report.
///
//===----------------------------------------------------------------------===//

#include "fault/Outcome.h"
#include "ir/Instruction.h"
#include "obs/Propagation.h"
#include "support/ArgParser.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace ipas;
using obs::PropagationStore;
using obs::PropEdge;
using obs::PropInstr;
using obs::PropMaskEvent;
using obs::PropRecord;

namespace {

const char *outcomeCodeName(uint8_t Code) {
  if (Code < NumOutcomes)
    return outcomeName(static_cast<Outcome>(Code));
  return "<bad outcome>";
}

/// Renders a DynReachMask / StaticSinkMask as "store+ret+ctl" ("-" when
/// empty). The short names keep the per-record table narrow.
std::string reachMaskString(uint32_t Mask) {
  static const struct {
    uint32_t Bit;
    const char *Name;
  } Bits[] = {
      {obs::PropReachStore, "store"}, {obs::PropReachCallArgument, "arg"},
      {obs::PropReachReturn, "ret"},  {obs::PropReachControlFlow, "ctl"},
      {obs::PropReachCheck, "chk"},   {obs::PropReachTrap, "trap"},
  };
  std::string Out;
  for (const auto &B : Bits)
    if (Mask & B.Bit) {
      if (!Out.empty())
        Out += '+';
      Out += B.Name;
    }
  return Out.empty() ? "-" : Out;
}

struct StoreIndex {
  const PropagationStore *S = nullptr;
  std::map<uint32_t, const PropInstr *> ById;

  explicit StoreIndex(const PropagationStore &Store) : S(&Store) {
    for (const PropInstr &I : Store.Instructions)
      ById.emplace(I.Id, &I);
  }

  const PropInstr *instr(uint32_t Id) const {
    auto It = ById.find(Id);
    return It != ById.end() ? It->second : nullptr;
  }

  std::string functionName(uint32_t Index) const {
    if (Index < S->Functions.size())
      return S->Functions[Index];
    return "<fn" + std::to_string(Index) + ">";
  }

  std::string opcodeOf(uint32_t Id) const {
    const PropInstr *I = instr(Id);
    return I ? opcodeName(static_cast<Opcode>(I->Opcode)) : "?";
  }
};

void printSummary(const StoreIndex &Ix) {
  const PropagationStore &S = *Ix.S;
  std::printf("module:   %s\n", S.ModuleName.c_str());
  std::printf("entry:    @%s  label: %s  seed: 0x%llx\n",
              S.EntryFunction.c_str(),
              S.Label.empty() ? "<none>" : S.Label.c_str(),
              static_cast<unsigned long long>(S.Seed));
  std::printf("clean:    %llu steps, %llu value steps\n",
              static_cast<unsigned long long>(S.CleanSteps),
              static_cast<unsigned long long>(S.CleanValueSteps));
  std::printf("traced:   %zu of %llu injections (1 in %llu sampled)\n",
              S.Records.size(),
              static_cast<unsigned long long>(S.TotalRuns),
              static_cast<unsigned long long>(S.SampleEvery));

  size_t Reached = 0, Diverged = 0;
  uint64_t LatencySum = 0, DepthSum = 0;
  for (const PropRecord &R : S.Records) {
    if (R.reachedOutput()) {
      ++Reached;
      LatencySum += R.latencyToOutput();
    }
    Diverged += R.ControlDiverged;
    DepthSum += R.PropagationDepth;
  }
  std::printf("reach:    %zu reached output", Reached);
  if (Reached)
    std::printf(" (mean latency %.1f value steps)",
                static_cast<double>(LatencySum) /
                    static_cast<double>(Reached));
  std::printf(", %zu diverged control flow\n", Diverged);
  if (!S.Records.empty())
    std::printf("depth:    mean propagation depth %.1f\n",
                static_cast<double>(DepthSum) /
                    static_cast<double>(S.Records.size()));
}

void printRecords(const StoreIndex &Ix) {
  const PropagationStore &S = *Ix.S;
  std::printf("\n== traced injections ==\n");
  std::printf("%6s %5s %-8s %3s %-8s %5s %7s %7s %9s %5s %5s %5s  %s\n",
              "run", "id", "opcode", "bit", "outcome", "depth", "corrupt",
              "latency", "first-out", "lgc", "ovw", "dead", "reach");
  for (const PropRecord &R : S.Records) {
    char Latency[24], FirstOut[24];
    if (R.reachedOutput()) {
      std::snprintf(Latency, sizeof Latency, "%" PRIu64,
                    R.latencyToOutput());
      std::snprintf(FirstOut, sizeof FirstOut, "%" PRIu64,
                    R.FirstOutputStep);
    } else {
      std::snprintf(Latency, sizeof Latency, "-");
      std::snprintf(FirstOut, sizeof FirstOut, "-");
    }
    std::printf("%6llu %5u %-8s %3u %-8s %5u %7llu %7s %9s %5llu %5llu "
                "%5llu  %s%s\n",
                static_cast<unsigned long long>(R.RunIndex),
                R.InstructionId, Ix.opcodeOf(R.InstructionId).c_str(),
                R.BitIndex, outcomeCodeName(R.Outcome), R.PropagationDepth,
                static_cast<unsigned long long>(R.CorruptedValues), Latency,
                FirstOut, static_cast<unsigned long long>(R.MaskedLogical),
                static_cast<unsigned long long>(R.MaskedOverwrite),
                static_cast<unsigned long long>(R.MaskedDead),
                reachMaskString(R.DynReachMask).c_str(),
                R.ControlDiverged ? " [diverged]" : "");
  }
}

void printMaskingTable(const StoreIndex &Ix) {
  // Aggregate masking events across all traced injections, keyed by the
  // masking instruction's opcode.
  std::map<uint8_t, std::array<uint64_t, 3>> ByOpcode;
  for (const PropRecord &R : Ix.S->Records)
    for (const PropMaskEvent &M : R.Masks)
      if (M.Kind < 3)
        ByOpcode[M.Opcode][M.Kind] += M.Count;

  std::printf("\n== masking by opcode (dynamic) ==\n");
  if (ByOpcode.empty()) {
    std::printf("(no masking events traced)\n");
    return;
  }
  std::printf("%-10s %8s %9s %6s %7s\n", "opcode", "logical", "overwrite",
              "dead", "total");
  for (const auto &[Op, Counts] : ByOpcode) {
    uint64_t Total = Counts[0] + Counts[1] + Counts[2];
    std::printf("%-10s %8llu %9llu %6llu %7llu\n",
                opcodeName(static_cast<Opcode>(Op)),
                static_cast<unsigned long long>(Counts[0]),
                static_cast<unsigned long long>(Counts[1]),
                static_cast<unsigned long long>(Counts[2]),
                static_cast<unsigned long long>(Total));
  }
}

/// Writes one injection's propagation graph as GraphViz DOT. Def-use
/// edges are solid, memory edges dashed, control edges bold red; the
/// injection site is the doubled octagon.
int printDot(const StoreIndex &Ix, uint64_t RunIndex) {
  const PropRecord *Rec = nullptr;
  for (const PropRecord &R : Ix.S->Records)
    if (R.RunIndex == RunIndex) {
      Rec = &R;
      break;
    }
  if (!Rec) {
    std::fprintf(stderr,
                 "error: no traced record for run %llu (traced runs:",
                 static_cast<unsigned long long>(RunIndex));
    for (const PropRecord &R : Ix.S->Records)
      std::fprintf(stderr, " %llu",
                   static_cast<unsigned long long>(R.RunIndex));
    std::fprintf(stderr, ")\n");
    return 1;
  }

  std::printf("digraph prop_run_%llu {\n",
              static_cast<unsigned long long>(RunIndex));
  std::printf("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
  std::printf("  label=\"run %llu: bit %u of #%u (%s), outcome %s, "
              "depth %u\";\n",
              static_cast<unsigned long long>(RunIndex), Rec->BitIndex,
              Rec->InstructionId, Ix.opcodeOf(Rec->InstructionId).c_str(),
              outcomeCodeName(Rec->Outcome), Rec->PropagationDepth);

  // Nodes: every id appearing in an edge, plus the injection site.
  std::map<uint32_t, bool> Nodes;
  Nodes[Rec->InstructionId] = true;
  for (const PropEdge &E : Rec->Edges) {
    Nodes.emplace(E.SrcId, false);
    Nodes.emplace(E.DstId, false);
  }
  for (const auto &[Id, IsInjection] : Nodes) {
    const PropInstr *I = Ix.instr(Id);
    std::string Loc;
    if (I && I->Line)
      Loc = "\\n@" + Ix.functionName(I->FunctionIndex) + ":" +
            std::to_string(I->Line) + ":" + std::to_string(I->Col);
    std::printf("  n%u [label=\"#%u %s%s\"%s];\n", Id, Id,
                Ix.opcodeOf(Id).c_str(), Loc.c_str(),
                IsInjection
                    ? ", shape=doubleoctagon, style=filled, fillcolor=gold"
                    : "");
  }
  for (const PropEdge &E : Rec->Edges) {
    const char *Style = "";
    switch (E.Kind) {
    case obs::PropEdgeDefUse:
      Style = "";
      break;
    case obs::PropEdgeMemory:
      Style = ", style=dashed, color=blue";
      break;
    case obs::PropEdgeControl:
      Style = ", style=bold, color=red";
      break;
    }
    if (E.Count > 1)
      std::printf("  n%u -> n%u [label=\"x%u\"%s];\n", E.SrcId, E.DstId,
                  E.Count, Style);
    else
      std::printf("  n%u -> n%u [label=\"\"%s];\n", E.SrcId, E.DstId,
                  Style);
  }
  std::printf("}\n");
  return 0;
}

/// Static-vs-dynamic cross-validation: the soundness gate.
///
/// For every traced injection, compare the static claim recorded in the
/// side table (provably benign / sink mask) against the dynamic ground
/// truth (outcome, DynReachMask). Soundness means static benign claims
/// over-approximate safety — a statically-benign site whose injection
/// dynamically corrupted output (SOC) is an analysis bug and fails the
/// gate with a nonzero exit.
int crossValidate(const StoreIndex &Ix) {
  const PropagationStore &S = *Ix.S;
  // Confusion matrix: static claim (benign / may-reach) x dynamic
  // behaviour (no reach / reached sink, no soc / soc).
  uint64_t Cell[2][3] = {{0, 0, 0}, {0, 0, 0}};
  struct Violation {
    const PropRecord *R;
    const PropInstr *I;
  };
  std::vector<Violation> Unsound;  // static benign, dynamic SOC
  std::vector<Violation> Suspect;  // static benign, dynamically reached
  std::vector<Violation> ClassMiss; // predicted skip, dynamic SOC
  bool AnyPrediction = false;

  for (const PropRecord &R : S.Records) {
    const PropInstr *I = Ix.instr(R.InstructionId);
    if (!I)
      continue;
    bool Soc = R.Outcome == static_cast<uint8_t>(Outcome::SOC);
    int Dyn = Soc ? 2 : (R.DynReachMask ? 1 : 0);
    int Static = I->StaticBenign ? 0 : 1;
    ++Cell[Static][Dyn];
    if (I->StaticBenign && Soc)
      Unsound.push_back({&R, I});
    else if (I->StaticBenign && R.DynReachMask)
      Suspect.push_back({&R, I});
    if (I->Predicted != 0)
      AnyPrediction = true;
    if (I->Predicted == 2 /* PredictSkip */ && Soc)
      ClassMiss.push_back({&R, I});
  }

  std::printf("== static-vs-dynamic cross-validation ==\n");
  std::printf("%zu traced injections against %zu static claims\n",
              S.Records.size(), S.Instructions.size());
  std::printf("\n%-16s %10s %12s %6s\n", "static \\ dynamic", "no-reach",
              "reached-sink", "soc");
  std::printf("%-16s %10llu %12llu %6llu\n", "provably-benign",
              static_cast<unsigned long long>(Cell[0][0]),
              static_cast<unsigned long long>(Cell[0][1]),
              static_cast<unsigned long long>(Cell[0][2]));
  std::printf("%-16s %10llu %12llu %6llu\n", "may-reach",
              static_cast<unsigned long long>(Cell[1][0]),
              static_cast<unsigned long long>(Cell[1][1]),
              static_cast<unsigned long long>(Cell[1][2]));

  auto PrintSite = [&](const char *Tag, const Violation &V) {
    std::printf("  %s run %llu: #%u %s @%s:%u:%u bit %u -> %s, reach %s, "
                "static mask %s\n",
                Tag, static_cast<unsigned long long>(V.R->RunIndex),
                V.I->Id, opcodeName(static_cast<Opcode>(V.I->Opcode)),
                Ix.functionName(V.I->FunctionIndex).c_str(), V.I->Line,
                V.I->Col, V.R->BitIndex, outcomeCodeName(V.R->Outcome),
                reachMaskString(V.R->DynReachMask).c_str(),
                reachMaskString(V.I->StaticSinkMask).c_str());
  };

  if (!Suspect.empty()) {
    std::printf("\nwarning: %zu statically-benign site(s) dynamically "
                "reached a sink (masked before output, but the static "
                "claim is tight at best):\n",
                Suspect.size());
    for (const Violation &V : Suspect)
      PrintSite("suspect", V);
  }

  if (AnyPrediction) {
    std::printf("\nclassifier: %zu predicted-skip site(s) whose traced "
                "injection went SOC\n",
                ClassMiss.size());
    for (const Violation &V : ClassMiss)
      PrintSite("miss", V);
  }

  if (!Unsound.empty()) {
    std::printf("\nUNSOUND: %zu statically-benign site(s) dynamically "
                "corrupted output:\n",
                Unsound.size());
    for (const Violation &V : Unsound)
      PrintSite("unsound", V);
    return 8;
  }
  std::printf("\nok: no statically-benign site corrupted output\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool CrossValidate = false;
  int64_t DotRun = -1;
  ArgParser P("ipas-prop: analyse .ipprop fault-propagation stores");
  P.addBool("cross-validate", &CrossValidate,
            "confront static SocPropagation claims with the dynamic "
            "ground truth; exit nonzero on a soundness violation");
  P.addInt("dot", &DotRun,
           "emit the propagation graph of this run index as GraphViz DOT");
  if (!P.parse(Argc, Argv))
    return 2;
  if (P.positionals().size() != 1) {
    std::fprintf(stderr, "usage: ipas-prop <store.ipprop> [flags]\n%s",
                 P.usage().c_str());
    return 2;
  }

  PropagationStore S;
  std::string Err;
  if (!obs::readPropagationStore(S, P.positionals()[0], &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", P.positionals()[0].c_str(),
                 Err.c_str());
    return 1;
  }
  StoreIndex Ix(S);

  if (DotRun >= 0)
    return printDot(Ix, static_cast<uint64_t>(DotRun));
  if (CrossValidate)
    return crossValidate(Ix);

  printSummary(Ix);
  printRecords(Ix);
  printMaskingTable(Ix);
  return 0;
}
