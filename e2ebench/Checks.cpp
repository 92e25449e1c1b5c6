//===- e2ebench/Checks.cpp - Output digests and correctness bookkeeping ----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace ipas;

namespace bench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Digest &Digest::bytes(const void *P, size_t N) {
  const unsigned char *B = static_cast<const unsigned char *>(P);
  for (size_t I = 0; I != N; ++I) {
    H ^= B[I];
    H *= 0x100000001b3ULL;
  }
  return *this;
}

Digest &Digest::f64(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof Bits);
  return u64(Bits);
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, V);
  return Buf;
}

uint64_t campaignDigest(const CampaignResult &R) {
  Digest D;
  D.u64(R.Records.size()).u64(R.CleanSteps);
  for (const InjectionRecord &Rec : R.Records)
    D.u64(Rec.InstructionId).u64(Rec.BitIndex).u64(
        static_cast<uint64_t>(Rec.Result));
  for (size_t C : R.Counts)
    D.u64(C);
  return D.value();
}

void CampaignTally::add(const std::string &Label, const CampaignResult &R,
                        ExecBackend Requested, unsigned Threads,
                        size_t NumReused,
                        const std::vector<char> *NotExecuted) {
  ++Campaigns;
  Injections += R.Records.size();
  Pruned += R.PrunedRuns;
  Reused += NumReused;
  VmRuns += R.VmRuns;
  InterpRuns += R.InterpRuns;
  if (Requested == ExecBackend::Vm)
    RequestedVmRuns += R.Records.size() - R.PrunedRuns - NumReused;
  RequestedThreads = std::max(RequestedThreads, Threads);
  WallSeconds += R.WallSeconds;
  CleanSteps += R.CleanSteps;
  double Busy = 0;
  for (size_t I = 0; I != R.Records.size(); ++I) {
    if (NotExecuted && (*NotExecuted)[I])
      continue;
    Busy += R.Records[I].LatencyUs * 1e-6;
    LatencyUs.push_back(R.Records[I].LatencyUs);
  }
  BusySeconds += Busy;
  size_t Executed = R.Records.size() - R.PrunedRuns - NumReused;
  Rows.push_back({Label, Requested, Threads, R.VmRuns, R.InterpRuns,
                  Executed - R.VmRuns - R.InterpRuns, R.WallSeconds, Busy});
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

Checks::Checks(const std::string &RefsPath, const std::string &Scale,
               uint64_t Seed) {
  if (RefsPath.empty())
    return;
  std::ifstream In(RefsPath);
  if (!In)
    return;
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<obs::JsonValue> Doc = obs::parseJson(SS.str());
  if (!Doc) {
    std::fprintf(stderr, "error: malformed reference file %s\n",
                 RefsPath.c_str());
    // Counted, so a damaged reference file can never pass silently.
    op("refs.parse", false, "malformed reference file");
    return;
  }
  const obs::JsonValue *ForScale = Doc->get(Scale);
  const obs::JsonValue *ForSeed =
      ForScale ? ForScale->get(std::to_string(Seed)) : nullptr;
  if (!ForSeed || !ForSeed->isObject())
    return;
  HavePins = true;
  for (const auto &[Name, V] : ForSeed->Members)
    Pins[Name] = V.asString();
}

void Checks::op(const std::string &Name, bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "check failed: %s: %s\n", Name.c_str(),
               Why.empty() ? "(no detail)" : Why.c_str());
}

void Checks::digestOp(const std::string &Name, uint64_t Value, bool Ok,
                      const std::string &Why) {
  std::string Hex = hex64(Value);
  Seen.emplace(Name, Hex);
  std::string Detail = Why;
  if (HavePins) {
    auto It = Pins.find(Name);
    if (It == Pins.end()) {
      Ok = false;
      Detail = "no pinned digest for this operation";
    } else if (It->second != Hex) {
      Ok = false;
      Detail = "digest " + Hex + " differs from pinned " + It->second;
    }
  }
  op(Name, Ok, Detail);
}

void Checks::finish() {
  for (const auto &[Name, Hex] : Pins)
    if (!Seen.count(Name))
      op(Name, false, "pinned operation " + Hex + " never ran");
}

} // namespace bench
