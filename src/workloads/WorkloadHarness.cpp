//===- workloads/WorkloadHarness.cpp ------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/WorkloadHarness.h"

using namespace ipas;

static std::vector<RtValue> argsOf(const std::vector<int64_t> &Params) {
  std::vector<RtValue> Args;
  Args.reserve(Params.size());
  for (int64_t P : Params)
    Args.push_back(RtValue::fromI64(P));
  return Args;
}

WorkloadHarness::WorkloadHarness(const Workload &W,
                                 std::vector<int64_t> Params, int NumRanks,
                                 uint64_t WorkloadSeed)
    : ProgramHarness({.Entry = Workload::EntryName,
                      .Args = argsOf(Params),
                      .Mem = W.memoryConfig(Params),
                      .WorkloadSeed = WorkloadSeed,
                      .OutputSlots = W.outputSlots(Params),
                      .NumRanks = NumRanks}),
      W(W), Params(std::move(Params)) {}
