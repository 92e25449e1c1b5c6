//===- workloads/WorkloadHarness.h - Workloads as injectable programs -----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IPAS_WORKLOADS_WORKLOADHARNESS_H
#define IPAS_WORKLOADS_WORKLOADHARNESS_H

#include "fault/ProgramHarness.h"
#include "workloads/Workload.h"

namespace ipas {

/// Describes a workload (serial or multi-rank) to the campaign engine:
/// its entry, input parameters, memory, output buffer and verification
/// routine. The first clean execution captures the golden output. Fault
/// injection is supported for serial runs (the paper's coverage
/// methodology, §6); multi-rank runs are used for the scalability
/// measurements.
class WorkloadHarness : public ProgramHarness {
public:
  WorkloadHarness(const Workload &W, int InputLevel, int NumRanks = 1,
                  uint64_t WorkloadSeed = 0x1234abcd)
      : WorkloadHarness(W, W.inputParams(InputLevel), NumRanks,
                        WorkloadSeed) {}

protected:
  bool verify(const std::vector<RtValue> &Output,
              const std::vector<RtValue> &Gold) const override {
    return W.verify(Output, Gold, Params);
  }

private:
  WorkloadHarness(const Workload &W, std::vector<int64_t> Params,
                  int NumRanks, uint64_t WorkloadSeed);

  const Workload &W;
  std::vector<int64_t> Params;
};

} // namespace ipas

#endif // IPAS_WORKLOADS_WORKLOADHARNESS_H
