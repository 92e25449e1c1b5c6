//===- tests/TestWorkloadBackends.cpp - Workload backend differential ---------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five paper workloads under a short fixed-seed campaign on every
/// (backend, thread count) pair: the deterministic record stream must be
/// identical on all four legs, and a VM leg must execute every run on the
/// VM — a silent interpreter fallback fails the test.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/Campaign.h"
#include "workloads/WorkloadHarness.h"

using namespace ipas;

namespace {

class WorkloadBackends : public ::testing::TestWithParam<const char *> {};

struct Leg {
  ExecBackend Backend;
  unsigned Threads;
};

} // namespace

TEST_P(WorkloadBackends, CampaignStreamIsBackendAndThreadInvariant) {
  std::unique_ptr<Workload> W = makeWorkload(GetParam());
  ASSERT_TRUE(W);
  std::unique_ptr<Module> M = compileWorkload(*W);
  ModuleLayout Layout(*M);

  const Leg Legs[] = {{ExecBackend::Interp, 1},
                      {ExecBackend::Interp, 4},
                      {ExecBackend::Vm, 1},
                      {ExecBackend::Vm, 4}};
  std::vector<CampaignResult> Results;
  for (const Leg &L : Legs) {
    WorkloadHarness H(*W, 1);
    CampaignConfig CC;
    CC.NumRuns = 48;
    CC.Seed = 0x5eed;
    CC.NumThreads = L.Threads;
    CC.Backend = L.Backend;
    CC.TraceRuns = false;
    Results.push_back(runCampaign(H, Layout, CC));
  }

  const CampaignResult &Base = Results[0];
  ASSERT_EQ(Base.Records.size(), 48u);
  for (size_t K = 0; K != Results.size(); ++K) {
    const CampaignResult &R = Results[K];
    const char *Name = backendName(Legs[K].Backend);
    unsigned Threads = Legs[K].Threads;
    size_t Executed = R.Records.size() - R.PrunedRuns;
    if (Legs[K].Backend == ExecBackend::Vm) {
      EXPECT_EQ(R.VmRuns, Executed) << Name << " x" << Threads;
      EXPECT_EQ(R.InterpRuns, 0u) << Name << " x" << Threads;
    } else {
      EXPECT_EQ(R.InterpRuns, Executed) << Name << " x" << Threads;
    }
    EXPECT_EQ(R.CleanSteps, Base.CleanSteps) << Name << " x" << Threads;
    EXPECT_EQ(R.CleanValueSteps, Base.CleanValueSteps)
        << Name << " x" << Threads;
    EXPECT_EQ(R.Counts, Base.Counts) << Name << " x" << Threads;
    ASSERT_EQ(R.Records.size(), Base.Records.size());
    for (size_t I = 0; I != R.Records.size(); ++I) {
      const InjectionRecord &A = R.Records[I], &B = Base.Records[I];
      EXPECT_EQ(A.InstructionId, B.InstructionId)
          << Name << " x" << Threads << ", record " << I;
      EXPECT_EQ(A.BitIndex, B.BitIndex)
          << Name << " x" << Threads << ", record " << I;
      EXPECT_EQ(A.TargetValueStep, B.TargetValueStep)
          << Name << " x" << Threads << ", record " << I;
      EXPECT_EQ(A.Result, B.Result)
          << Name << " x" << Threads << ", record " << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFive, WorkloadBackends,
                         ::testing::Values("IS", "FFT", "HPCCG", "AMG",
                                           "CoMD"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });
