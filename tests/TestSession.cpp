//===- tests/TestSession.cpp - .ipses session manifest tests --------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The session manifest is the unit the cross-run ledger (ipas-db)
/// ingests, so the tests pin the archival-format contract the other obs
/// stores already honor — serialize->parse->serialize is byte-identical
/// and absurd counts are rejected (the envelope corruption classes are in
/// TestStoreEnvelope.cpp) — plus the two properties specific to
/// sessions: artifact checksums detect tampered or missing files, and the
/// manifest built from a campaign is deterministic across worker-thread
/// counts once the documented wall-clock fields are zeroed.
///
//===----------------------------------------------------------------------===//

#include "StoreSamples.h"
#include "TestUtil.h"

#include "fault/FunctionHarness.h"
#include "fault/SessionBuild.h"
#include "obs/SessionStore.h"
#include "transform/Duplication.h"

#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <set>
#include <spawn.h>
#include <sys/wait.h>

extern char **environ;

using namespace ipas;
using namespace ipas::testutil;
using obs::SessionArtifact;
using obs::SessionFunction;
using obs::SessionStore;

/// A manifest exercising every field: strings with escapes, 64-bit
/// hashes and counters, all five fallback reasons, multiple functions
/// and artifacts (including an unchecksummed trace entry).
SessionStore testutil::sampleSessionStore() {
  SessionStore S;
  S.Tool = "ipas-cc";
  S.ModuleName = "sample \"quoted\" \n module";
  S.EntryFunction = "run";
  S.Label = "cc.campaign";
  S.SessionLabel = "commit deadbeef";
  S.Seed = 0xdeadbeefcafef00dull;
  S.Backend = 1;
  S.Threads = 4;
  S.Pruning = 1;
  S.Incremental = 1;
  S.PropSampleEvery = 8;
  S.ModuleHash = UINT64_MAX - 17;
  S.WallSeconds = 1.25;
  S.RunsPerSec = 9600.5;
  S.Heartbeats = 42;
  S.Runs = 120;
  S.PrunedRuns = 24;
  S.VmRuns = 100;
  S.InterpRuns = 20;
  S.OutcomeTotals = {3, 1, 82, 17, 17};
  S.FallbackReasons = {"vm.fallback.compile", "vm.fallback.observer",
                       "vm.fallback.profile_context", "vm.fallback.trace",
                       "vm.fallback.other"};
  S.FallbackCounts = {0, 20, 0, 0, 1ull << 40};

  SessionFunction F;
  F.Name = "f";
  F.ContentHash = 0x1122334455667788ull;
  F.ReachableHash = 0x8877665544332211ull;
  F.Sites = 61;
  F.Runs = 11;
  F.Soc = 2;
  F.OverheadCycles = 7489;
  SessionFunction G;
  G.Name = "smooth";
  G.ContentHash = 1;
  S.Functions = {F, G};

  SessionArtifact A;
  A.Kind = obs::SessionArtifactRecord;
  A.Path = "out/residual prot.iprec"; // spaces survive serialization
  A.Size = 23995;
  A.Checksum = 0xfeedface12345678ull;
  SessionArtifact T;
  T.Kind = obs::SessionArtifactTrace;
  T.Path = "trace.jsonl"; // streamed: Checksum stays 0 = unchecked
  S.Artifacts = {A, T};
  return S;
}

namespace {

TEST(SessionStore, RoundTripIsByteIdentical) {
  SessionStore S = sampleSessionStore();
  std::string Bytes;
  obs::serializeSessionStore(S, Bytes);

  SessionStore Parsed;
  std::string Err;
  ASSERT_TRUE(obs::parseSessionStore(Parsed, Bytes, &Err)) << Err;

  EXPECT_EQ(Parsed.Tool, S.Tool);
  EXPECT_EQ(Parsed.ModuleName, S.ModuleName);
  EXPECT_EQ(Parsed.SessionLabel, S.SessionLabel);
  EXPECT_EQ(Parsed.Seed, S.Seed);
  EXPECT_EQ(Parsed.Backend, S.Backend);
  EXPECT_EQ(Parsed.Threads, S.Threads);
  EXPECT_EQ(Parsed.ModuleHash, S.ModuleHash);
  EXPECT_EQ(Parsed.WallSeconds, S.WallSeconds);
  EXPECT_EQ(Parsed.RunsPerSec, S.RunsPerSec);
  EXPECT_EQ(Parsed.OutcomeTotals, S.OutcomeTotals);
  EXPECT_EQ(Parsed.FallbackReasons, S.FallbackReasons);
  EXPECT_EQ(Parsed.FallbackCounts, S.FallbackCounts);
  ASSERT_EQ(Parsed.Functions.size(), 2u);
  EXPECT_EQ(Parsed.Functions[0].ContentHash, 0x1122334455667788ull);
  EXPECT_EQ(Parsed.Functions[0].OverheadCycles, 7489u);
  ASSERT_EQ(Parsed.Artifacts.size(), 2u);
  EXPECT_EQ(Parsed.Artifacts[0].Path, "out/residual prot.iprec");
  EXPECT_EQ(Parsed.Artifacts[1].Checksum, 0u);

  // Derived views used by ipas-db.
  EXPECT_EQ(Parsed.socTotal(), 17u);
  EXPECT_NEAR(Parsed.socRate(), 17.0 / 120.0, 1e-12);
  EXPECT_EQ(Parsed.overheadCycles(), 7489u);

  // The strong form: re-serializing reproduces the exact bytes.
  std::string Bytes2;
  obs::serializeSessionStore(Parsed, Bytes2);
  EXPECT_EQ(Bytes, Bytes2);
}

TEST(SessionStore, RejectsAbsurdElementCounts) {
  // A corrupt count field must be caught by the remaining-bytes guard,
  // not turned into a multi-gigabyte allocation: overwrite successive
  // 8-byte windows with 0xff — any huge count implies fewer bytes than
  // needed, so every such mutation must fail cleanly.
  std::string Bytes;
  obs::serializeSessionStore(sampleSessionStore(), Bytes);
  SessionStore S;
  std::string Err;
  for (size_t Pos = 20; Pos + 8 < Bytes.size(); Pos += 16) {
    std::string Bad = Bytes;
    for (int K = 0; K != 8; ++K)
      Bad[Pos + static_cast<size_t>(K)] = static_cast<char>(0xff);
    EXPECT_FALSE(obs::parseSessionStore(S, Bad, &Err)) << "at " << Pos;
  }
}

//===----------------------------------------------------------------------===//
// Artifact verification
//===----------------------------------------------------------------------===//

TEST(SessionStore, ArtifactChecksumMismatchDetected) {
  const char *Path = "testsession-artifact.tmp";
  {
    FILE *F = std::fopen(Path, "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("deterministic artifact payload\n", F);
    std::fclose(F);
  }

  SessionArtifact A;
  A.Kind = obs::SessionArtifactRecord;
  A.Path = Path;
  std::string Err;
  ASSERT_TRUE(obs::checksumFile(Path, A.Size, A.Checksum, &Err)) << Err;
  EXPECT_GT(A.Size, 0u);
  EXPECT_NE(A.Checksum, 0u);
  EXPECT_EQ(obs::verifySessionArtifact(A, "."), obs::ArtifactState::Ok);

  // Same-size tamper: only the checksum can catch it.
  {
    FILE *F = std::fopen(Path, "r+b");
    ASSERT_NE(F, nullptr);
    std::fputc('X', F);
    std::fclose(F);
  }
  EXPECT_EQ(obs::verifySessionArtifact(A, "."),
            obs::ArtifactState::Mismatch);

  // An unchecksummed entry (streamed trace) is never flagged.
  SessionArtifact T;
  T.Kind = obs::SessionArtifactTrace;
  T.Path = Path;
  EXPECT_EQ(obs::verifySessionArtifact(T, "."),
            obs::ArtifactState::Unchecked);

  std::remove(Path);
  EXPECT_EQ(obs::verifySessionArtifact(A, "."),
            obs::ArtifactState::Missing);
}

//===----------------------------------------------------------------------===//
// Campaign determinism
//===----------------------------------------------------------------------===//

const char *const SesSrc = R"(
double f(int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    acc = acc + 0.5 * i;
  }
  return acc;
}
)";

SessionStore campaignSession(const Module &M, unsigned Threads) {
  ModuleLayout Layout(M);
  FunctionHarness Harness("f", {RtValue::fromI64(24)});
  CampaignConfig CC;
  CC.NumRuns = 120;
  CC.Seed = testSeed();
  CC.NumThreads = Threads;
  CampaignResult R = runCampaign(Harness, Layout, CC);

  SessionBuildInputs In;
  In.M = &M;
  In.Result = &R;
  In.Tool = "ipas_tests";
  In.EntryFunction = "f";
  In.Label = "unit";
  In.Seed = CC.Seed;
  In.Threads = Threads;
  return buildSessionStore(In);
}

TEST(SessionStore, ManifestDeterministicAcrossThreadCounts) {
  IPAS_SEED_TRACE(testSeed());
  auto M = compile(SesSrc);
  ASSERT_TRUE(M);
  duplicateAllInstructions(*M);
  M->renumber();

  SessionStore S1 = campaignSession(*M, 1);
  SessionStore S4 = campaignSession(*M, 4);
  EXPECT_EQ(S1.Runs, 120u);

  // Wall-clock throughput stats are the documented nondeterministic
  // fields, and Threads is the config knob under test (it is recorded,
  // so it differs by construction); everything measured — hashes,
  // per-function tallies, outcome totals, fallback counters — must
  // match bit for bit.
  for (SessionStore *S : {&S1, &S4}) {
    S->WallSeconds = 0;
    S->RunsPerSec = 0;
    S->Heartbeats = 0;
    S->Threads = 0;
  }
  std::string B1, B4;
  obs::serializeSessionStore(S1, B1);
  obs::serializeSessionStore(S4, B4);
  EXPECT_EQ(B1, B4);

  // Per-function tallies partition the campaign exactly: the module has
  // one function, so its row carries all runs and all soc.
  ASSERT_EQ(S1.Functions.size(), 1u);
  EXPECT_EQ(S1.Functions[0].Name, "f");
  EXPECT_NE(S1.Functions[0].ContentHash, 0u);
  EXPECT_EQ(S1.Functions[0].Runs, S1.Runs);
  EXPECT_EQ(S1.Functions[0].Soc, S1.socTotal());
}

} // namespace

// Concurrent `ipas-db ingest` processes race on one history, each given
// the same distinct manifests starting at a different one. The ledger
// index lock serializes read-dedupe-append, so every manifest must land
// in ledger.idx exactly once, in every round.
TEST(SessionLedger, ConcurrentIngestsLandEachSessionOnce) {
  constexpr int NumManifests = 16, NumProcs = 4, NumRounds = 16;
  const std::string Dir = ::testing::TempDir() + "ipas-ledger-concurrent";
  std::vector<std::string> Paths;
  SessionStore S = sampleSessionStore();
  for (int K = 0; K != NumManifests; ++K) {
    S.SessionLabel = "session-" + std::to_string(K);
    Paths.push_back(Dir + "-" + std::to_string(K) + ".ipses");
    ASSERT_TRUE(obs::writeSessionStore(S, Paths.back()));
  }

  for (int Round = 0; Round != NumRounds; ++Round) {
    std::filesystem::remove_all(Dir);
    std::vector<pid_t> Pids;
    for (int P = 0; P != NumProcs; ++P) {
      std::vector<const char *> Argv = {IPAS_DB_PATH, "ingest", Dir.c_str()};
      for (int K = 0; K != NumManifests; ++K)
        Argv.push_back(Paths[(K + P * NumManifests / NumProcs) %
                             NumManifests]
                           .c_str());
      Argv.push_back(nullptr);
      // The sample's artifacts do not exist next to it; ingest warns
      // about that on stderr and keeps the manifest.
      posix_spawn_file_actions_t Io;
      posix_spawn_file_actions_init(&Io);
      posix_spawn_file_actions_addopen(&Io, 1, "/dev/null", O_WRONLY, 0);
      posix_spawn_file_actions_addopen(&Io, 2, "/dev/null", O_WRONLY, 0);
      pid_t Pid = 0;
      int Rc = posix_spawn(&Pid, IPAS_DB_PATH, &Io, nullptr,
                           const_cast<char **>(Argv.data()), environ);
      posix_spawn_file_actions_destroy(&Io);
      ASSERT_EQ(Rc, 0) << "cannot start " << IPAS_DB_PATH;
      Pids.push_back(Pid);
    }
    for (pid_t Pid : Pids) {
      int Status = 0;
      ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
      EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
          << "round " << Round;
    }

    std::ifstream Idx(Dir + "/ledger.idx");
    std::set<std::string> Ids;
    size_t Lines = 0;
    for (std::string Line; std::getline(Idx, Line); ++Lines)
      Ids.insert(Line.substr(0, Line.find(' ')));
    EXPECT_EQ(Lines, size_t(NumManifests)) << "round " << Round;
    EXPECT_EQ(Ids.size(), size_t(NumManifests)) << "round " << Round;
  }
}
