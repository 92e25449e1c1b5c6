//===- tests/TestStoreEnvelope.cpp - Sealed-container corruption suite ----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every obs store (`.iprec`, `.ipprof`, `.ipprop`, `.ipsum`, `.ipses`)
/// is a payload sealed in the container of obs/BinCodec.h, so one
/// value-parameterised suite checks every envelope corruption class on
/// every kind: each truncation prefix, bad magic, version 0 and
/// max+1, each flipped payload or checksum byte, trailing bytes, and the
/// exact kind-named diagnostic for each. It also pins the FNV-1a of each
/// kind's sample serialization, so a header or payload encoding change
/// that round-trips symmetrically still cannot slip through unnoticed,
/// and checks that a failed write leaves the previous store intact and
/// no temp file behind.
///
//===----------------------------------------------------------------------===//

#include "StoreSamples.h"

#include "obs/BinCodec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <ostream>

using namespace ipas;
using namespace ipas::testutil;

namespace {

constexpr size_t HeaderSize = 8 + 4 + 8;

/// One store kind, type-erased so a single suite drives all five.
struct StoreKind {
  std::string Ext;      ///< File extension; also the test-name suffix.
  std::string KindName; ///< How every envelope diagnostic names the kind.
  uint32_t MaxVersion;
  uint64_t PinnedFnv; ///< FNV-1a of the sample's file bytes.
  /// The file bytes of the sample (true) or a default-constructed store.
  std::function<std::string(bool Sample)> Bytes;
  std::function<bool(const std::string &Data, std::string *Err)> Parse;
  std::function<bool(const std::string &Path, std::string *Err)> WriteSample;
  std::function<bool(const std::string &Path, std::string *Err)> Read;
};

void PrintTo(const StoreKind &K, std::ostream *OS) { *OS << K.Ext; }

template <class Store>
StoreKind kind(std::string Ext, std::string KindName, uint32_t MaxVersion,
               uint64_t PinnedFnv, Store (*Sample)(),
               void (*Serialize)(const Store &, std::string &),
               bool (*Parse)(Store &, const std::string &, std::string *),
               bool (*Write)(const Store &, const std::string &,
                             std::string *),
               bool (*Read)(Store &, const std::string &, std::string *)) {
  return StoreKind{
      std::move(Ext), std::move(KindName), MaxVersion, PinnedFnv,
      [=](bool UseSample) {
        std::string B;
        Serialize(UseSample ? Sample() : Store(), B);
        return B;
      },
      [=](const std::string &Data, std::string *Err) {
        Store S;
        return Parse(S, Data, Err);
      },
      [=](const std::string &Path, std::string *Err) {
        return Write(Sample(), Path, Err);
      },
      [=](const std::string &Path, std::string *Err) {
        Store S;
        return Read(S, Path, Err);
      }};
}

const StoreKind Kinds[] = {
    kind("iprec", "record store", obs::RecordStoreVersion,
         0x2008ac756824452dull, sampleRecordStore, obs::serializeRecordStore,
         obs::parseRecordStore, obs::writeRecordStore, obs::readRecordStore),
    kind("ipprof", "profile store", obs::ProfileStoreVersion,
         0x501aba252dce2207ull, sampleProfileStore,
         obs::serializeProfileStore, obs::parseProfileStore,
         obs::writeProfileStore, obs::readProfileStore),
    kind("ipprop", "propagation store", obs::PropStoreVersion,
         0x2daa17dbdbfa8a7cull, samplePropagationStore,
         obs::serializePropagationStore, obs::parsePropagationStore,
         obs::writePropagationStore, obs::readPropagationStore),
    kind("ipsum", "summary store", obs::SummaryStoreVersion,
         0xa67f8036c55cd9afull, sampleSummaryStore,
         obs::serializeSummaryStore, obs::parseSummaryStore,
         obs::writeSummaryStore, obs::readSummaryStore),
    kind("ipses", "session manifest", obs::SessionStoreVersion,
         0x75edcf6bd4204f36ull, sampleSessionStore,
         obs::serializeSessionStore, obs::parseSessionStore,
         obs::writeSessionStore, obs::readSessionStore),
};

class StoreEnvelope : public ::testing::TestWithParam<StoreKind> {};

TEST_P(StoreEnvelope, SampleBytesArePinned) {
  const StoreKind &K = GetParam();
  std::string Bytes = K.Bytes(true);
  std::string Err;
  EXPECT_TRUE(K.Parse(Bytes, &Err)) << Err;
  EXPECT_EQ(obs::fnv1a(Bytes.data(), Bytes.size()), K.PinnedFnv)
      << "the ." << K.Ext << " encoding changed; if intended, bump its "
      << "version and re-pin";
}

TEST_P(StoreEnvelope, RejectsEveryTruncation) {
  const StoreKind &K = GetParam();
  std::string Bytes = K.Bytes(true);
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::string Err;
    EXPECT_FALSE(K.Parse(Bytes.substr(0, Len), &Err))
        << "prefix of " << Len << " bytes parsed";
    if (Len < HeaderSize)
      EXPECT_EQ(Err, "not a " + K.KindName + " (file too small)");
    else
      EXPECT_EQ(Err.rfind(K.KindName + " truncated (header promises ", 0),
                0u)
          << Err;
  }
}

TEST_P(StoreEnvelope, RejectsBadMagic) {
  const StoreKind &K = GetParam();
  std::string Bytes = K.Bytes(true);
  for (size_t Pos = 0; Pos != 8; ++Pos) {
    std::string Bad = Bytes, Err;
    Bad[Pos] ^= 0x20;
    EXPECT_FALSE(K.Parse(Bad, &Err)) << "magic byte " << Pos;
    EXPECT_EQ(Err, "not a " + K.KindName + " (bad magic)");
  }
}

TEST_P(StoreEnvelope, RejectsVersionZeroAndNewer) {
  const StoreKind &K = GetParam();
  std::string Bytes = K.Bytes(true);
  // The version is the little-endian u32 right after the 8-byte magic.
  for (uint32_t V : {0u, K.MaxVersion + 1}) {
    std::string Bad = Bytes, Err;
    for (int I = 0; I != 4; ++I)
      Bad[8 + I] = static_cast<char>((V >> (8 * I)) & 0xff);
    EXPECT_FALSE(K.Parse(Bad, &Err)) << "version " << V;
    EXPECT_EQ(Err, "unsupported " + K.KindName + " version " +
                       std::to_string(V) + " (reader supports up to " +
                       std::to_string(K.MaxVersion) + ")");
  }
}

TEST_P(StoreEnvelope, RejectsEveryFlippedPayloadOrChecksumByte) {
  const StoreKind &K = GetParam();
  std::string Bytes = K.Bytes(true);
  for (size_t Pos = HeaderSize; Pos != Bytes.size(); ++Pos) {
    std::string Bad = Bytes, Err;
    Bad[Pos] ^= 0x40;
    EXPECT_FALSE(K.Parse(Bad, &Err)) << "flip at " << Pos;
    EXPECT_EQ(Err, K.KindName + " checksum mismatch (corrupt file)");
  }
}

TEST_P(StoreEnvelope, RejectsTrailingBytes) {
  const StoreKind &K = GetParam();
  std::string Bytes = K.Bytes(true), Err;
  // A file is exactly one store: appended bytes break the length promise.
  EXPECT_FALSE(K.Parse(Bytes + "x", &Err));
  EXPECT_EQ(Err, K.KindName + " truncated (header promises " +
                     std::to_string(Bytes.size() - HeaderSize - 8) +
                     " payload bytes)");
}

TEST_P(StoreEnvelope, FailedWriteKeepsThePreviousStore) {
  const StoreKind &K = GetParam();
  namespace fs = std::filesystem;
  std::string Path = ::testing::TempDir() + "envelope-keep." + K.Ext;
  std::string Tmp = Path + ".tmp", Err;
  fs::remove_all(Tmp);
  std::string Previous = K.Bytes(false);
  ASSERT_TRUE(obs::writeFile(Path, Previous, &Err)) << Err;

  // A directory squatting on the temp name makes the next write fail
  // before it can touch the store.
  fs::create_directory(Tmp);
  EXPECT_FALSE(K.WriteSample(Path, &Err));
  EXPECT_EQ(Err, "cannot open '" + Path + "' for writing");
  std::string After;
  ASSERT_TRUE(obs::readFile(Path, After, &Err)) << Err;
  EXPECT_EQ(After, Previous);
  EXPECT_TRUE(K.Read(Path, &Err)) << Err;

  // Once the path is clear the write lands and leaves no temp file.
  fs::remove_all(Tmp);
  ASSERT_TRUE(K.WriteSample(Path, &Err)) << Err;
  ASSERT_TRUE(obs::readFile(Path, After, &Err)) << Err;
  EXPECT_EQ(After, K.Bytes(true));
  EXPECT_FALSE(fs::exists(Tmp));
  fs::remove(Path);
}

TEST(StoreFile, FailedRenameRemovesTheTempFile) {
  namespace fs = std::filesystem;
  // Renaming a file onto a directory fails after the temp file exists.
  std::string Path = ::testing::TempDir() + "envelope-dir-target", Err;
  fs::remove_all(Path);
  fs::create_directory(Path);
  EXPECT_FALSE(obs::writeFile(Path, "bytes", &Err));
  EXPECT_EQ(Err, "cannot rename '" + Path + ".tmp' onto '" + Path + "'");
  EXPECT_FALSE(fs::exists(Path + ".tmp"));
  EXPECT_TRUE(fs::is_directory(Path));
  fs::remove_all(Path);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StoreEnvelope, ::testing::ValuesIn(Kinds),
                         [](const ::testing::TestParamInfo<StoreKind> &I) {
                           return I.param.Ext;
                         });

} // namespace
