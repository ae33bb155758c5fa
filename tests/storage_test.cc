#include "version/storage.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "delta/codec.h"
#include "delta/delta_xml.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/hash.h"
#include "util/random.h"

namespace xydiff {
namespace {

namespace fs = std::filesystem;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xydiff_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(StorageTest, DocumentWithXidsRoundTrip) {
  XmlDocument doc = MustParse("<r><a>text</a><b k=\"v\"/></r>");
  doc.AssignInitialXids();
  doc.AllocateXid();  // Advance the allocator past the tree.
  fs::create_directories(dir_);
  const std::string xml = Dir() + "/doc.xml";
  const std::string meta = Dir() + "/doc.meta";
  XY_ASSERT_OK(SaveDocumentWithXids(doc, xml, meta));

  Result<XmlDocument> loaded = LoadDocumentWithXids(xml, meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(DocsEqualWithXids(doc, *loaded));
  EXPECT_EQ(loaded->next_xid(), doc.next_xid());
}

TEST_F(StorageTest, DocumentWithNonContiguousXids) {
  // After a few diffs, XIDs have holes; the XID-map must cover that.
  XmlDocument doc = MustParse("<r><a>t</a></r>");
  doc.root()->set_xid(50);
  doc.root()->child(0)->set_xid(7);
  doc.root()->child(0)->child(0)->set_xid(23);
  doc.set_next_xid(51);
  fs::create_directories(dir_);
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(DocsEqualWithXids(doc, *loaded));
}

TEST_F(StorageTest, IdAttributeDeclarationsSurvive) {
  XmlDocument doc = MustParse(
      "<!DOCTYPE r [<!ATTLIST p id ID #IMPLIED>]><r><p id=\"x\"/></r>");
  doc.AssignInitialXids();
  fs::create_directories(dir_);
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->dtd().IdAttributeFor("p"), nullptr);
}

TEST_F(StorageTest, RepositoryRoundTrip) {
  Rng rng(5);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < 4; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }

  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  Result<VersionRepository> loaded = LoadRepository(Dir());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->version_count(), repo.version_count());
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  // Every historical version reconstructs identically.
  for (int v = 1; v <= repo.version_count(); ++v) {
    Result<XmlDocument> original = repo.Checkout(v);
    Result<XmlDocument> reloaded = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(reloaded.ok()) << "version " << v << ": "
                               << reloaded.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*original, *reloaded)) << "version " << v;
  }
}

TEST_F(StorageTest, SaveTruncatesStaleChain) {
  Rng rng(6);
  DocGenOptions gen;
  gen.target_bytes = 1024;
  VersionRepository long_repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < 3; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(long_repo.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(long_repo.Commit(std::move(change->new_version)).ok());
  }
  XY_ASSERT_OK(SaveRepository(long_repo, Dir()));

  // Overwrite with a single-version repository; stale deltas must go.
  VersionRepository short_repo(GenerateDocument(&rng, gen));
  XY_ASSERT_OK(SaveRepository(short_repo, Dir()));
  Result<VersionRepository> loaded = LoadRepository(Dir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->version_count(), 1);
}

TEST_F(StorageTest, LoadMissingDirectoryFails) {
  Result<VersionRepository> loaded = LoadRepository(Dir() + "/nonexistent");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// A repository IS its MANIFEST: a directory holding only the
// pre-MANIFEST `current.xml` + `current.meta` pair is not a repository.
TEST_F(StorageTest, PreManifestLayoutIsNotARepository) {
  fs::create_directories(dir_);
  XmlDocument doc = MustParse("<r><a>text</a></r>");
  doc.AssignInitialXids();
  XY_ASSERT_OK(SaveDocumentWithXids(doc, Dir() + "/current.xml",
                                    Dir() + "/current.meta"));
  Result<VersionRepository> loaded = LoadRepository(Dir());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
      << loaded.status().ToString();
}

TEST_F(StorageTest, CorruptMetaRejected) {
  fs::create_directories(dir_);
  XmlDocument doc = MustParse("<r/>");
  doc.AssignInitialXids();
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  // Clobber the meta file.
  {
    std::ofstream bad(Dir() + "/d.meta", std::ios::trunc);
    bad << "garbage\n";
  }
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  EXPECT_FALSE(loaded.ok());
}

// --- recovery from out-of-band damage ---------------------------------
// These tests vandalize stored files directly (not through an Env):
// bit rot and truncation by other processes is exactly the damage the
// MANIFEST checksums exist to catch.

VersionRepository MakeRepo(uint64_t seed, int extra_versions) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 1024;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }
  return repo;
}

void FlipByte(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;  // Same size, different CRC.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST_F(StorageTest, BitFlippedDeltaQuarantinesUnreachableChain) {
  VersionRepository repo = MakeRepo(7, 4);  // 5 versions, 4 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // delta.000002.bin transforms version 2 -> 3; corrupting it makes
  // versions 1 and 2 unreachable (reconstruction walks backward).
  FlipByte(Dir() + "/delta.000002.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_TRUE(report.manifest_valid);
  EXPECT_EQ(report.dropped_deltas, 2u);
  EXPECT_EQ(report.recovered_version_count, 3);
  ASSERT_EQ(report.quarantined.size(), 2u) << report.ToString();
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000001.bin"));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000002.bin"));

  // The surviving suffix reloads byte-identically (XIDs included):
  // loaded version k is original version k + 2.
  EXPECT_EQ(loaded->version_count(), 3);
  for (int v = 1; v <= 3; ++v) {
    Result<XmlDocument> original = repo.Checkout(v + 2);
    Result<XmlDocument> recovered = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*original, *recovered)) << "version " << v;
  }

  // A reload of the healed store sees the quarantined deltas as simply
  // missing from the manifest-listed set and reports them again — the
  // store is degraded but stable, never a hybrid.
  Result<VersionRepository> again = LoadRepository(Dir());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(DocsEqualWithXids(again->current(), repo.current()));
}

TEST_F(StorageTest, TruncatedDeltaQuarantinesUnreachableChain) {
  VersionRepository repo = MakeRepo(8, 3);  // 4 versions, 3 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  {
    // Keep a syntactically broken prefix, as a torn write would.
    std::ofstream out(Dir() + "/delta.000001.bin",
                      std::ios::binary | std::ios::trunc);
    out << "XYDB";
  }

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 1u);
  EXPECT_EQ(loaded->version_count(), 3);
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000001.bin"));
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  for (int v = 1; v <= 3; ++v) {
    Result<XmlDocument> original = repo.Checkout(v + 1);
    Result<XmlDocument> recovered = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok());
    EXPECT_TRUE(DocsEqualWithXids(*original, *recovered)) << "version " << v;
  }
}

TEST_F(StorageTest, BitFlippedCurrentMetaQuarantinedAndReported) {
  VersionRepository repo = MakeRepo(9, 2);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/current.000001.meta");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  // No surviving fallback epoch: the newest version is genuinely gone,
  // and the loader must say so rather than fabricate one.
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(report.clean);
  EXPECT_TRUE(report.manifest_valid);
  ASSERT_EQ(report.quarantined.size(), 1u) << report.ToString();
  EXPECT_EQ(report.quarantined[0], "current.000001.meta");
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "current.000001.meta"));
  EXPECT_FALSE(report.notes.empty());
}

TEST_F(StorageTest, TruncatedCurrentXmlQuarantinedAndReported) {
  VersionRepository repo = MakeRepo(10, 1);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  XY_ASSERT_OK(SaveRepository(repo, Dir()));  // Second epoch, same chain.
  {
    std::ofstream out(Dir() + "/current.000002.xml",
                      std::ios::binary | std::ios::trunc);
    out << "<r";
  }

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  // The previous epoch's files were cleaned up after the second commit,
  // so there is no fallback; the report still pins down what was lost.
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  ASSERT_EQ(report.quarantined.size(), 1u) << report.ToString();
  EXPECT_EQ(report.quarantined[0], "current.000002.xml");
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "current.000002.xml"));
}

TEST_F(StorageTest, CorruptManifestSalvagesNewestEpoch) {
  VersionRepository repo = MakeRepo(11, 2);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/MANIFEST");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.manifest_valid);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(loaded->version_count(), repo.version_count());
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "MANIFEST"));
}

TEST_F(StorageTest, CleanLoadReportsClean) {
  VersionRepository repo = MakeRepo(12, 2);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.manifest_valid);
  EXPECT_FALSE(report.used_fallback);
  EXPECT_EQ(report.dropped_deltas, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.recovered_version_count, repo.version_count());
}

// --- reconstruction index persistence ---------------------------------

/// A repository with an active index deep enough for two skip levels
/// (9 versions = 8 chain deltas: spans 2, 4, and 8 all complete).
VersionRepository MakeIndexedRepo(uint64_t seed, int extra_versions) {
  VersionRepository repo = MakeRepo(seed, 0);
  EXPECT_TRUE(repo.EnsureReconstructionIndex().ok());
  Rng rng(seed + 1000);
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }
  return repo;
}

void ExpectAllVersionsEqual(const VersionRepository& expected,
                            const VersionRepository& actual) {
  ASSERT_EQ(actual.version_count(), expected.version_count());
  for (int v = 1; v <= expected.version_count(); ++v) {
    Result<XmlDocument> want = expected.Checkout(v);
    Result<XmlDocument> got = actual.Checkout(v);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << "version " << v << ": "
                          << got.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*want, *got)) << "version " << v;
  }
}

TEST_F(StorageTest, PersistedIndexSurvivesReload) {
  VersionRepository repo = MakeIndexedRepo(20, 8);
  ASSERT_EQ(repo.reconstruction_index().levels.size(), 3u);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  EXPECT_TRUE(fs::exists(dir_ / "checkpoint.000001.xml"));
  EXPECT_TRUE(fs::exists(dir_ / "skip.000002.000000.bin"));

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.clean);
  ASSERT_TRUE(loaded->reconstruction_index().checkpoint.has_value());
  EXPECT_EQ(loaded->reconstruction_index().levels.size(), 3u);

  // The loaded index actually drives reconstruction forward.
  CheckoutStats stats;
  Result<XmlDocument> v1 = loaded->Checkout(1, &stats);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(stats.forward);
  EXPECT_EQ(stats.applications, 0u);
  ExpectAllVersionsEqual(repo, *loaded);

  // A loaded repository keeps maintaining the index across commits and
  // re-saves: the common reopen-commit-save cycle stays O(log n).
  Rng rng(99);
  Result<SimulatedChange> change =
      SimulateChanges(loaded->current(), ChangeSimOptions{}, &rng);
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(loaded->Commit(std::move(change->new_version)).ok());
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  Result<VersionRepository> again = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(report.clean);
  ExpectAllVersionsEqual(*loaded, *again);
}

TEST_F(StorageTest, CorruptSkipFileDropsIndexKeepsChain) {
  VersionRepository repo = MakeIndexedRepo(21, 8);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/skip.000001.000000.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The chain itself is intact — versions are NOT dropped; only the
  // derived index is discarded and the bad file quarantined.
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 0u);
  EXPECT_EQ(loaded->version_count(), repo.version_count());
  EXPECT_FALSE(loaded->reconstruction_index().checkpoint.has_value());
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "skip.000001.000000.bin"));

  CheckoutStats stats;
  Result<XmlDocument> v1 = loaded->Checkout(1, &stats);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(stats.forward);  // Plain-chain fallback.
  ExpectAllVersionsEqual(repo, *loaded);

  // The degraded store re-saves and heals: the surviving in-memory
  // chain rebuilds its index on demand and persists it again.
  XY_ASSERT_OK(loaded->EnsureReconstructionIndex());
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  Result<VersionRepository> healed = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(healed->reconstruction_index().checkpoint.has_value());
  ExpectAllVersionsEqual(repo, *healed);
}

TEST_F(StorageTest, CorruptCheckpointDropsIndexKeepsChain) {
  VersionRepository repo = MakeIndexedRepo(22, 4);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/checkpoint.000001.meta");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 0u);
  EXPECT_FALSE(loaded->reconstruction_index().checkpoint.has_value());
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "checkpoint.000001.meta"));
  ExpectAllVersionsEqual(repo, *loaded);
}

// --- legacy XML delta chains ------------------------------------------

std::string TestHex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Rewrites one `file NAME SIZE CRC` manifest entry (and the manifest's
/// self-checksum) so the store references `new_name` instead — the
/// on-disk state a pre-codec version of this library would have left.
void RewriteManifestEntry(const fs::path& dir, const std::string& old_name,
                          const std::string& new_name,
                          const std::string& new_content) {
  std::string manifest;
  {
    std::ifstream in(dir / "MANIFEST", std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    manifest = buffer.str();
  }
  std::string body = manifest.substr(0, manifest.rfind("crc "));
  const size_t entry = body.find("file " + old_name + " ");
  ASSERT_NE(entry, std::string::npos) << body;
  const size_t entry_end = body.find('\n', entry);
  body.replace(entry, entry_end - entry,
               "file " + new_name + " " + std::to_string(new_content.size()) +
                   " " + TestHex64(Crc64(new_content)));
  {
    std::ofstream out(dir / "MANIFEST", std::ios::binary | std::ios::trunc);
    out << body << "crc " << TestHex64(Crc64(body)) << "\n";
  }
}

TEST_F(StorageTest, LegacyXmlDeltaLoadsAndUpgradesOnSave) {
  VersionRepository repo = MakeRepo(23, 3);  // 4 versions, 3 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));

  // Regress delta 2 to the legacy format: XML bytes on disk, manifest
  // entry rewritten, binary file gone — a mixed-format chain.
  Result<const Delta*> d2 = repo.DeltaFor(2);
  ASSERT_TRUE(d2.ok());
  const std::string xml = SerializeDelta(**d2);
  {
    std::ofstream out(dir_ / "delta.000002.xml",
                      std::ios::binary | std::ios::trunc);
    out << xml;
  }
  RewriteManifestEntry(dir_, "delta.000002.bin", "delta.000002.xml", xml);
  fs::remove(dir_ / "delta.000002.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.clean) << report.ToString();
  ExpectAllVersionsEqual(repo, *loaded);

  // The next save upgrades the whole chain to binary and the stale XML
  // file is cleaned up as unreferenced.
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  EXPECT_TRUE(fs::exists(dir_ / "delta.000002.bin"));
  EXPECT_FALSE(fs::exists(dir_ / "delta.000002.xml"));
  Result<VersionRepository> upgraded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_TRUE(report.clean);
  ExpectAllVersionsEqual(repo, *upgraded);
}

TEST_F(StorageTest, MixedFormatChainRecoversFromCorruption) {
  VersionRepository repo = MakeRepo(24, 4);  // 5 versions, 4 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // Delta 1 becomes legacy XML, then delta 3 rots: recovery must sever
  // versions 1-3 (dropping both formats' files) and keep 4-5.
  Result<const Delta*> d1 = repo.DeltaFor(1);
  ASSERT_TRUE(d1.ok());
  const std::string xml = SerializeDelta(**d1);
  {
    std::ofstream out(dir_ / "delta.000001.xml",
                      std::ios::binary | std::ios::trunc);
    out << xml;
  }
  RewriteManifestEntry(dir_, "delta.000001.bin", "delta.000001.xml", xml);
  fs::remove(dir_ / "delta.000001.bin");
  FlipByte(Dir() + "/delta.000003.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 3u);
  EXPECT_EQ(loaded->version_count(), 2);
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000001.xml"));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000003.bin"));
  for (int v = 1; v <= 2; ++v) {
    Result<XmlDocument> original = repo.Checkout(v + 3);
    Result<XmlDocument> recovered = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok());
    EXPECT_TRUE(DocsEqualWithXids(*original, *recovered)) << "version " << v;
  }
}

TEST_F(StorageTest, MetaTreeSizeMismatchRejected) {
  fs::create_directories(dir_);
  XmlDocument doc = MustParse("<r><a/></r>");
  doc.AssignInitialXids();
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  // Replace the XML with a differently sized tree.
  {
    std::ofstream bad(Dir() + "/d.xml", std::ios::trunc);
    bad << "<r><a/><b/></r>";
  }
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  EXPECT_FALSE(loaded.ok());
}


// --- incremental saves -------------------------------------------------
// A save fingerprints the repository's immutable stored forms (chain
// deltas, checkpoint pair, skip entries) once and afterwards trusts the
// memo instead of re-encoding. These tests hold it to the old contract:
// after every save, the store is exactly what a fresh encode of the
// whole repository would write.

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The `file NAME SIZE CRC` entries of `dir`'s live MANIFEST.
std::map<std::string, StoredFingerprint> ManifestEntries(const fs::path& dir) {
  std::map<std::string, StoredFingerprint> entries;
  std::istringstream manifest(ReadBytes(dir / "MANIFEST"));
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream fields(line);
    std::string keyword, name, crc;
    size_t size = 0;
    fields >> keyword >> name >> size >> crc;
    if (keyword == "file") {
      entries[name] = {size, std::stoull(crc, nullptr, 16)};
    }
  }
  return entries;
}

/// Every chain delta, checkpoint file and skip entry of `repo` is listed
/// in `dir`'s MANIFEST with the (size, CRC-64) of a fresh encode, the
/// file on disk holds exactly those bytes, and no other delta, skip or
/// checkpoint entry is listed.
void ExpectStoreMatchesFreshEncode(const VersionRepository& repo,
                                   const fs::path& dir) {
  std::map<std::string, std::string> expected;
  char name[64];
  for (size_t i = 0; i < repo.deltas().size(); ++i) {
    std::snprintf(name, sizeof(name), "delta.%06zu.bin", i + 1);
    expected[name] = EncodeDeltaBinary(repo.deltas()[i]);
  }
  const ReconstructionIndex& index = repo.reconstruction_index();
  if (index.checkpoint.has_value() && !repo.deltas().empty()) {
    // SaveDocumentWithXids writes the same xml/meta pair format.
    const fs::path fresh = dir.string() + "_fresh";
    fs::create_directories(fresh);
    XY_ASSERT_OK(SaveDocumentWithXids(*index.checkpoint,
                                      (fresh / "cp.xml").string(),
                                      (fresh / "cp.meta").string()));
    expected["checkpoint.000001.xml"] = ReadBytes(fresh / "cp.xml");
    expected["checkpoint.000001.meta"] = ReadBytes(fresh / "cp.meta");
    fs::remove_all(fresh);
    for (size_t level = 0; level < index.levels.size(); ++level) {
      for (size_t i = 0; i < index.levels[level].size(); ++i) {
        if (!index.levels[level][i].has_value()) continue;
        std::snprintf(name, sizeof(name), "skip.%06zu.%06zu.bin", level, i);
        expected[name] = EncodeDeltaBinary(*index.levels[level][i]);
      }
    }
  }

  const std::map<std::string, StoredFingerprint> listed =
      ManifestEntries(dir);
  size_t stored_forms = 0;
  for (const auto& [file, fingerprint] : listed) {
    if (file.rfind("current.", 0) != 0) ++stored_forms;
  }
  EXPECT_EQ(stored_forms, expected.size()) << dir;
  for (const auto& [file, bytes] : expected) {
    const auto it = listed.find(file);
    ASSERT_NE(it, listed.end()) << file << " not in the MANIFEST";
    EXPECT_EQ(it->second.size, bytes.size()) << file;
    EXPECT_EQ(it->second.crc, Crc64(bytes)) << file;
    EXPECT_TRUE(ReadBytes(dir / file) == bytes) << file << " on disk differs";
  }
}

/// Reloads `dir` and requires a clean, bit-exact copy of `repo`.
void ExpectReloadsBitExact(const VersionRepository& repo,
                           const std::string& dir) {
  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(dir, nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.clean) << report.ToString();
  ASSERT_EQ(loaded->deltas().size(), repo.deltas().size());
  for (size_t i = 0; i < repo.deltas().size(); ++i) {
    EXPECT_EQ(EncodeDeltaBinary(loaded->deltas()[i]),
              EncodeDeltaBinary(repo.deltas()[i]))
        << "delta " << i + 1;
  }
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  ExpectAllVersionsEqual(repo, *loaded);
}

void CommitOneChange(VersionRepository* repo, Rng* rng) {
  Result<SimulatedChange> change =
      SimulateChanges(repo->current(), ChangeSimOptions{}, rng);
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(repo->Commit(std::move(change->new_version)).ok());
}

TEST_F(StorageTest, IncrementalSavesMatchFreshEncode) {
  // An active index, so the checkpoint and skip entries (completed at
  // chain lengths 2, 4, 6, 8) are memoized alongside the chain.
  VersionRepository repo = MakeIndexedRepo(30, 0);
  Rng rng(31);
  for (int k = 0; k < 9; ++k) {
    CommitOneChange(&repo, &rng);
    XY_ASSERT_OK(SaveRepository(repo, Dir()));
    ExpectStoreMatchesFreshEncode(repo, dir_);
  }
  ASSERT_EQ(repo.reconstruction_index().levels.size(), 3u);
  ExpectReloadsBitExact(repo, Dir());
}

TEST_F(StorageTest, IncrementalBatchSavesMatchFreshEncode) {
  std::vector<VersionRepository> repos;
  repos.push_back(MakeIndexedRepo(32, 0));
  repos.push_back(MakeRepo(33, 0));
  Rng rng(34);
  for (int k = 0; k < 9; ++k) {
    std::vector<RepositorySaveSlot> slots;
    for (size_t r = 0; r < repos.size(); ++r) {
      CommitOneChange(&repos[r], &rng);
      slots.push_back({&repos[r], "slot" + std::to_string(r)});
    }
    XY_ASSERT_OK(SaveRepositoryBatch(slots, Dir()));
    for (size_t r = 0; r < repos.size(); ++r) {
      ExpectStoreMatchesFreshEncode(repos[r], dir_ / slots[r].subdirectory);
    }
  }
  for (size_t r = 0; r < repos.size(); ++r) {
    ExpectReloadsBitExact(repos[r], Dir() + "/slot" + std::to_string(r));
  }
}

TEST_F(StorageTest, SaveOverAnotherRepositoryRewritesDifferingFiles) {
  // Same chain length, so every file name collides; the contents differ.
  VersionRepository a = MakeIndexedRepo(35, 4);
  VersionRepository b = MakeIndexedRepo(36, 4);
  ASSERT_EQ(a.deltas().size(), b.deltas().size());
  // Both memos are filled by saves elsewhere before the stores collide.
  XY_ASSERT_OK(SaveRepository(a, Dir() + "/a"));
  XY_ASSERT_OK(SaveRepository(b, Dir() + "/b"));
  const std::string shared = Dir() + "/shared";
  XY_ASSERT_OK(SaveRepository(a, shared));
  XY_ASSERT_OK(SaveRepository(b, shared));
  ExpectStoreMatchesFreshEncode(b, shared);
  ExpectReloadsBitExact(b, shared);
  XY_ASSERT_OK(SaveRepository(a, shared));
  ExpectStoreMatchesFreshEncode(a, shared);
  ExpectReloadsBitExact(a, shared);
}

TEST_F(StorageTest, StoredFormRemovedBetweenSavesIsRewritten) {
  VersionRepository repo = MakeIndexedRepo(37, 4);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // Still listed, with matching bytes, in the MANIFEST the next save
  // reads — only the directory knows the files are gone.
  for (const char* name : {"delta.000002.bin", "skip.000000.000001.bin",
                           "checkpoint.000001.meta"}) {
    ASSERT_TRUE(fs::remove(dir_ / name)) << name;
  }
  Rng rng(38);
  CommitOneChange(&repo, &rng);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  ExpectStoreMatchesFreshEncode(repo, dir_);
  ExpectReloadsBitExact(repo, Dir());
}

}  // namespace
}  // namespace xydiff
