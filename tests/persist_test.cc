/// Tests for the persistence and hot-swap stack: the byte codec and CRC
/// (util/serialize.h, util/crc32.h), the Fs seam with deterministic fault
/// injection (util/fs.h), the artifact container (core/artifact.h),
/// Pipeline::Save/Load bit-parity for qppnet and mscn, a corruption matrix
/// (every damaged artifact fails with a *typed* Status, never a crash), a
/// crash-consistency sweep (a save killed at every injected fault point
/// leaves the previously published artifact loadable), the golden
/// backward-compat gate, and the RCU hot-swap layer (serve/model_swap.h)
/// under a live AsyncServer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/artifact.h"
#include "core/pipeline.h"
#include "harness/context.h"
#include "nn/kernels.h"
#include "serve/model_swap.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fs.h"
#include "util/serialize.h"
#include "util/status.h"

namespace qcfe {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "qcfe_persist_" + name;
}

// ------------------------------------------------------------------ crc32

TEST(Crc32Test, KnownAnswers) {
  // The CRC-32/IEEE check value (reversed poly 0xEDB88320).
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
  EXPECT_NE(Crc32(std::string("a")), Crc32(std::string("b")));
}

// ------------------------------------------------------------- byte codec

TEST(SerializeTest, RoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutBool(true);
  w.PutBool(false);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutF64(-0.0);
  w.PutF64(std::nan(""));
  w.PutF64(1.0 / 3.0);
  w.PutString("hello");
  const std::string bytes = w.TakeBytes();

  ByteReader r(bytes);
  uint8_t u8 = 0;
  bool b = false;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f = 0.0;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(r.ReadBool(&b).ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(r.ReadBool(&b).ok());
  EXPECT_FALSE(b);
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  EXPECT_EQ(i64, -42);
  ASSERT_TRUE(r.ReadF64(&f).ok());
  EXPECT_TRUE(std::signbit(f));  // -0.0 round-trips exactly
  ASSERT_TRUE(r.ReadF64(&f).ok());
  EXPECT_TRUE(std::isnan(f));  // NaN bit pattern survives
  ASSERT_TRUE(r.ReadF64(&f).ok());
  EXPECT_EQ(f, 1.0 / 3.0);
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializeTest, UnderrunIsDataLoss) {
  ByteWriter w;
  w.PutU32(7);
  const std::string bytes = w.TakeBytes();
  ByteReader r(bytes);
  uint64_t u64 = 0;
  Status status = r.ReadU64(&u64);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, HostileLengthPrefixIsDataLossNotAllocation) {
  // A string claiming 2^60 bytes must be rejected before any allocation.
  ByteWriter w;
  w.PutU64(1ull << 60);
  const std::string bytes = w.TakeBytes();
  ByteReader r(bytes);
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kDataLoss);

  ByteReader r2(bytes);
  uint64_t count = 0;
  EXPECT_EQ(r2.ReadCount(&count, 8).code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, BoolByteAboveOneIsDataLoss) {
  const std::string bytes("\x02", 1);
  ByteReader r(bytes);
  bool b = false;
  EXPECT_EQ(r.ReadBool(&b).code(), StatusCode::kDataLoss);
}

TEST(StatusTest, WithContextComposes) {
  Status inner = Status::DataLoss("inner");
  Status outer = inner.WithContext("outer");
  EXPECT_EQ(outer.code(), StatusCode::kDataLoss);
  EXPECT_EQ(outer.message(), "outer: inner");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

// --------------------------------------------------------------- Fs seam

TEST(FsTest, AtomicWriteFileRoundTrip) {
  Fs* fs = Fs::Default();
  const std::string path = TempPath("atomic_rt.bin");
  const std::string payload("\x00\x01\xFFqcfe", 7);
  ASSERT_TRUE(AtomicWriteFile(fs, path, payload).ok());
  EXPECT_FALSE(fs->FileExists(path + ".tmp"));
  Result<std::string> read = fs->ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  ASSERT_TRUE(fs->RemoveFile(path).ok());
}

TEST(FsTest, ReadMissingFileIsIoError) {
  Result<std::string> read =
      Fs::Default()->ReadFile(TempPath("does_not_exist.bin"));
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(FsTest, FaultAtEveryOpFailsTypedAndPreservesTarget) {
  const std::string path = TempPath("faulty.bin");
  const std::string v1 = "version-one";
  const std::string v2 = "version-two-longer";
  FaultInjectingFs fs(Fs::Default());
  fs.Arm({});
  ASSERT_TRUE(AtomicWriteFile(&fs, path, v1).ok());
  const int64_t clean_ops = fs.op_count();
  ASSERT_GE(clean_ops, 4);  // open, append, sync, close, rename

  for (int64_t k = 1; k <= clean_ops; ++k) {
    FaultInjectionConfig config;
    config.fail_at_op = k;
    fs.Arm(config);
    Status status = AtomicWriteFile(&fs, path, v2);
    ASSERT_FALSE(status.ok()) << "op " << k;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    // The previously published content is untouched by the failed save.
    fs.Arm({});
    Result<std::string> read = fs.ReadFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, v1) << "op " << k;
  }
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(FsTest, TornWriteLeavesPrefixAndFails) {
  const std::string path = TempPath("torn.bin");
  FaultInjectingFs fs(Fs::Default());
  FaultInjectionConfig config;
  config.torn_write_at_byte = 3;
  fs.Arm(config);
  Result<std::unique_ptr<WritableFile>> file = fs.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  Status status = (*file)->Append(std::string("abcdef"));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  ASSERT_TRUE((*file)->Close().ok());
  fs.Arm({});
  Result<std::string> read = fs.ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "abc");  // exactly the prefix up to the tear point
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(FsTest, ShortReadSucceedsWithTruncatedBytes) {
  const std::string path = TempPath("short.bin");
  ASSERT_TRUE(AtomicWriteFile(Fs::Default(), path, "0123456789").ok());
  FaultInjectingFs fs(Fs::Default());
  FaultInjectionConfig config;
  config.short_read_bytes = 4;
  fs.Arm(config);
  Result<std::string> read = fs.ReadFile(path);
  ASSERT_TRUE(read.ok());  // the read *succeeds*: CRCs must catch this later
  EXPECT_EQ(*read, "0123");
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(FsTest, FailingFsyncFailsTheAtomicWrite) {
  const std::string path = TempPath("fsync.bin");
  FaultInjectingFs fs(Fs::Default());
  FaultInjectionConfig config;
  config.fail_fsync = true;
  fs.Arm(config);
  Status status = AtomicWriteFile(&fs, path, "payload");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(Fs::Default()->FileExists(path));
}

// -------------------------------------------------------- artifact codec

TEST(ArtifactTest, EncodeDecodeRoundTrip) {
  std::vector<artifact::Section> sections;
  sections.push_back({artifact::kFingerprint, "fp-bytes"});
  sections.push_back({artifact::kModel, std::string("\x00\x01", 2)});
  const std::string bytes = artifact::Encode(sections);

  std::vector<artifact::Section> decoded;
  ASSERT_TRUE(artifact::Decode(bytes, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(artifact::Find(decoded, artifact::kFingerprint)->payload,
            "fp-bytes");
  EXPECT_EQ(artifact::Find(decoded, artifact::kModel)->payload.size(), 2u);
  EXPECT_EQ(artifact::Find(decoded, artifact::kStats), nullptr);
}

TEST(ArtifactTest, UnknownSectionIdsAreCarriedNotRejected) {
  // Additive evolution: a reader must tolerate section ids it has never
  // heard of, as long as their framing and CRC are intact.
  std::vector<artifact::Section> sections;
  sections.push_back({artifact::kFingerprint, "fp"});
  sections.push_back({9999u, "from-the-future"});
  std::vector<artifact::Section> decoded;
  ASSERT_TRUE(artifact::Decode(artifact::Encode(sections), &decoded).ok());
  EXPECT_EQ(decoded.size(), 2u);
}

TEST(ArtifactTest, DamageAndSkewAreTyped) {
  std::vector<artifact::Section> sections;
  sections.push_back({artifact::kModel, "model-bytes-here"});
  const std::string good = artifact::Encode(sections);
  std::vector<artifact::Section> out;

  {  // wrong magic
    std::string bad = good;
    bad[0] ^= 0xFF;
    EXPECT_EQ(artifact::Decode(bad, &out).code(), StatusCode::kDataLoss);
  }
  {  // unsupported format version: intact bytes from a different world
    std::string bad = good;
    bad[4] = 2;
    EXPECT_EQ(artifact::Decode(bad, &out).code(),
              StatusCode::kFailedPrecondition);
  }
  {  // payload flip: per-section CRC
    std::string bad = good;
    bad[12 + 12 + 4] ^= 0x01;  // header + section header + payload byte
    EXPECT_EQ(artifact::Decode(bad, &out).code(), StatusCode::kDataLoss);
  }
  {  // trailing garbage
    std::string bad = good + "x";
    EXPECT_EQ(artifact::Decode(bad, &out).code(), StatusCode::kDataLoss);
  }
  {  // duplicate section ids
    std::vector<artifact::Section> dup;
    dup.push_back({artifact::kModel, "a"});
    dup.push_back({artifact::kModel, "b"});
    EXPECT_EQ(artifact::Decode(artifact::Encode(dup), &out).code(),
              StatusCode::kDataLoss);
  }
  // Truncation at every byte length: always typed, never a crash or read
  // past the end (ASan/UBSan enforce the second half).
  for (size_t n = 0; n < good.size(); ++n) {
    Status status = artifact::Decode(good.substr(0, n), &out);
    ASSERT_FALSE(status.ok()) << "length " << n;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "length " << n;
  }
}

// ------------------------------------------------- shared fitted context

struct SharedFixtures {
  std::unique_ptr<BenchmarkContext> ctx;
  std::vector<PlanSample> train, test;
  std::shared_ptr<const Pipeline> qpp;   // full QCFE around qppnet
  std::shared_ptr<const Pipeline> mscn;  // full QCFE around mscn, fine snaps
};

/// One expensive fit for the whole binary. The mscn pipeline is fitted
/// under the scalar kernel tier so the golden fixture regenerated from it
/// is machine-independent (see GoldenArtifact below).
SharedFixtures* Fixtures() {
  static SharedFixtures* fixtures = [] {
    auto* f = new SharedFixtures();
    HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
    opt.corpus_size = 200;
    opt.num_envs = 2;
    auto ctx = BenchmarkContext::Create(opt);
    QCFE_CHECK(ctx.ok(), "persist_test benchmark context failed");
    f->ctx = std::move(ctx.value());
    f->ctx->Split(200, &f->train, &f->test);

    PipelineConfig qpp_config;
    qpp_config.estimator = "qppnet";
    qpp_config.pre_reduction_epochs = 3;
    qpp_config.train.epochs = 5;
    auto qpp = f->ctx->FitPipeline(qpp_config, f->train);
    QCFE_CHECK(qpp.ok(), "persist_test qppnet fit failed");
    f->qpp = std::shared_ptr<const Pipeline>(std::move(qpp.value()));

    PipelineConfig mscn_config;
    mscn_config.estimator = "mscn";
    mscn_config.snapshot_granularity = SnapshotGranularity::kOperatorTable;
    mscn_config.pre_reduction_epochs = 3;
    mscn_config.train.epochs = 8;
    kernels::ScopedKernelIsa scalar(kernels::KernelIsa::kScalar);
    auto mscn = f->ctx->FitPipeline(mscn_config, f->train);
    QCFE_CHECK(mscn.ok(), "persist_test mscn fit failed");
    f->mscn = std::shared_ptr<const Pipeline>(std::move(mscn.value()));
    return f;
  }();
  return fixtures;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// ------------------------------------------------------------- save/load

TEST(PersistTest, SaveLoadPredictsBitIdenticallyQppNet) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("qpp.qcfa");
  ASSERT_TRUE(f->qpp->Save(path).ok());

  auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                               &f->ctx->templates, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto want = f->qpp->PredictBatch(f->test);
  auto got = (*loaded)->PredictBatch(f->test);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(Bits(*want), Bits(*got));
  EXPECT_EQ((*loaded)->name(), f->qpp->name());
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(PersistTest, SaveLoadPredictsBitIdenticallyMscn) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("mscn.qcfa");
  ASSERT_TRUE(f->mscn->Save(path).ok());

  auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                               &f->ctx->templates, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto want = f->mscn->PredictBatch(f->test);
  auto got = (*loaded)->PredictBatch(f->test);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(Bits(*want), Bits(*got));
  // The restored chain is structurally complete: snapshots at the fitted
  // granularity, reduction mask, stats.
  ASSERT_NE((*loaded)->snapshot_store(), nullptr);
  EXPECT_EQ((*loaded)->snapshot_store()->size(), 2u);
  EXPECT_GT((*loaded)->reduction().ReductionRatio(), 0.0);
  EXPECT_EQ((*loaded)->train_stats().loss_curve.size(),
            f->mscn->train_stats().loss_curve.size());
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(PersistTest, LoadThenResaveIsByteIdentical) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("resave1.qcfa");
  const std::string path2 = TempPath("resave2.qcfa");
  ASSERT_TRUE(f->mscn->Save(path).ok());
  auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                               &f->ctx->templates, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE((*loaded)->Save(path2).ok());
  auto a = Fs::Default()->ReadFile(path);
  auto b = Fs::Default()->ReadFile(path2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b) << "re-saved artifact differs from the original";
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
  ASSERT_TRUE(Fs::Default()->RemoveFile(path2).ok());
}

// -------------------------------------------------- corruption matrix

/// Walks the container framing and returns every section-boundary offset:
/// section header start, payload start, payload end, CRC end.
std::vector<size_t> SectionBoundaries(const std::string& bytes) {
  std::vector<size_t> boundaries = {0, 4, 8, 12};
  size_t off = 12;
  while (off + 12 <= bytes.size()) {
    uint64_t len = 0;
    std::memcpy(&len, bytes.data() + off + 4, 8);
    boundaries.push_back(off);
    boundaries.push_back(off + 12);
    boundaries.push_back(off + 12 + static_cast<size_t>(len));
    off += 12 + static_cast<size_t>(len) + 4;
    boundaries.push_back(off);
  }
  return boundaries;
}

TEST(PersistTest, CorruptionMatrixEveryFailureIsTyped) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("corrupt.qcfa");
  ASSERT_TRUE(f->mscn->Save(path).ok());
  auto bytes = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());

  auto load_bytes = [&](const std::string& damaged) {
    const std::string p = TempPath("corrupt_case.qcfa");
    QCFE_CHECK(AtomicWriteFile(Fs::Default(), p, damaged).ok(),
               "corruption-matrix fixture write failed");
    auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                                 &f->ctx->templates, p);
    QCFE_CHECK(Fs::Default()->RemoveFile(p).ok(),
               "corruption-matrix fixture remove failed");
    return loaded.ok() ? Status::OK() : loaded.status();
  };

  // Truncate at every section boundary (and one byte around each).
  for (size_t boundary : SectionBoundaries(*bytes)) {
    for (size_t cut : {boundary, boundary > 0 ? boundary - 1 : 0}) {
      if (cut >= bytes->size()) continue;
      Status status = load_bytes(bytes->substr(0, cut));
      ASSERT_FALSE(status.ok()) << "cut at " << cut;
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << "cut at " << cut << ": " << status.ToString();
    }
  }

  // Flip one byte in the middle of every section payload: the per-section
  // CRC must catch each flip as kDataLoss.
  {
    size_t off = 12;
    while (off + 12 <= bytes->size()) {
      uint64_t len = 0;
      std::memcpy(&len, bytes->data() + off + 4, 8);
      if (len > 0) {
        std::string damaged = *bytes;
        damaged[off + 12 + static_cast<size_t>(len) / 2] ^= 0x40;
        Status status = load_bytes(damaged);
        ASSERT_FALSE(status.ok()) << "flip in section at " << off;
        EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
      }
      off += 12 + static_cast<size_t>(len) + 4;
    }
  }

  {  // magic rewritten
    std::string damaged = *bytes;
    damaged[0] = 'X';
    EXPECT_EQ(load_bytes(damaged).code(), StatusCode::kDataLoss);
  }
  {  // format version from the future: intact bytes, different world
    std::string damaged = *bytes;
    damaged[4] = 9;
    EXPECT_EQ(load_bytes(damaged).code(), StatusCode::kFailedPrecondition);
  }

  // Fingerprint tampering with a *recomputed* CRC: the container framing is
  // intact, so these must fail on fingerprint validation, not checksums.
  std::vector<artifact::Section> sections;
  ASSERT_TRUE(artifact::Decode(*bytes, &sections).ok());
  auto retamper = [&](void (*mutate)(FitFingerprint*)) {
    std::vector<artifact::Section> copy = sections;
    artifact::Section* fp_section = nullptr;
    for (artifact::Section& s : copy) {
      if (s.id == artifact::kFingerprint) fp_section = &s;
    }
    QCFE_CHECK(fp_section != nullptr, "fingerprint section missing");
    FitFingerprint fp;
    ByteReader r(fp_section->payload);
    QCFE_CHECK(artifact::DecodeFingerprint(&r, &fp).ok(),
               "fingerprint decode failed");
    mutate(&fp);
    ByteWriter w;
    artifact::EncodeFingerprint(fp, &w);
    fp_section->payload = w.TakeBytes();
    return load_bytes(artifact::Encode(copy));
  };

  // Schema-hash skew: the artifact belongs to a different catalog.
  EXPECT_EQ(retamper([](FitFingerprint* fp) { fp->schema_hash ^= 1; }).code(),
            StatusCode::kFailedPrecondition);
  // Env-set skew: fit for environments the caller does not serve.
  EXPECT_EQ(retamper([](FitFingerprint* fp) {
              fp->env_ids.push_back(99);
            }).code(),
            StatusCode::kFailedPrecondition);
  // Estimator flip: disagrees with the config section -> corruption.
  EXPECT_EQ(retamper([](FitFingerprint* fp) {
              fp->estimator = "qppnet";
            }).code(),
            StatusCode::kDataLoss);

  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(PersistTest, ShortReadIsCaughtByFraming) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("shortload.qcfa");
  ASSERT_TRUE(f->qpp->Save(path).ok());
  auto full = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(full.ok());

  FaultInjectingFs fs(Fs::Default());
  FaultInjectionConfig config;
  config.short_read_bytes = static_cast<int64_t>(full->size() / 2);
  fs.Arm(config);
  auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                               &f->ctx->templates, path, &fs);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(PersistTest, EnvironmentSetMismatchIsFailedPrecondition) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("envskew.qcfa");
  ASSERT_TRUE(f->qpp->Save(path).ok());
  std::vector<Environment> fewer(f->ctx->envs.begin(),
                                 f->ctx->envs.end() - 1);
  auto loaded =
      Pipeline::Load(f->ctx->db.get(), &fewer, &f->ctx->templates, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

// --------------------------------------------------- crash consistency

TEST(PersistTest, CrashConsistencySweepOldArtifactSurvivesEveryFault) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("crash.qcfa");
  FaultInjectingFs fs(Fs::Default());

  // Publish v1 cleanly and count the operations of a clean save.
  fs.Arm({});
  ASSERT_TRUE(f->qpp->Save(path, &fs).ok());
  auto v1_bytes = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(v1_bytes.ok());
  fs.Arm({});
  ASSERT_TRUE(f->qpp->Save(path, &fs).ok());
  const int64_t clean_ops = fs.op_count();

  // Kill the save at every operation: the published artifact must stay
  // byte-identical and loadable after every single failure point.
  for (int64_t k = 1; k <= clean_ops; ++k) {
    FaultInjectionConfig config;
    config.fail_at_op = k;
    fs.Arm(config);
    Status status = f->qpp->Save(path, &fs);
    ASSERT_FALSE(status.ok()) << "op " << k;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();

    fs.Arm({});
    auto after = Fs::Default()->ReadFile(path);
    ASSERT_TRUE(after.ok()) << "op " << k;
    ASSERT_TRUE(*after == *v1_bytes) << "op " << k;
    auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                                 &f->ctx->templates, path, &fs);
    ASSERT_TRUE(loaded.ok()) << "op " << k << ": "
                             << loaded.status().ToString();
  }

  // Torn writes at a few byte offsets mid-artifact behave the same.
  for (int64_t tear : {16, 1000, 20000}) {
    FaultInjectionConfig config;
    config.torn_write_at_byte = tear;
    fs.Arm(config);
    Status status = f->qpp->Save(path, &fs);
    ASSERT_FALSE(status.ok()) << "tear " << tear;
    fs.Arm({});
    auto after = Fs::Default()->ReadFile(path);
    ASSERT_TRUE(after.ok());
    ASSERT_TRUE(*after == *v1_bytes) << "tear " << tear;
  }

  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

// ------------------------------------------------------ drift baselines

/// Re-encodes artifact `bytes` with its drift-baseline section replaced by
/// `entries` (env id, baseline mean q-error). Every section keeps a valid
/// CRC, so only Load's own validation can reject the table.
std::string WithBaselines(
    const std::string& bytes,
    const std::vector<std::pair<int64_t, double>>& entries) {
  std::vector<artifact::Section> sections;
  EXPECT_TRUE(artifact::Decode(bytes, &sections).ok());
  ByteWriter w;
  w.PutU64(entries.size());
  for (const auto& [env_id, q] : entries) {
    w.PutI64(env_id);
    w.PutF64(q);
  }
  sections.erase(std::remove_if(sections.begin(), sections.end(),
                                [](const artifact::Section& s) {
                                  return s.id == artifact::kAdaptBaseline;
                                }),
                 sections.end());
  sections.push_back({artifact::kAdaptBaseline, w.TakeBytes()});
  return artifact::Encode(sections);
}

TEST(PersistTest, HostileDriftBaselinesAreDataLoss) {
  // A NaN baseline would silently disable the mean-ratio drift trip for
  // its environment (std::max(NaN, 1.0) is NaN, and no mean exceeds a NaN
  // threshold), and an env id outside int would be truncated onto another
  // environment. Load must reject both, and a repeated env id, as damage.
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("baselines.qcfa");
  ASSERT_TRUE(f->qpp->Save(path).ok());
  auto bytes = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  auto load = [&](const std::vector<std::pair<int64_t, double>>& entries) {
    EXPECT_TRUE(AtomicWriteFile(Fs::Default(), path,
                                WithBaselines(*bytes, entries))
                    .ok());
    return Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                          &f->ctx->templates, path);
  };

  auto valid = load({{0, 1.25}, {1, 1.0}});
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ((*valid)->env_baseline_qerror(),
            (std::map<int, double>{{0, 1.25}, {1, 1.0}}));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<std::pair<int64_t, double>>> hostile = {
      {{0, nan}},
      {{0, 1.5}, {1, nan}},
      {{0, inf}},
      {{0, 0.5}},
      {{0, -1.0}},
      {{0, 1.5}, {0, 1.5}},
      {{int64_t{1} << 32, 1.5}},
      {{std::numeric_limits<int64_t>::min(), 1.5}},
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    auto loaded = load(hostile[i]);
    ASSERT_FALSE(loaded.ok()) << "hostile table " << i << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "hostile table " << i << ": " << loaded.status().ToString();
  }
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

// ------------------------------------------------------ golden artifact

const char* GoldenPath() {
  return QCFE_TESTDATA_DIR "/golden_artifact_v1.qcfa";
}

/// Backward-compat gate: the committed v1 artifact must load and re-save
/// bit-identically forever (format evolution adds sections or bumps the
/// version — it never silently reinterprets old bytes).
///
/// Regenerate (only when intentionally re-baselining) with:
///   QCFE_WRITE_GOLDEN=1 ./build/tests/persist_test
///       --gtest_filter=PersistTest.GoldenArtifactLoadsAndResavesIdentically
/// The fixture is an mscn pipeline with the full QCFE config (fine-grained
/// snapshots + reduction: every section populated), fitted under the scalar
/// kernel tier for machine independence.
TEST(PersistTest, GoldenArtifactLoadsAndResavesIdentically) {
  SharedFixtures* f = Fixtures();
  // The fingerprint records the kernel tier current at *save* time, so the
  // whole write/load/re-save cycle runs scalar-pinned: the committed bytes
  // and the echo are identical on every machine.
  kernels::ScopedKernelIsa scalar(kernels::KernelIsa::kScalar);
  if (std::getenv("QCFE_WRITE_GOLDEN") != nullptr) {
    ASSERT_TRUE(f->mscn->Save(GoldenPath()).ok());
    GTEST_LOG_(INFO) << "wrote golden fixture " << GoldenPath();
  }
  ASSERT_TRUE(Fs::Default()->FileExists(GoldenPath()))
      << "golden fixture missing; see the regeneration comment above";

  auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                               &f->ctx->templates, GoldenPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Loaded golden predicts bit-identically to the live fit: the fixture's
  // weights came from the same deterministic corpus + scalar-tier training.
  auto want = f->mscn->PredictBatch(f->test);
  auto got = (*loaded)->PredictBatch(f->test);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(Bits(*want), Bits(*got));

  // Echo gate: re-saving the loaded pipeline reproduces the committed bytes
  // exactly (the writer is a pure echo of loaded values).
  const std::string resaved = TempPath("golden_echo.qcfa");
  ASSERT_TRUE((*loaded)->Save(resaved).ok());
  auto a = Fs::Default()->ReadFile(GoldenPath());
  auto b = Fs::Default()->ReadFile(resaved);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(*a == *b) << "golden artifact no longer round-trips";
  ASSERT_TRUE(Fs::Default()->RemoveFile(resaved).ok());
}

// ------------------------------------------------------------- hot swap

TEST(SwapTest, SwappableModelPublishesVersions) {
  SharedFixtures* f = Fixtures();
  SwappableModel models;
  uint64_t version = 123;
  EXPECT_EQ(models.Current(&version), nullptr);
  EXPECT_EQ(version, 0u);
  EXPECT_EQ(models.CurrentModel(), nullptr);

  EXPECT_EQ(models.Publish(f->qpp), 1u);
  std::shared_ptr<const Pipeline> v1 = models.Current(&version);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(v1.get(), f->qpp.get());

  EXPECT_EQ(models.Publish(f->mscn), 2u);
  EXPECT_EQ(models.version(), 2u);
  // The v1 borrower still holds a live qppnet pipeline.
  EXPECT_EQ(v1.get(), f->qpp.get());
  std::shared_ptr<const CostModel> model = models.CurrentModel(&version);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(model.get(), &f->mscn->model());
}

TEST(SwapTest, ServerWithNoPublishedModelFailsTyped) {
  SharedFixtures* f = Fixtures();
  SwappableModel models;
  AsyncServeConfig config;
  config.max_batch = 1;
  auto server = Pipeline::ServeAsync(&models, config);
  auto future = server->Submit(*f->test[0].plan, f->test[0].env_id);
  Result<double> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  server->Shutdown();
  EXPECT_EQ(server->stats().failed, 1u);
}

TEST(SwapTest, LoadAndSwapPublishesAndServesBitIdentically) {
  SharedFixtures* f = Fixtures();
  const std::string path = TempPath("swap_in.qcfa");
  ASSERT_TRUE(f->mscn->Save(path).ok());

  SwappableModel models;
  models.Publish(f->qpp);
  AsyncServeConfig config;
  config.max_batch = 4;
  auto server = Pipeline::ServeAsync(&models, config);

  SwapOptions options;
  options.probe.assign(f->test.begin(), f->test.begin() + 8);
  auto expected = f->mscn->PredictBatch(options.probe);
  ASSERT_TRUE(expected.ok());
  options.expected = *expected;

  auto swapped = LoadAndSwap(f->ctx->db.get(), &f->ctx->envs,
                             &f->ctx->templates, path, options, &models,
                             server.get());
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(models.version(), 2u);

  // Requests after the swap are answered by the new version, bit-identical
  // to the saved pipeline.
  std::vector<std::future<Result<double>>> futures;
  for (size_t i = 0; i < 4; ++i) {
    futures.push_back(server->Submit(*f->test[i].plan, f->test[i].env_id));
  }
  auto want = f->mscn->PredictBatch(
      std::vector<PlanSample>(f->test.begin(), f->test.begin() + 4));
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> got = futures[i].get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Bits({*got})[0], Bits({(*want)[i]})[0]) << i;
  }
  server->Shutdown();
  AsyncServeStats stats = server->stats();
  EXPECT_EQ(stats.swaps_published, 1u);
  EXPECT_EQ(stats.swaps_rejected, 0u);
  EXPECT_EQ(stats.model_version, 2u);
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(SwapTest, FailedSwapLeavesOldModelServingBitIdentically) {
  SharedFixtures* f = Fixtures();
  const std::string good_path = TempPath("swap_good.qcfa");
  const std::string bad_path = TempPath("swap_bad.qcfa");
  ASSERT_TRUE(f->mscn->Save(good_path).ok());
  auto bytes = Fs::Default()->ReadFile(good_path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.size() / 2] ^= 0x10;  // CRC failure somewhere inside
  ASSERT_TRUE(AtomicWriteFile(Fs::Default(), bad_path, damaged).ok());

  SwappableModel models;
  models.Publish(f->qpp);
  AsyncServeConfig config;
  config.max_batch = 2;
  auto server = Pipeline::ServeAsync(&models, config);

  auto swapped = LoadAndSwap(f->ctx->db.get(), &f->ctx->envs,
                             &f->ctx->templates, bad_path, {}, &models,
                             server.get());
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kDataLoss)
      << swapped.status().ToString();
  EXPECT_EQ(models.version(), 1u);  // old model untouched

  auto f1 = server->Submit(*f->test[0].plan, f->test[0].env_id);
  auto f2 = server->Submit(*f->test[1].plan, f->test[1].env_id);
  auto want = f->qpp->PredictBatch(
      std::vector<PlanSample>(f->test.begin(), f->test.begin() + 2));
  ASSERT_TRUE(want.ok());
  Result<double> r1 = f1.get();
  Result<double> r2 = f2.get();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(Bits({*r1})[0], Bits({(*want)[0]})[0]);
  EXPECT_EQ(Bits({*r2})[0], Bits({(*want)[1]})[0]);

  server->Shutdown();
  AsyncServeStats stats = server->stats();
  EXPECT_EQ(stats.swaps_rejected, 1u);
  EXPECT_EQ(stats.swaps_published, 0u);
  ASSERT_TRUE(Fs::Default()->RemoveFile(good_path).ok());
  ASSERT_TRUE(Fs::Default()->RemoveFile(bad_path).ok());
}

TEST(SwapTest, HotSwapStressServesOnlyWholeVersions) {
  SharedFixtures* f = Fixtures();
  // Two versions with observably different predictions per plan.
  const size_t kProbe = 8;
  std::vector<PlanSample> probe(f->test.begin(), f->test.begin() + kProbe);
  auto qpp_want = f->qpp->PredictBatch(probe);
  auto mscn_want = f->mscn->PredictBatch(probe);
  ASSERT_TRUE(qpp_want.ok() && mscn_want.ok());
  const std::vector<uint64_t> qpp_bits = Bits(*qpp_want);
  const std::vector<uint64_t> mscn_bits = Bits(*mscn_want);

  SwappableModel models;
  models.Publish(f->qpp);
  AsyncServeConfig config;
  config.max_batch = 16;
  config.max_delay_micros = 200;
  config.num_workers = 2;
  auto server = Pipeline::ServeAsync(&models, config);

  // Caller threads hammer the server while the main thread swaps versions
  // back and forth. Every result must be bit-identical to exactly one
  // version's prediction for its plan — a torn batch or half-applied swap
  // would produce a value matching neither.
  constexpr int kCallers = 4;
  constexpr int kRoundsPerCaller = 50;
  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerCaller; ++round) {
        const size_t i = static_cast<size_t>((t + round) % kProbe);
        auto future = server->Submit(*probe[i].plan, probe[i].env_id);
        Result<double> result = future.get();
        if (!result.ok()) {
          ++mismatches;
          continue;
        }
        uint64_t bits = 0;
        double value = *result;
        std::memcpy(&bits, &value, sizeof(bits));
        if (bits != qpp_bits[i] && bits != mscn_bits[i]) ++mismatches;
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    models.Publish(swap % 2 == 0 ? f->mscn : f->qpp);
  }
  for (std::thread& caller : callers) caller.join();
  server->Shutdown();
  EXPECT_EQ(mismatches.load(), 0);
  AsyncServeStats stats = server->stats();
  EXPECT_EQ(stats.served, static_cast<uint64_t>(kCallers * kRoundsPerCaller));
  EXPECT_GE(stats.model_version, 1u);
}

}  // namespace
}  // namespace qcfe
