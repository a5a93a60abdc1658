// Tests for the memory-governance layer: per-query accounting scopes
// (BufferPool::QueryScope), budget enforcement with disk spill of cold idle
// step outputs and fault-back on next read, the per-scope spill segment's
// on-disk footprint and cleanup, the out-of-core TPC-H
// differential (a capped run must be bit-identical to the uncapped run and
// its resident peak must stay inside the budget), the scheduler-level spill
// counters, and the shared checked TQP_* env-var parser.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault.h"
#include "compile/compiler.h"
#include "runtime/runtime.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace tqp {
namespace {

using BufferScope = BufferPool::QueryScope;

void ExpectTensorsIdentical(const Tensor& got, const Tensor& want,
                            const std::string& what) {
  ASSERT_EQ(got.dtype(), want.dtype()) << what;
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (want.numel() > 0) {
    ASSERT_EQ(std::memcmp(got.raw_data(), want.raw_data(),
                          static_cast<size_t>(want.nbytes())),
              0)
        << what << ": payload differs";
  }
}

void ExpectTablesIdentical(const Table& got, const Table& want,
                           const std::string& what) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (int c = 0; c < want.num_columns(); ++c) {
    ASSERT_EQ(got.schema().field(c).name, want.schema().field(c).name) << what;
    ExpectTensorsIdentical(got.column(c).tensor(), want.column(c).tensor(),
                           what + " column " + want.schema().field(c).name);
  }
}

/// A 32768-row int64 tensor (exactly one 256 KiB size class) filled with a
/// seeded pattern, allocated under whatever scope is ambient.
Tensor PatternTensor(int64_t seed) {
  Tensor t = Tensor::Empty(DType::kInt64, 32768, 1).ValueOrDie();
  int64_t* p = t.mutable_data<int64_t>();
  for (int64_t i = 0; i < t.rows(); ++i) p[i] = seed * 1000003 + i;
  return t;
}

constexpr int64_t kBlock = 256 << 10;  // PatternTensor's pool block size

/// Points TMPDIR (where scopes open their spill segment) at a fresh
/// directory for the object's lifetime, so a test sees only its own spill
/// files; restores TMPDIR and removes the directory on destruction.
class ScopedSpillDir {
 public:
  ScopedSpillDir() {
    const char* prev = std::getenv("TMPDIR");
    if (prev != nullptr) prev_ = prev;
    std::string pattern =
        (prev != nullptr && *prev != '\0' ? std::string(prev) : "/tmp") +
        "/tqp-segtest-XXXXXX";
    EXPECT_NE(::mkdtemp(pattern.data()), nullptr) << pattern;
    dir_ = pattern;
    ::setenv("TMPDIR", dir_.c_str(), 1);
  }
  ~ScopedSpillDir() {
    if (prev_) {
      ::setenv("TMPDIR", prev_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::filesystem::remove_all(dir_);
  }
  ScopedSpillDir(const ScopedSpillDir&) = delete;
  ScopedSpillDir& operator=(const ScopedSpillDir&) = delete;

  /// Whether the directory's filesystem frees the blocks of a punched hole.
  /// The spill tier punches best effort, so per-record block checks need it.
  bool PunchesHoles() const {
    const std::string probe = dir_ + "/punch-probe";
    const int fd = ::open(probe.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd < 0) return false;
    const std::vector<char> bytes(2 * 4096, 'x');
    bool punched =
        ::pwrite(fd, bytes.data(), bytes.size(), 0) ==
            static_cast<ssize_t>(bytes.size()) &&
        ::fsync(fd) == 0;
    struct stat before {};
    struct stat after {};
    punched = punched && ::fstat(fd, &before) == 0 &&
              ::fallocate(fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE, 0,
                          4096) == 0 &&
              ::fstat(fd, &after) == 0 && after.st_blocks < before.st_blocks;
    ::close(fd);
    ::unlink(probe.c_str());
    return punched;
  }

  /// Spill files currently in the directory.
  std::vector<std::string> SpillFiles() const {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().rfind("tqp-spill-", 0) == 0) {
        files.push_back(entry.path().string());
      }
    }
    return files;
  }

 private:
  std::string dir_;
  std::optional<std::string> prev_;
};

/// stat(2) of `path`; a missing file fails the test and reads as empty.
struct stat StatOrFail(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st;
}

/// Bytes the filesystem has allocated to `path` (st_blocks), which hole
/// punching and truncation lower while the apparent size may stay put.
int64_t AllocatedBytes(const std::string& path) {
  return static_cast<int64_t>(StatOrFail(path).st_blocks) * 512;
}

int64_t ApparentBytes(const std::string& path) {
  return static_cast<int64_t>(StatOrFail(path).st_size);
}

// ---- env parser -------------------------------------------------------------

TEST(EnvParserTest, ValidValueParses) {
  ::setenv("TQP_TEST_ENV_VALID", "12", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_VALID", 7), 12);
  ::unsetenv("TQP_TEST_ENV_VALID");
}

TEST(EnvParserTest, UnsetAndEmptyFallBack) {
  ::unsetenv("TQP_TEST_ENV_UNSET");
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_UNSET", 7), 7);
  ::setenv("TQP_TEST_ENV_EMPTY", "", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_EMPTY", 7), 7);
  ::unsetenv("TQP_TEST_ENV_EMPTY");
}

TEST(EnvParserTest, GarbageFallsBackInsteadOfTruncating) {
  // atoi would silently yield 0 / 12 here; the checked parser must refuse.
  ::setenv("TQP_TEST_ENV_GARBAGE", "lots", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_GARBAGE", 7), 7);
  ::setenv("TQP_TEST_ENV_TRAILING", "12mb", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_TRAILING", 7), 7);
  ::unsetenv("TQP_TEST_ENV_GARBAGE");
  ::unsetenv("TQP_TEST_ENV_TRAILING");
}

TEST(EnvParserTest, NegativeOutOfRangeAndOverflowFallBack) {
  ::setenv("TQP_TEST_ENV_NEG", "-3", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_NEG", 7, 0), 7);
  ::setenv("TQP_TEST_ENV_BIG", "999", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_BIG", 7, 0, 256), 7);
  ::setenv("TQP_TEST_ENV_OVERFLOW", "99999999999999999999999", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_OVERFLOW", 7), 7);
  ::unsetenv("TQP_TEST_ENV_NEG");
  ::unsetenv("TQP_TEST_ENV_BIG");
  ::unsetenv("TQP_TEST_ENV_OVERFLOW");
}

TEST(EnvParserTest, TrailingWhitespaceAccepted) {
  ::setenv("TQP_TEST_ENV_SPACE", " 12 ", 1);
  EXPECT_EQ(EnvInt64OrDefault("TQP_TEST_ENV_SPACE", 7), 12);
  ::unsetenv("TQP_TEST_ENV_SPACE");
}

// ---- QueryScope accounting --------------------------------------------------

TEST(QueryScopeTest, ChargesAndDischargesAmbientAllocations) {
  BufferScope scope;  // accounting only, no budget
  {
    BufferScope::Attach attach(&scope);
    Tensor a = PatternTensor(1);
    Tensor b = PatternTensor(2);
    const QueryMemoryStats mid = scope.stats();
    EXPECT_EQ(mid.live_bytes, 2 * kBlock);
    EXPECT_EQ(mid.peak_live_bytes, 2 * kBlock);
  }
  // Tensors died inside the block: everything discharged, peak kept.
  const QueryMemoryStats after = scope.stats();
  EXPECT_EQ(after.live_bytes, 0);
  EXPECT_EQ(after.peak_live_bytes, 2 * kBlock);
  EXPECT_EQ(after.spill_events, 0);
}

TEST(QueryScopeTest, ChargesTheQuarterOctaveClass) {
  // An SF 0.1 lineitem-sized int64 column (4,795,416 B) is charged its
  // 5 MiB class, not the 8 MiB power of two above it.
  BufferScope scope;
  {
    BufferScope::Attach attach(&scope);
    Tensor column = Tensor::Empty(DType::kInt64, 599427, 1).ValueOrDie();
    EXPECT_EQ(column.nbytes(), 4795416);
    EXPECT_EQ(scope.stats().live_bytes, int64_t{5} << 20);
  }
  EXPECT_EQ(scope.stats().live_bytes, 0);
  EXPECT_EQ(scope.stats().peak_live_bytes, int64_t{5} << 20);
}

TEST(QueryScopeTest, AllocationsOutsideAttachAreNotCharged) {
  BufferScope scope;
  Tensor a = PatternTensor(1);  // no scope ambient
  EXPECT_EQ(scope.stats().live_bytes, 0);
}

TEST(QueryScopeTest, BufferOutlivingScopeDischargesSafely) {
  Tensor survivor;
  {
    BufferScope scope;
    BufferScope::Attach attach(&scope);
    survivor = PatternTensor(3);
    EXPECT_EQ(scope.stats().live_bytes, kBlock);
  }
  // The scope is gone; dropping the tensor must not crash (shared ledger).
  survivor = Tensor();
}

// ---- eviction order and fault-back -----------------------------------------

TEST(QueryScopeTest, EvictsColdFirstAndFaultsBackBitIdentical) {
  // Budget of five blocks: three registered idle values, two reference
  // clones, and then scratch allocations that force evictions one by one.
  BufferScope scope(5 * kBlock);
  BufferScope::Attach attach(&scope);

  std::vector<Tensor> values(3);
  values[0] = PatternTensor(10);  // registered first = coldest
  values[1] = PatternTensor(11);
  values[2] = PatternTensor(12);
  Tensor want0 = values[0].Clone().ValueOrDie();
  Tensor want1 = values[1].Clone().ValueOrDie();
  const uint64_t id0 = scope.AddSpillable(&values[0]);
  const uint64_t id1 = scope.AddSpillable(&values[1]);
  const uint64_t id2 = scope.AddSpillable(&values[2]);
  ASSERT_NE(id0, 0u);
  ASSERT_NE(id1, 0u);
  ASSERT_NE(id2, 0u);
  ASSERT_EQ(scope.stats().live_bytes, 5 * kBlock);  // exactly at budget
  ASSERT_EQ(scope.stats().spill_events, 0);

  // Each new block must displace exactly one value, coldest first.
  Tensor scratch1 = PatternTensor(13);
  EXPECT_FALSE(values[0].defined()) << "coldest value must spill first";
  EXPECT_TRUE(values[1].defined());
  EXPECT_TRUE(values[2].defined());
  Tensor scratch2 = PatternTensor(14);
  EXPECT_FALSE(values[1].defined()) << "next-coldest value spills second";
  EXPECT_TRUE(values[2].defined()) << "warmest value must stay resident";
  QueryMemoryStats mem = scope.stats();
  EXPECT_EQ(mem.spill_events, 2);
  EXPECT_EQ(mem.spilled_now_bytes, 2 * kBlock);
  EXPECT_LE(mem.live_bytes, 5 * kBlock);
  EXPECT_LE(mem.peak_live_bytes, 5 * kBlock);
  EXPECT_EQ(mem.budget_overruns, 0);

  // Fault value 0 back in: resident again, bit-identical payload; the
  // coldest resident unpinned value (value 2) makes room for it.
  TQP_CHECK_OK(scope.Pin(id0));
  ASSERT_TRUE(values[0].defined());
  ExpectTensorsIdentical(values[0], want0, "faulted value 0");
  EXPECT_FALSE(values[2].defined()) << "fault-back must evict, not overrun";
  mem = scope.stats();
  EXPECT_EQ(mem.fault_events, 1);
  EXPECT_LE(mem.live_bytes, 5 * kBlock);
  EXPECT_LE(mem.peak_live_bytes, 5 * kBlock);
  EXPECT_EQ(mem.budget_overruns, 0);
  scope.Unpin(id0);

  // Fault value 1 back too, then drop everything (files disappear with the
  // records; Drop tolerates both resident and on-disk states).
  TQP_CHECK_OK(scope.Pin(id1));
  ExpectTensorsIdentical(values[1], want1, "faulted value 1");
  scope.Unpin(id1);
  scope.Drop(id0);
  scope.Drop(id1);
  scope.Drop(id2);
  EXPECT_EQ(scope.stats().budget_overruns, 0);
}

TEST(QueryScopeTest, PinnedValuesAreNeverEvicted) {
  BufferScope scope(2 * kBlock);
  BufferScope::Attach attach(&scope);
  std::vector<Tensor> values(1);
  values[0] = PatternTensor(20);
  const uint64_t id = scope.AddSpillable(&values[0]);
  TQP_CHECK_OK(scope.Pin(id));
  // Over budget with the only candidate pinned: the allocation proceeds and
  // the overrun is counted instead of evicting under a reader.
  Tensor scratch1 = PatternTensor(21);
  Tensor scratch2 = PatternTensor(22);
  EXPECT_TRUE(values[0].defined());
  const QueryMemoryStats mem = scope.stats();
  EXPECT_EQ(mem.spill_events, 0);
  EXPECT_GT(mem.budget_overruns, 0);
  scope.Unpin(id);
  scope.Drop(id);
}

TEST(QueryScopeTest, DropDeletesSpillFileWithoutFaulting) {
  ScopedSpillDir dir;
  {
    BufferScope scope(1 * kBlock);
    BufferScope::Attach attach(&scope);
    std::vector<Tensor> values(1);
    values[0] = PatternTensor(30);
    const uint64_t id = scope.AddSpillable(&values[0]);
    Tensor scratch = PatternTensor(31);  // forces the registered value out
    ASSERT_FALSE(values[0].defined());
    EXPECT_EQ(scope.stats().spill_events, 1);
    const std::vector<std::string> files = dir.SpillFiles();
    ASSERT_EQ(files.size(), 1u);
    EXPECT_GE(AllocatedBytes(files[0]), kBlock);
    scope.Drop(id);  // value released while on disk: no fault-back
    EXPECT_EQ(scope.stats().fault_events, 0);
    EXPECT_EQ(scope.stats().spilled_now_bytes, 0);
    EXPECT_EQ(AllocatedBytes(files[0]), 0)
        << "a dropped value's bytes must leave the disk with it";
  }
  EXPECT_TRUE(dir.SpillFiles().empty()) << "the scope must unlink its segment";
}

// ---- spill segment -----------------------------------------------------------

TEST(SpillSegmentTest, OneFilePerScopeHoldingOnlyCurrentlySpilledBytes) {
  ScopedSpillDir dir;
  // Reference payloads, built before the scope attaches so they are not
  // charged to it.
  const Tensor want1 = PatternTensor(81);
  const Tensor want2 = PatternTensor(82);
  {
    BufferScope scope(3 * kBlock);
    BufferScope::Attach attach(&scope);
    std::vector<Tensor> values(3);
    values[0] = PatternTensor(80);
    values[1] = PatternTensor(81);
    values[2] = PatternTensor(82);
    const uint64_t id0 = scope.AddSpillable(&values[0]);
    const uint64_t id1 = scope.AddSpillable(&values[1]);
    const uint64_t id2 = scope.AddSpillable(&values[2]);
    EXPECT_TRUE(dir.SpillFiles().empty())
        << "the segment opens on the first eviction, not with the scope";
    {
      // Three blocks of scratch over a full budget push all three values
      // out, one append each.
      Tensor scratch1 = PatternTensor(83);
      Tensor scratch2 = PatternTensor(84);
      Tensor scratch3 = PatternTensor(85);
    }
    ASSERT_EQ(scope.stats().spill_events, 3);
    const std::vector<std::string> files = dir.SpillFiles();
    ASSERT_EQ(files.size(), 1u) << "every eviction appends to one segment";
    const std::string segment = files[0];
    const int64_t full = AllocatedBytes(segment);
    EXPECT_GE(full, 3 * kBlock);
    EXPECT_EQ(ApparentBytes(segment), 3 * kBlock);

    // Fault value 1 back: bit-identical, and its range is punched out while
    // values 0 and 2 stay readable around it; dropping value 0 frees its
    // range without a fault.
    const bool punches = dir.PunchesHoles();
    TQP_CHECK_OK(scope.Pin(id1));
    ExpectTensorsIdentical(values[1], want1, "faulted value 1");
    scope.Unpin(id1);
    if (punches) {
      EXPECT_LE(AllocatedBytes(segment), full - kBlock);
    }
    scope.Drop(id0);
    if (punches) {
      EXPECT_LE(AllocatedBytes(segment), full - 2 * kBlock);
    }
    // Value 2 faults back intact; the segment is then empty.
    TQP_CHECK_OK(scope.Pin(id2));
    ExpectTensorsIdentical(values[2], want2, "faulted value 2");
    scope.Unpin(id2);
    EXPECT_EQ(scope.stats().spilled_now_bytes, 0);
    EXPECT_EQ(AllocatedBytes(segment), 0)
        << "nothing on disk: the segment must give all its blocks back";
    EXPECT_EQ(dir.SpillFiles().size(), 1u);

    // The emptied segment is reused from offset 0.
    {
      Tensor scratch1 = PatternTensor(86);
      Tensor scratch2 = PatternTensor(87);
    }
    EXPECT_FALSE(values[1].defined());
    EXPECT_EQ(dir.SpillFiles().size(), 1u);
    EXPECT_EQ(ApparentBytes(segment), kBlock);
    TQP_CHECK_OK(scope.Pin(id1));
    ExpectTensorsIdentical(values[1], want1, "value 1 after re-spill");
    scope.Unpin(id1);
    scope.Drop(id1);
    scope.Drop(id2);
    EXPECT_EQ(scope.stats().budget_overruns, 0);
  }
  EXPECT_TRUE(dir.SpillFiles().empty()) << "~QueryScope must unlink the segment";
}

TEST(SpillSegmentTest, FailedThirdAppendLeavesEarlierRecordsIntact) {
  ScopedSpillDir dir;
  const Tensor want0 = PatternTensor(90);
  const Tensor want1 = PatternTensor(91);
  const Tensor want2 = PatternTensor(92);
  // Writes 1 and 2 succeed; the third append fails on all of its in-place
  // attempts, so the third eviction is a hard failure.
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(
      "spill_write:after=2,limit=3"));
  {
    BufferScope scope(3 * kBlock);
    BufferScope::Attach attach(&scope);
    std::vector<Tensor> values(3);
    values[0] = PatternTensor(90);
    values[1] = PatternTensor(91);
    values[2] = PatternTensor(92);
    const uint64_t id0 = scope.AddSpillable(&values[0]);
    const uint64_t id1 = scope.AddSpillable(&values[1]);
    const uint64_t id2 = scope.AddSpillable(&values[2]);
    {
      Tensor scratch1 = PatternTensor(93);
      Tensor scratch2 = PatternTensor(94);
      Tensor scratch3 = PatternTensor(95);
      EXPECT_EQ(FaultInjector::Global()->fired(FaultSite::kSpillWrite), 3);
      TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
      EXPECT_EQ(scope.stats().spill_events, 2);
      EXPECT_GT(scope.stats().budget_overruns, 0);
      ASSERT_TRUE(values[2].defined()) << "a failed append must not drop data";
      ExpectTensorsIdentical(values[2], want2, "value 2 after failed append");
      const std::vector<std::string> files = dir.SpillFiles();
      ASSERT_EQ(files.size(), 1u);
      EXPECT_EQ(ApparentBytes(files[0]), 2 * kBlock)
          << "the failed append must not extend the segment";

      // Once its backoff passes, value 2 evicts again and lands right after
      // value 1: the failed append did not advance the end offset.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      Tensor scratch4 = PatternTensor(96);
      ASSERT_FALSE(values[2].defined());
      EXPECT_EQ(ApparentBytes(files[0]), 3 * kBlock);
    }
    TQP_CHECK_OK(scope.Pin(id0));
    ExpectTensorsIdentical(values[0], want0, "value 0 after failed append");
    scope.Unpin(id0);
    TQP_CHECK_OK(scope.Pin(id1));
    ExpectTensorsIdentical(values[1], want1, "value 1 after failed append");
    scope.Unpin(id1);
    TQP_CHECK_OK(scope.Pin(id2));
    ExpectTensorsIdentical(values[2], want2, "value 2 after its retry");
    scope.Unpin(id2);
    scope.Drop(id0);
    scope.Drop(id1);
    scope.Drop(id2);
  }
  EXPECT_TRUE(dir.SpillFiles().empty());
}

// ---- gauge-asserted residency bound ----------------------------------------

TEST(SpillResidencyTest, IdleStepOutputsBoundedAtQuarterOfUnspilledPeak) {
  // Sixteen independent breaker chains whose materialized outputs all sit
  // idle until a final combine chain consumes them one by one — the shape
  // the spill tier governs completely (cross-step accumulation, small
  // per-step pinned sets). Capped at 25% of the unspilled peak, the run
  // must stay bit-identical, never exceed the budget (gauge-asserted:
  // budget_overruns == 0 and scope peak <= budget), and actually spill.
  constexpr int kChains = 16;
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  AttrMap add;
  add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
  std::vector<int> outs;
  for (int i = 0; i < kChains; ++i) {
    const int doubled = program->AddNode(OpType::kBinary, {x, x}, add);
    outs.push_back(program->AddNode(OpType::kCumSum, {doubled}, {}));
  }
  int acc = outs[0];
  for (int i = 1; i < kChains; ++i) {
    const int sum = program->AddNode(OpType::kBinary, {acc, outs[i]}, add);
    acc = program->AddNode(OpType::kCumSum, {sum}, {});
  }
  program->MarkOutput(acc);

  const int64_t n = 1 << 18;  // 2 MiB per f64 column
  Tensor xt = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    xt.mutable_data<double>()[i] = static_cast<double>(i % 613);
  }

  for (int threads : {1, 2}) {
    ExecOptions options;
    options.num_threads = threads;
    auto exec =
        MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();

    // The reference runs under a budget it never reaches, so its schedule is
    // the capped run's one step at a time: unbudgeted, two independent
    // chains overlap and pin two working sets at once, which would raise the
    // peak the budget below is derived from. Morsel parallelism inside each
    // step stays on.
    int64_t uncapped_peak = 0;
    std::vector<Tensor> reference;
    {
      BufferScope scope(int64_t{1} << 40);
      BufferScope::Attach attach(&scope);
      reference = exec->Run({xt}).ValueOrDie();
      ASSERT_EQ(scope.stats().spill_events, 0);
      uncapped_peak = scope.stats().peak_live_bytes;
    }
    // The idle chain outputs dominate: the unspilled peak must hold most of
    // the kChains materialized columns.
    ASSERT_GT(uncapped_peak, kChains / 2 * (n * 8));

    const int64_t budget = uncapped_peak / 4;
    QueryMemoryStats mem;
    std::vector<Tensor> capped;
    {
      BufferScope scope(budget);
      BufferScope::Attach attach(&scope);
      capped = exec->Run({xt}).ValueOrDie();
      mem = scope.stats();
    }
    const std::string what =
        "chain program at " + std::to_string(threads) + " threads";
    ASSERT_EQ(capped.size(), reference.size());
    ExpectTensorsIdentical(capped[0], reference[0], what);
    EXPECT_GT(mem.spill_events, 0) << what;
    EXPECT_GT(mem.faulted_bytes, 0) << what;
    EXPECT_EQ(mem.budget_overruns, 0)
        << what << ": resident bytes exceeded the budget";
    EXPECT_LE(mem.peak_live_bytes, budget) << what;
  }
}

// ---- pipeline chunk assembly -------------------------------------------------

/// One streamed pipeline, no breaker: a filter on x > y, then an int64
/// projection (x + y) and a padded uint8 string column (up to 8 bytes, the
/// rest zero) compressed by it. Run in 4096-row morsels over 65,536 rows,
/// each output has 16 chunks of about 16 KiB, all spillable.
struct ChunkedPipeline {
  static constexpr int64_t kRows = int64_t{1} << 16;
  static constexpr int64_t kWidth = 8;

  ChunkedPipeline() : program(std::make_shared<TensorProgram>()) {
    const int x = program->AddInput("t.x");
    const int y = program->AddInput("t.y");
    const int s = program->AddInput("t.s");
    AttrMap gt;
    gt.Set("op", static_cast<int64_t>(CompareOpKind::kGt));
    const int mask = program->AddNode(OpType::kCompare, {x, y}, gt);
    AttrMap add;
    add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
    const int sum = program->AddNode(OpType::kBinary, {x, y}, add);
    program->MarkOutput(program->AddNode(OpType::kCompress, {sum, mask}, {}));
    program->MarkOutput(program->AddNode(OpType::kCompress, {s, mask}, {}));

    Tensor xt = Tensor::Empty(DType::kInt64, kRows, 1).ValueOrDie();
    Tensor yt = Tensor::Empty(DType::kInt64, kRows, 1).ValueOrDie();
    Tensor st = Tensor::Empty(DType::kUInt8, kRows, kWidth).ValueOrDie();
    for (int64_t i = 0; i < kRows; ++i) {
      xt.mutable_data<int64_t>()[i] = (i * 7919) % 1000;
      yt.mutable_data<int64_t>()[i] = (i * 104729) % 1000;
      uint8_t* row = st.mutable_data<uint8_t>() + i * kWidth;
      for (int64_t c = 0; c < i % (kWidth + 1); ++c) {
        row[c] = static_cast<uint8_t>('a' + (i + c) % 26);
      }
    }
    inputs = {xt, yt, st};
  }

  /// A fresh executor per run, so an adaptive morsel controller
  /// (TQP_ADAPTIVE_MORSEL) starts every run at the same 4096 rows.
  Result<std::vector<Tensor>> Run(ExecutorTarget target, int threads) const {
    ExecOptions options;
    options.num_threads = threads;
    options.morsel_rows = 4096;
    TQP_ASSIGN_OR_RETURN(auto exec, MakeExecutor(target, program, options));
    return exec->Run(inputs);
  }

  std::shared_ptr<TensorProgram> program;
  std::vector<Tensor> inputs;
};

TEST(ChunkAssemblyTest, MultiMorselOutputsBitIdenticalWithAndWithoutSpill) {
  // Every multi-morsel output assembles through one loop: chunks register
  // as spill candidates only under a spilling scope, and whether they stay
  // resident, spill or fan out over the pool, the result is the eager one.
  ScopedSpillDir dir;
  const ChunkedPipeline pipeline;
  const std::vector<Tensor> want =
      pipeline.Run(ExecutorTarget::kEager, 1).ValueOrDie();
  ASSERT_EQ(want.size(), 2u);
  ASSERT_GT(want[0].rows(), 0);
  ASSERT_EQ(want[1].cols(), ChunkedPipeline::kWidth);
  const auto expect_identical = [&want](const std::vector<Tensor>& got,
                                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    ExpectTensorsIdentical(got[0], want[0], what + " int64 output");
    ExpectTensorsIdentical(got[1], want[1], what + " uint8 output");
  };
  for (int threads : {1, 4}) {
    const std::string at = " at " + std::to_string(threads) + " threads";
    // No scope of its own (TQP_MEMORY_BUDGET_MB, when set, still gives one).
    expect_identical(
        pipeline.Run(ExecutorTarget::kPipelined, threads).ValueOrDie(),
        "no scope" + at);

    // A budget the run never reaches: chunks register, none spills.
    QueryMemoryStats roomy;
    {
      BufferScope scope(int64_t{1} << 40);
      BufferScope::Attach attach(&scope);
      expect_identical(
          pipeline.Run(ExecutorTarget::kPipelined, threads).ValueOrDie(),
          "non-spilling budget" + at);
      roomy = scope.stats();
    }
    EXPECT_EQ(roomy.spill_events, 0) << at;

    // Half that peak: chunks go to disk and fault back one at a time while
    // the outputs assemble.
    QueryMemoryStats tight;
    {
      BufferScope scope(roomy.peak_live_bytes / 2);
      BufferScope::Attach attach(&scope);
      expect_identical(
          pipeline.Run(ExecutorTarget::kPipelined, threads).ValueOrDie(),
          "spilling budget" + at);
      tight = scope.stats();
    }
    EXPECT_GT(tight.spill_events, 0) << at;
    EXPECT_GT(tight.fault_events, 0) << at;
    EXPECT_EQ(tight.spilled_now_bytes, 0) << at;
  }
  EXPECT_TRUE(dir.SpillFiles().empty());
}

TEST(ChunkAssemblyTest, SpillReadFaultDuringAssemblyFailsAtPoolBaseline) {
  // Chunks fault back only while their output assembles, so a read fault
  // armed for the whole run fails it there. The chunk registrations still
  // on disk must drop with the failed run: nothing stays spilled, charged
  // or in the pool.
  ScopedSpillDir dir;
  const ChunkedPipeline pipeline;
  int64_t peak = 0;
  {
    BufferScope scope(int64_t{1} << 40);
    BufferScope::Attach attach(&scope);
    TQP_CHECK_OK(pipeline.Run(ExecutorTarget::kPipelined, 1).status());
    peak = scope.stats().peak_live_bytes;
  }
  for (int threads : {1, 4}) {
    const std::string at = " at " + std::to_string(threads) + " threads";
    const int64_t baseline = BufferPool::Global()->stats().live_bytes;
    {
      BufferScope scope(peak / 2);
      BufferScope::Attach attach(&scope);
      TQP_CHECK_OK(
          FaultInjector::Global()->SetSpecForTesting("spill_read:every=1"));
      const Status st =
          pipeline.Run(ExecutorTarget::kPipelined, threads).status();
      TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
      EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString() << at;
      const QueryMemoryStats mem = scope.stats();
      EXPECT_GT(mem.spill_events, 0) << at;
      EXPECT_EQ(mem.spilled_now_bytes, 0)
          << "a chunk registration outlived the failed run" << at;
      EXPECT_EQ(mem.live_bytes, 0) << at;
    }
    EXPECT_EQ(BufferPool::Global()->stats().live_bytes, baseline) << at;
  }
  EXPECT_TRUE(dir.SpillFiles().empty());
}

// ---- out-of-core TPC-H differential ----------------------------------------

class SpillTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* SpillTpchTest::catalog_ = nullptr;

TEST_F(SpillTpchTest, BudgetedRunsBitIdenticalWithBoundedResidency) {
  // For each covered query and thread count: measure the unspilled peak,
  // then re-run with the budget capped at ~25% of it. The capped run must
  // (a) be bit-identical to the uncapped result, (b) actually exercise the
  // spill tier in both directions (evictions and fault-backs), and (c)
  // respect the gauge contract: resident bytes exceed the budget only when
  // an irreducible single-step working set is itself larger than the budget
  // — a pipeline's pinned sliced sources or a breaker node's inputs+output
  // cannot be paged at the buffer layer — and every such case is counted in
  // budget_overruns (overruns == 0 <=> peak <= budget). At this tiny scale
  // factor those per-step floors sit above 25% of the whole-query peak for
  // every covered query; SpillResidencyTest above pins the strict 25% bound
  // on a workload where idle cross-step outputs dominate.
  QueryCompiler compiler;
  for (int q : {1, 3, 6, 10}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    for (int threads : {1, 2, 8}) {
      CompileOptions options;
      options.target = ExecutorTarget::kPipelined;
      options.num_threads = threads;
      options.morsel_rows = 1000;  // many morsels even at SF 0.01
      CompiledQuery compiled =
          compiler.CompileSql(sql, *catalog_, options).ValueOrDie();

      int64_t uncapped_peak = 0;
      Table reference;
      {
        BufferScope scope;  // accounting only
        BufferScope::Attach attach(&scope);
        reference = compiled.Run(*catalog_).ValueOrDie();
        uncapped_peak = scope.stats().peak_live_bytes;
      }
      ASSERT_GT(uncapped_peak, 0);

      const int64_t budget = uncapped_peak / 4;
      QueryMemoryStats mem;
      Table capped;
      {
        BufferScope scope(budget);
        BufferScope::Attach attach(&scope);
        capped = compiled.Run(*catalog_).ValueOrDie();
        mem = scope.stats();
      }
      const std::string what = "Q" + std::to_string(q) + " at " +
                               std::to_string(threads) +
                               " threads, budget 25% of " +
                               std::to_string(uncapped_peak);
      ExpectTablesIdentical(capped, reference, what);
      // Q6's intermediates at SF 0.01 all sit under the minimum spill size
      // (a ~2%-selectivity filter leaves sub-page compressed columns), so
      // only the other queries must demonstrably evict and fault back.
      if (q != 6) {
        EXPECT_GT(mem.spill_events, 0) << what << ": spill tier never engaged";
        EXPECT_GT(mem.faulted_bytes, 0) << what << ": nothing faulted back";
      }
      // The capped run never holds more than the uncapped run, and the
      // budget only yields to per-step floors, never silently.
      EXPECT_LE(mem.peak_live_bytes, uncapped_peak) << what;
      if (mem.budget_overruns == 0) {
        EXPECT_LE(mem.peak_live_bytes, budget) << what;
      } else {
        EXPECT_GT(mem.peak_live_bytes, budget)
            << what << ": overruns recorded but the gauge stayed under";
      }
    }
  }
}

TEST_F(SpillTpchTest, CappedQ1HoldsMeaningfullyFewerResidentBytes) {
  // Chunk-level spilling must buy a real residency reduction on the
  // accumulation-heavy query even where the 25% bound is floor-limited.
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(1).ValueOrDie();
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 1;
  options.morsel_rows = 1000;
  CompiledQuery compiled =
      compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
  int64_t uncapped_peak = 0;
  {
    BufferScope scope;
    BufferScope::Attach attach(&scope);
    TQP_CHECK_OK(compiled.Run(*catalog_).status());
    uncapped_peak = scope.stats().peak_live_bytes;
  }
  QueryMemoryStats mem;
  {
    BufferScope scope(uncapped_peak / 4);
    BufferScope::Attach attach(&scope);
    TQP_CHECK_OK(compiled.Run(*catalog_).status());
    mem = scope.stats();
  }
  EXPECT_LE(mem.peak_live_bytes, uncapped_peak * 3 / 4)
      << "capped Q1 should shed at least a quarter of its resident peak";
}

TEST_F(SpillTpchTest, ExecutorOptionBudgetEngagesWithoutAmbientScope) {
  // ExecOptions::memory_budget_bytes alone (no ambient scope) must cap the
  // run: the executor opens its own scope. Results stay identical.
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(1).ValueOrDie();
  CompileOptions uncapped;
  uncapped.target = ExecutorTarget::kPipelined;
  uncapped.num_threads = 1;
  uncapped.morsel_rows = 1000;
  Table reference = compiler.CompileSql(sql, *catalog_, uncapped)
                        .ValueOrDie()
                        .Run(*catalog_)
                        .ValueOrDie();
  CompileOptions capped = uncapped;
  capped.memory_budget_bytes = 1 << 20;  // 1 MiB: aggressively tiny
  Table result = compiler.CompileSql(sql, *catalog_, capped)
                     .ValueOrDie()
                     .Run(*catalog_)
                     .ValueOrDie();
  ExpectTablesIdentical(result, reference, "Q1 with option-only budget");
}

// ---- scheduler integration --------------------------------------------------

TEST_F(SpillTpchTest, SchedulerCountsSpilledBytesPerQuery) {
  runtime::SchedulerOptions options;
  options.compile.target = ExecutorTarget::kPipelined;
  options.compile.num_threads = 2;
  options.compile.morsel_rows = 500;
  options.compile.memory_budget_bytes = 1 << 20;  // 1 MiB per query
  runtime::QueryScheduler scheduler(catalog_, options);

  const std::string sql = tpch::QueryText(1).ValueOrDie();
  auto future = scheduler.Submit(sql).ValueOrDie();
  runtime::QueryOutcome outcome = future.get();
  TQP_CHECK_OK(outcome.status);
  EXPECT_EQ(outcome.stats.memory_budget_bytes, 1 << 20);
  EXPECT_GT(outcome.stats.spilled_bytes, 0);
  EXPECT_GT(outcome.stats.peak_memory_bytes, 0);

  const runtime::SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.spilled_bytes, outcome.stats.spilled_bytes);
  EXPECT_EQ(counters.queries_spilled, 1);
}

TEST_F(SpillTpchTest, ConcurrentBudgetedSessionsStayIsolated) {
  // Spill stress for the TSan job: several concurrent sessions, each under
  // its own tiny budget, must neither race nor cross-charge; every result
  // matches the serial reference.
  QueryCompiler compiler;
  CompileOptions eager;
  eager.target = ExecutorTarget::kEager;
  const std::string q1 = tpch::QueryText(1).ValueOrDie();
  const std::string q6 = tpch::QueryText(6).ValueOrDie();
  Table ref1 =
      compiler.CompileSql(q1, *catalog_, eager).ValueOrDie().Run(*catalog_).ValueOrDie();
  Table ref6 =
      compiler.CompileSql(q6, *catalog_, eager).ValueOrDie().Run(*catalog_).ValueOrDie();

  runtime::SchedulerOptions options;
  options.compile.target = ExecutorTarget::kPipelined;
  options.compile.morsel_rows = 500;
  options.compile.memory_budget_bytes = 2 << 20;
  options.max_concurrent = 4;
  runtime::QueryScheduler scheduler(catalog_, options);

  std::vector<std::future<runtime::QueryOutcome>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(
        scheduler.Submit(i % 2 == 0 ? q1 : q6).ValueOrDie());
  }
  int64_t total_spilled = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    runtime::QueryOutcome outcome = futures[i].get();
    TQP_CHECK_OK(outcome.status);
    total_spilled += outcome.stats.spilled_bytes;
    ExpectTablesIdentical(outcome.table, i % 2 == 0 ? ref1 : ref6,
                          "session " + std::to_string(i));
  }
  EXPECT_GT(total_spilled, 0);
  EXPECT_EQ(scheduler.counters().spilled_bytes, total_spilled);
}

}  // namespace
}  // namespace tqp
