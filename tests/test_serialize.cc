// Tests for schedule serialization (sched/serialize).
#include "sched/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/svpp.h"
#include "sched/baselines.h"

namespace mepipe::sched {
namespace {

void ExpectSchedulesEqual(const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.problem.stages, b.problem.stages);
  EXPECT_EQ(a.problem.virtual_chunks, b.problem.virtual_chunks);
  EXPECT_EQ(a.problem.slices, b.problem.slices);
  EXPECT_EQ(a.problem.micros, b.problem.micros);
  EXPECT_EQ(a.problem.split_backward, b.problem.split_backward);
  EXPECT_EQ(a.problem.placement, b.problem.placement);
  EXPECT_EQ(a.deferred_wgrad, b.deferred_wgrad);
  EXPECT_EQ(a.stage_ops, b.stage_ops);
}

TEST(Serialize, RoundTripOneFOneB) {
  const Schedule original = OneFOneBSchedule(4, 6);
  const Schedule parsed = ParseSchedule(SerializeSchedule(original));
  ExpectSchedulesEqual(original, parsed);
}

TEST(Serialize, RoundTripSvppSplit) {
  core::SvppOptions options;
  options.stages = 4;
  options.virtual_chunks = 2;
  options.slices = 2;
  options.micros = 4;
  const Schedule original = GenerateSvpp(options);
  const Schedule parsed = ParseSchedule(SerializeSchedule(original));
  ExpectSchedulesEqual(original, parsed);
}

TEST(Serialize, RoundTripVShape) {
  const Schedule original = ZbvSchedule(4, 4);
  const Schedule parsed = ParseSchedule(SerializeSchedule(original));
  ExpectSchedulesEqual(original, parsed);
}

TEST(Serialize, HeaderAndShape) {
  const std::string text = SerializeSchedule(GPipeSchedule(2, 2));
  EXPECT_EQ(text.rfind("mepipe-schedule v1\n", 0), 0u);
  EXPECT_NE(text.find("method GPipe"), std::string::npos);
  EXPECT_NE(text.find("problem p=2 v=1 s=1 n=2 split=0 placement=rr deferred_w=0"),
            std::string::npos);
  EXPECT_NE(text.find("stage 0: F0.0.0"), std::string::npos);
}

TEST(Serialize, RejectsBadHeader) {
  EXPECT_THROW(ParseSchedule("not a schedule"), CheckError);
}

TEST(Serialize, RejectsCorruptedOps) {
  std::string text = SerializeSchedule(GPipeSchedule(2, 2));
  // Remove one op: the multiset validation must fire.
  const std::size_t pos = text.find(" F1.0.0");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, 7);
  EXPECT_THROW(ParseSchedule(text), CheckError);
}

TEST(Serialize, RejectsDeadlockedOrder) {
  std::string text = SerializeSchedule(GPipeSchedule(2, 1));
  // Swap F and B on stage 1: B before its own F cannot execute.
  const std::size_t pos = text.find("stage 1: F0.0.1 B0.0.1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 22, "stage 1: B0.0.1 F0.0.1");
  EXPECT_THROW(ParseSchedule(text), CheckError);
}

// Schedule text from outside the program: every malformed number ends in
// CheckError, never in a standard-library exception or integer overflow.
TEST(Serialize, RejectsMalformedNumbersWithCheckError) {
  const std::string valid = SerializeSchedule(OneFOneBSchedule(2, 2));
  std::string out_of_range_op = valid;
  const std::size_t pos = out_of_range_op.find("F1.0.0");
  ASSERT_NE(pos, std::string::npos);
  out_of_range_op.replace(pos, 6, "F99999999999.0.0");
  const std::pair<const char*, std::string> cases[] = {
      {"v*p overflows int",
       "mepipe-schedule v1\nmethod x\n"
       "problem p=50000 v=50000 s=1 n=1 split=0 placement=rr deferred_w=0\n"},
      {"non-numeric stage count",
       "mepipe-schedule v1\nmethod x\n"
       "problem p=x v=1 s=1 n=1 split=0 placement=rr deferred_w=0\n"},
      {"op index beyond int", out_of_range_op},
  };
  for (const auto& [name, text] : cases) {
    EXPECT_THROW(ParseSchedule(text), CheckError) << name;
  }
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mepipe_sched.txt";
  const Schedule original = TeraPipeSchedule(3, 2, 3);
  WriteScheduleFile(original, path);
  const Schedule loaded = ReadScheduleFile(path);
  ExpectSchedulesEqual(original, loaded);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(ReadScheduleFile("/nonexistent/dir/sched.txt"), CheckError);
}

}  // namespace
}  // namespace mepipe::sched
