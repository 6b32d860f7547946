// End-to-end test of the geoalign_cli binary: writes CSV fixtures,
// invokes the tool as a subprocess, and checks the realigned output.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "io/csv.h"
#include "test_temp_path.h"

namespace geoalign {
namespace {

// The CLI binary lives next to the test tree in the build directory;
// tests run with CWD = build/tests (gtest_discover_tests default).
std::string CliPath() {
  for (const char* candidate :
       {"../tools/geoalign_cli", "build/tools/geoalign_cli",
        "./tools/geoalign_cli"}) {
    std::ifstream probe(candidate);
    if (probe.good()) return candidate;
  }
  return "";
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = CliPath();
    if (cli_.empty()) {
      GTEST_SKIP() << "geoalign_cli binary not found relative to CWD";
    }
    dir_ = TestTempPath("");
    std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
    WriteFile(dir_ + "/steam.csv",
              "unit,value\n10001,100\n10002,60\n");
    WriteFile(dir_ + "/pop.csv",
              "source,target,value\n"
              "10001,A,10000\n10001,B,15000\n10002,B,5000\n");
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  int RunCli(const std::string& args, const std::string& out_csv) {
    std::string cmd = cli_ + " --objective " + dir_ + "/steam.csv " + args +
                      " --out " + out_csv + " 2>/dev/null";
    return std::system(cmd.c_str());
  }

  std::string cli_;
  std::string dir_;
};

TEST_F(CliTest, GeoAlignRealignsAndPreservesMass) {
  std::string out = dir_ + "/out.csv";
  ASSERT_EQ(RunCli("--ref population=" + dir_ + "/pop.csv", out), 0);
  auto table = std::move(io::ReadCsvFile(out)).ValueOrDie();
  auto kv = std::move(table.KeyValueColumn("unit", "value")).ValueOrDie();
  ASSERT_EQ(kv.size(), 2u);
  // The paper's intro split: 100 -> 40/60, plus 60 entirely in B.
  EXPECT_EQ(kv[0].first, "A");
  EXPECT_NEAR(kv[0].second, 40.0, 1e-6);
  EXPECT_EQ(kv[1].first, "B");
  EXPECT_NEAR(kv[1].second, 120.0, 1e-6);
}

TEST_F(CliTest, DasymetricMethodSelection) {
  std::string out = dir_ + "/out_dasy.csv";
  ASSERT_EQ(RunCli("--ref population=" + dir_ + "/pop.csv "
                   "--method dasymetric=population",
                   out),
            0);
  auto table = std::move(io::ReadCsvFile(out)).ValueOrDie();
  EXPECT_EQ(table.NumRows(), 2u);
}

// Two crosswalks over different unit lists, b's one value off 1 in its
// 13th significant digit. Merging the unit lists must keep every digit
// of every value: rounded to 12 digits, b's s1 row reads 1 and fits the
// objective no better than a's, so β would come out (0.5, 0.5) and the
// estimates 1.49999999995 and 1.50000000005.
TEST_F(CliTest, CrosswalkValuesKeepEveryDigit) {
  WriteFile(dir_ + "/a.csv",
            "source,target,value\ns1,t1,1\ns2,t1,1\ns2,t2,1\n");
  WriteFile(dir_ + "/b.csv",
            "source,target,value\ns1,t1,1.0000000000004\ns2,t2,2\n");
  WriteFile(dir_ + "/digits_obj.csv", "unit,value\ns1,1.0000000000002\ns2,2\n");
  const std::string out = dir_ + "/digits_out.csv";
  const std::string weights = dir_ + "/digits_weights.txt";
  const std::string cmd = cli_ + " --objective " + dir_ +
                          "/digits_obj.csv --ref a=" + dir_ +
                          "/a.csv --ref b=" + dir_ + "/b.csv --weights --out " +
                          out + " 2>" + weights;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  auto table = std::move(io::ReadCsvFile(out)).ValueOrDie();
  auto kv = std::move(table.KeyValueColumn("unit", "value")).ValueOrDie();
  ASSERT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv[0].first, "t1");
  EXPECT_NEAR(kv[0].second, 1.0, 1e-9);
  EXPECT_EQ(kv[1].first, "t2");
  EXPECT_NEAR(kv[1].second, 2.0, 1e-9);
  std::ifstream in(weights);
  const std::string printed((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(printed.find("#   a                        0.000000"),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find("#   b                        1.000000"),
            std::string::npos)
      << printed;
}

TEST_F(CliTest, BadUsageFailsNonZero) {
  // Missing --ref.
  std::string cmd = cli_ + " --objective " + dir_ + "/steam.csv 2>/dev/null";
  EXPECT_NE(std::system(cmd.c_str()), 0);
  // Unknown method.
  EXPECT_NE(RunCli("--ref population=" + dir_ + "/pop.csv --method nope",
                   dir_ + "/x.csv"),
            0);
  // Objective unit missing from the crosswalk universe.
  WriteFile(dir_ + "/bad_obj.csv", "unit,value\n99999,5\n");
  std::string cmd2 = cli_ + " --objective " + dir_ +
                     "/bad_obj.csv --ref population=" + dir_ +
                     "/pop.csv 2>/dev/null >/dev/null";
  EXPECT_NE(std::system(cmd2.c_str()), 0);
  // A NaN or infinite objective value.
  for (const char* bad : {"nan", "inf", "-inf"}) {
    WriteFile(dir_ + "/nonfinite_obj.csv",
              std::string("unit,value\n10001,") + bad + "\n10002,60\n");
    std::string cmd3 = cli_ + " --objective " + dir_ +
                       "/nonfinite_obj.csv --ref population=" + dir_ +
                       "/pop.csv 2>/dev/null >/dev/null";
    EXPECT_NE(std::system(cmd3.c_str()), 0) << bad;
  }
}

}  // namespace
}  // namespace geoalign
