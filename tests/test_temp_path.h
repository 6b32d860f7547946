#ifndef GEOALIGN_TESTS_TEST_TEMP_PATH_H_
#define GEOALIGN_TESTS_TEST_TEMP_PATH_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace geoalign {

/// A path under ::testing::TempDir() unique to the running test, ending
/// in `suffix`. ctest runs every test case as its own process, several
/// at once under `-j`, so cases must never share a file or directory
/// name.
inline std::string TestTempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("geoalign_") + info->test_suite_name() +
                     "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name + suffix;
}

}  // namespace geoalign

#endif  // GEOALIGN_TESTS_TEST_TEMP_PATH_H_
