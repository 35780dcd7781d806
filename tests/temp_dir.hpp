// A private, freshly created directory per test run (mkdtemp under the
// system temp dir), so concurrent or repeated runs never share paths.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <vector>

namespace dim::test {

// Creates <tmp>/dimsim-<tag>-XXXXXX; the caller removes it.
inline std::string make_temp_dir(const std::string& tag) {
  const std::string tmpl =
      (std::filesystem::temp_directory_path() / ("dimsim-" + tag + "-XXXXXX")).string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* made = mkdtemp(buf.data());
  EXPECT_NE(made, nullptr) << "mkdtemp " << tmpl;
  return std::string(made != nullptr ? made : "/tmp");
}

}  // namespace dim::test
