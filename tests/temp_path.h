// Scratch file names for tests that write files.
#pragma once

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace elan {

/// `::testing::TempDir() + name` with this process's id appended to the name
/// (before its extension, if any): ctest runs a test both as its own entry
/// and under a suite filter such as tsan_flight, possibly at the same time,
/// and the two processes must not write one file.
inline std::string temp_path(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  const std::string pid = "." + std::to_string(::getpid());
  if (dot == std::string::npos) return ::testing::TempDir() + name + pid;
  return ::testing::TempDir() + name.substr(0, dot) + pid + name.substr(dot);
}

}  // namespace elan
