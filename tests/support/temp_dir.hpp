// The one scratch-directory helper for tests: a fresh, empty directory
// per process and per test, removed again when the helper goes out of
// scope. The path carries the pid and the running test's full gtest
// name, so test processes running side by side (`ctest -j` runs every
// gtest case as its own process) never share a directory.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace epea::test {

struct TempDir {
    std::filesystem::path path;

    /// `name` tells apart several directories of one test.
    explicit TempDir(const std::string& name = "") : path(unique_path(name)) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    [[nodiscard]] std::string str() const { return path.string(); }

private:
    static std::filesystem::path unique_path(const std::string& name) {
        std::string leaf = "epea_" + std::to_string(::getpid());
        if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
            leaf += std::string("_") + info->test_suite_name() + "." + info->name();
        }
        if (!name.empty()) leaf += "_" + name;
        for (char& c : leaf) {
            if (c == '/') c = '_';  // parameterized test names
        }
        return std::filesystem::path(::testing::TempDir()) / leaf;
    }
};

}  // namespace epea::test
