#ifndef HIQUE_UTIL_ENV_H_
#define HIQUE_UTIL_ENV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace hique {

/// Minimal filesystem helpers used by the runtime compiler driver.
namespace env {

/// Creates a directory (and parents). OK if it already exists.
Status MakeDirs(const std::string& path);

/// Removes a file if it exists; missing files are not an error.
Status RemoveFile(const std::string& path);

/// Recursively removes a directory tree if it exists.
Status RemoveTree(const std::string& path);

/// Writes `contents` to `path`, replacing any existing file.
Status WriteFile(const std::string& path, const std::string& contents);

/// Reads the whole file into a string.
Result<std::string> ReadFile(const std::string& path);

/// Size of a file in bytes, or an error if it does not exist.
Result<int64_t> FileSize(const std::string& path);

bool FileExists(const std::string& path);

/// Names of the regular files directly inside `path` (no "."/".."). An
/// empty result for a missing directory.
Result<std::vector<std::string>> ListDir(const std::string& path);

/// A process-unique temporary directory under /tmp, created on first use and
/// removed at process exit.
const std::string& ProcessTempDir();

/// Integer environment variable, or `def` when unset/unparsable (used for
/// runtime knobs like HQ_THREADS).
int64_t EnvInt(const std::string& name, int64_t def);

/// String environment variable, or `def` when unset/empty (used for
/// runtime knobs like HQ_SIMD).
std::string EnvString(const std::string& name, const std::string& def);

}  // namespace env
}  // namespace hique

#endif  // HIQUE_UTIL_ENV_H_
