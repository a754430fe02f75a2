#ifndef HIQUE_EXEC_COMPILER_H_
#define HIQUE_EXEC_COMPILER_H_

#include <string>

#include "util/status.h"

namespace hique::exec {

/// Options for runtime compilation of generated query code (paper §IV: the
/// engine invokes the compiler to build a shared library which is then
/// dynamically linked).
struct CompileOptions {
  int opt_level = 2;           // -O<level>; the paper sweeps -O0 vs -O2
  bool keep_source = true;     // keep the .cc next to the .so (Table III)
};

/// Seconds a runtime compile may run before its process group is killed.
constexpr double kCompileDeadlineS = 60;

struct CompileResult {
  std::string source_path;
  std::string library_path;
  int64_t source_bytes = 0;
  int64_t library_bytes = 0;
  double compile_seconds = 0;
};

/// Writes `source` to `<dir>/<name>.cc` and compiles it to `<dir>/<name>.so`
/// with one lean link:
///
///   <compiler> -shared -fPIC -w -O<level> -nostdlib [HQ_GEN_CXXFLAGS]
///              -o <name>.so <name>.cc -lgcc
///
/// Generated code needs nothing from libstdc++, libm or the crt files: the
/// libc functions it calls (memcpy, memset) and any sanitizer runtime named
/// by HQ_GEN_CXXFLAGS resolve against the host process at dlopen, and
/// -lgcc, after the source, supplies compiler helpers such as
/// __popcountdi2. The compiler is spawned without a shell (the compiler
/// and HQ_GEN_CXXFLAGS are split on whitespace), in a process group of its
/// own, inheriting only stdin from the host, with stdout and stderr in
/// `<dir>/<name>.log`. A compiler still running after `kCompileDeadlineS`
/// is killed with its whole group; its artefacts are removed and the call
/// returns CompileError.
Result<CompileResult> CompileToSharedLibrary(const std::string& source,
                                             const std::string& dir,
                                             const std::string& name,
                                             const CompileOptions& options);

/// The compiler command used (build-time CMAKE_CXX_COMPILER, overridable via
/// the HIQUE_CXX environment variable, which may hold several words, e.g.
/// "ccache g++").
std::string RuntimeCompilerPath();

}  // namespace hique::exec

#endif  // HIQUE_EXEC_COMPILER_H_
