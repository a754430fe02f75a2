#ifndef HIQUE_EXEC_COMPILED_LIBRARY_H_
#define HIQUE_EXEC_COMPILED_LIBRARY_H_

#include <memory>
#include <string>

#include "codegen/runtime_abi.h"
#include "exec/compiler.h"
#include "util/status.h"

namespace hique::exec {

/// A dlopen'd compiled query. The handle and resolved entry symbol are
/// pinned exactly once, at load time — executions through an existing
/// CompiledLibrary perform no dlopen/dlsym. Always held by shared_ptr:
/// the engine cache, prepared statements and in-flight executions share
/// ownership, so LRU eviction or a tier swap can never dlclose a library
/// another thread is still executing. The last owner dlcloses and, when
/// `unlink_on_unload` was requested, removes the on-disk .so/.cc artefacts
/// (keeping the gen dir from growing without bound).
/// Kernel version this host can execute: HQ_SIMD_AVX2 on an AVX2 host,
/// HQ_SIMD_SCALAR (the portable kernels) otherwise. Pure CPUID — no env.
int32_t DetectSimdLevel();

/// The kernel version libraries should be loaded at: DetectSimdLevel(),
/// or HQ_SIMD_SCALAR when the HQ_SIMD environment variable is "off" — the
/// test seam that runs an AVX2 host's queries on the portable kernels, as
/// a non-AVX2 or non-x86 host does. Any other value is ignored. Resolved
/// once per engine; dispatch is per-library-load, never per-execution.
int32_t ResolveSimdLevel();

class CompiledLibrary {
 public:
  /// Loads `compiled.library_path` and resolves `entry_symbol`.
  /// `source` is retained for tier recompilation and keep_source reporting;
  /// `opt_level` records the -O tier this artefact was built at.
  /// `simd_level` selects the generated kernel version (HQ_SIMD_* constant)
  /// via the library's `hique_set_simd` export before any execution; pass
  /// -1 for ResolveSimdLevel(). Libraries without that export load fine
  /// and run their portable kernels. `plan_text` is the rendered plan the
  /// library was generated from: a statement reports the text of the
  /// library it actually runs, which a cache alias can make differ from
  /// the plan it was prepared with.
  static Result<std::shared_ptr<CompiledLibrary>> Load(
      CompileResult compiled, const std::string& entry_symbol,
      std::string source, int opt_level, bool unlink_on_unload,
      int32_t simd_level = -1, std::string plan_text = {});

  ~CompiledLibrary();
  CompiledLibrary(const CompiledLibrary&) = delete;
  CompiledLibrary& operator=(const CompiledLibrary&) = delete;

  HqEntryFn entry() const { return entry_; }
  const CompileResult& compiled() const { return compiled_; }
  const std::string& entry_symbol() const { return entry_symbol_; }
  const std::string& source() const { return source_; }
  const std::string& plan_text() const { return plan_text_; }
  int opt_level() const { return opt_level_; }

 private:
  CompiledLibrary() = default;

  void* handle_ = nullptr;
  HqEntryFn entry_ = nullptr;
  CompileResult compiled_;
  std::string entry_symbol_;
  std::string source_;
  std::string plan_text_;
  int opt_level_ = 0;
  bool unlink_on_unload_ = false;
};

}  // namespace hique::exec

#endif  // HIQUE_EXEC_COMPILED_LIBRARY_H_
