#include "exec/compiled_library.h"

#include <dlfcn.h>

#include <utility>

#include "util/env.h"

namespace hique::exec {

int32_t DetectSimdLevel() {
#if HQ_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return HQ_SIMD_AVX2;
#endif
  return HQ_SIMD_SCALAR;
}

int32_t ResolveSimdLevel() {
  if (env::EnvString("HQ_SIMD", "") == "off") return HQ_SIMD_SCALAR;
  return DetectSimdLevel();
}

Result<std::shared_ptr<CompiledLibrary>> CompiledLibrary::Load(
    CompileResult compiled, const std::string& entry_symbol,
    std::string source, int opt_level, bool unlink_on_unload,
    int32_t simd_level, std::string plan_text) {
  void* handle = dlopen(compiled.library_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    return Status::ExecError(std::string("dlopen failed: ") + dlerror());
  }
  auto entry = reinterpret_cast<HqEntryFn>(dlsym(handle, entry_symbol.c_str()));
  if (entry == nullptr) {
    dlclose(handle);
    return Status::ExecError("entry symbol not found: " + entry_symbol);
  }
  // Pin the kernel version before any execution can observe it. The symbol
  // is emitted by every generated library; without it the library runs its
  // portable kernels.
  using SetSimdFn = void (*)(int32_t);
  if (auto set = reinterpret_cast<SetSimdFn>(dlsym(handle, "hique_set_simd"))) {
    set(simd_level < 0 ? ResolveSimdLevel() : simd_level);
  }
  // make_shared needs a public constructor; the destructor is the only
  // cleanup path, so construct directly.
  std::shared_ptr<CompiledLibrary> lib(new CompiledLibrary());
  lib->handle_ = handle;
  lib->entry_ = entry;
  lib->compiled_ = std::move(compiled);
  lib->entry_symbol_ = entry_symbol;
  lib->source_ = std::move(source);
  lib->plan_text_ = std::move(plan_text);
  lib->opt_level_ = opt_level;
  lib->unlink_on_unload_ = unlink_on_unload;
  return lib;
}

CompiledLibrary::~CompiledLibrary() {
  if (handle_ != nullptr) dlclose(handle_);
  if (unlink_on_unload_) {
    (void)env::RemoveFile(compiled_.library_path);
    if (!compiled_.source_path.empty()) {
      (void)env::RemoveFile(compiled_.source_path);
    }
  }
}

}  // namespace hique::exec
