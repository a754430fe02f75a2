#ifndef HIQUE_EXEC_COMPILER_INTERNAL_H_
#define HIQUE_EXEC_COMPILER_INTERNAL_H_

#include <string>

#include "exec/compiler.h"

namespace hique::exec::internal {

/// CompileToSharedLibrary with a deadline other than kCompileDeadlineS, so
/// tests reach the kill path in seconds.
Result<CompileResult> CompileWithDeadline(const std::string& source,
                                          const std::string& dir,
                                          const std::string& name,
                                          const CompileOptions& options,
                                          double deadline_s);

}  // namespace hique::exec::internal

#endif  // HIQUE_EXEC_COMPILER_INTERNAL_H_
