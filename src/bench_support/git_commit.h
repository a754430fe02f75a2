#ifndef HIQUE_BENCH_SUPPORT_GIT_COMMIT_H_
#define HIQUE_BENCH_SUPPORT_GIT_COMMIT_H_

#include <string>

namespace hique::bench {

/// The commit checked out in the working directory, with "-dirty" appended
/// when tracked files differ from it; "unknown" outside a git checkout.
/// The paper benchmarks stamp their --json output with it.
std::string GitCommit();

}  // namespace hique::bench

#endif  // HIQUE_BENCH_SUPPORT_GIT_COMMIT_H_
