#include "bench_support/git_commit.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace hique::bench {

std::string GitCommit() {
  std::string commit;
  if (FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128] = {0};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) commit = buf;
    ::pclose(p);
  }
  while (!commit.empty() && std::isspace(
                                static_cast<unsigned char>(commit.back()))) {
    commit.pop_back();
  }
  if (commit.empty()) return "unknown";
  if (std::system("git diff --quiet HEAD 2>/dev/null") != 0) {
    commit += "-dirty";
  }
  return commit;
}

}  // namespace hique::bench
