#ifndef HIQUE_BENCH_SUPPORT_FLAGS_H_
#define HIQUE_BENCH_SUPPORT_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace hique::bench {

/// Minimal "--name=value" flag lookup for the benchmark binaries. A numeric
/// flag whose value does not parse completely ("--repeat 5" gives
/// --repeat an empty value) ends the program with exit status 2 and a
/// message on stderr, instead of running with a value nobody asked for.
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  double GetDouble(const std::string& name, double def) const {
    std::string v;
    if (!Find(name, &v)) return def;
    char* end = nullptr;
    errno = 0;
    double out = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || errno == ERANGE) Reject(name, v);
    return out;
  }
  int64_t GetInt(const std::string& name, int64_t def) const {
    std::string v;
    if (!Find(name, &v)) return def;
    char* end = nullptr;
    errno = 0;
    long long out = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE) Reject(name, v);
    return out;
  }
  bool GetBool(const std::string& name, bool def) const {
    std::string v;
    if (!Find(name, &v)) return def;
    return v.empty() || v == "1" || v == "true";
  }
  std::string GetString(const std::string& name,
                        const std::string& def) const {
    std::string v;
    return Find(name, &v) ? v : def;
  }

 private:
  [[noreturn]] static void Reject(const std::string& name,
                                  const std::string& value) {
    std::fprintf(stderr, "bad value for --%s: '%s' (use --%s=<number>)\n",
                 name.c_str(), value.c_str(), name.c_str());
    std::exit(2);
  }

  bool Find(const std::string& name, std::string* value) const {
    std::string prefix = "--" + name;
    for (int i = 1; i < argc_; ++i) {
      const char* arg = argv_[i];
      if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) continue;
      const char* rest = arg + prefix.size();
      if (*rest == '=') {
        *value = rest + 1;
        return true;
      }
      if (*rest == '\0') {
        *value = "";
        return true;
      }
    }
    return false;
  }

  int argc_;
  char** argv_;
};

}  // namespace hique::bench

#endif  // HIQUE_BENCH_SUPPORT_FLAGS_H_
