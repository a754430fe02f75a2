#include "obs/explain.h"

#include <cstdio>
#include <sstream>

#include "exec/engine.h"

namespace hique::obs {

namespace {

std::string Ms(double ms) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f ms", ms);
  return buf;
}

std::string Pct(double part, double whole) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                whole > 0 ? 100.0 * part / whole : 0.0);
  return buf;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string CacheLine(const std::string& signature, bool cache_hit,
                      int opt_level) {
  return "cache: " + std::string(cache_hit ? "hit" : "miss") +
         " (opt level " + std::to_string(opt_level) +
         ")  signature: " + signature;
}

/// A probe stage's join-key filter: what the build side gave it and its
/// pass rate.
std::string KeyFilterLine(const exec::KeyFilterStat& kf) {
  std::ostringstream line;
  line << "  key filter: " << kf.keys << " build keys, ";
  if (kf.bytes > 0) {
    line << kf.bytes << " B bitmap";
  } else {
    line << "no bitmap (key range too wide)";
  }
  line << ", passed " << kf.passed << " of " << kf.tested << " ("
       << Pct(static_cast<double>(kf.passed), static_cast<double>(kf.tested))
       << ")";
  return line.str();
}

}  // namespace

std::vector<std::string> RenderExplainLines(const std::string& plan_text,
                                            const std::string& signature,
                                            bool cache_hit, int opt_level) {
  std::vector<std::string> lines;
  lines.push_back("physical plan");
  lines.push_back(CacheLine(signature, cache_hit, opt_level));
  for (std::string& op_line : SplitLines(plan_text)) {
    lines.push_back(std::move(op_line));
  }
  return lines;
}

std::vector<std::string> RenderAnalyzeLines(const std::string& plan_text,
                                            const std::string& signature,
                                            bool cache_hit, int opt_level,
                                            const QueryTimings& timings,
                                            const exec::ExecStats& stats) {
  std::vector<std::string> lines;
  lines.push_back("physical plan (analyzed)");
  lines.push_back(CacheLine(signature, cache_hit, opt_level));
  lines.push_back("phases: parse " + Ms(timings.parse_ms) + " | optimize " +
                  Ms(timings.optimize_ms) + " | generate " +
                  Ms(timings.generate_ms) + " | compile " +
                  Ms(timings.compile_ms) + " | execute " +
                  Ms(timings.execute_ms));
  {
    std::ostringstream sum;
    sum << "execute: rows " << stats.rows << "  threads " << stats.threads
        << "  pages " << stats.pages_touched << "  barriers "
        << stats.par_barriers << "  tasks " << stats.par_tasks;
    char skew[32];
    std::snprintf(skew, sizeof(skew), "%.2f", stats.skew_ratio);
    sum << "  skew(max) " << skew;
    lines.push_back(sum.str());
  }

  double execute_s = stats.execute_seconds;
  std::vector<std::string> plan_lines = SplitLines(plan_text);
  for (size_t i = 0; i < plan_lines.size(); ++i) {
    lines.push_back(plan_lines[i]);
    // Spans arrive in pipeline order with op_id set; find this op's span
    // (linear — plans are a handful of operators).
    for (const exec::OpStat& op : stats.ops) {
      if (op.op_id != static_cast<int32_t>(i)) continue;
      std::ostringstream span;
      span << "  time " << Ms(op.wall_seconds * 1e3) << " ("
           << Pct(op.wall_seconds, execute_s) << ")  tuples " << op.tuples
           << "  pages " << op.pages;
      if (op.barriers > 0) {
        char skew[32];
        std::snprintf(skew, sizeof(skew), "%.2f", op.max_skew);
        span << "  barriers " << op.barriers << "  tasks " << op.tasks
             << "  skew " << skew;
      } else {
        span << "  serial";
      }
      if (op.cycles_valid) {
        span << "  cycles " << op.cycles;
      } else {
        span << "  cycles n/a";
      }
      lines.push_back(span.str());
      if (op.key_filter.present) {
        lines.push_back(KeyFilterLine(op.key_filter));
      }
      break;
    }
  }
  return lines;
}

std::string SpanSummaryLine(const QueryTimings& timings,
                            const exec::ExecStats& stats) {
  std::ostringstream out;
  out << "parse " << Ms(timings.parse_ms) << ", optimize "
      << Ms(timings.optimize_ms) << ", generate " << Ms(timings.generate_ms)
      << ", compile " << Ms(timings.compile_ms) << ", execute "
      << Ms(timings.execute_ms);
  const exec::OpStat* slowest = nullptr;
  for (const exec::OpStat& op : stats.ops) {
    if (slowest == nullptr || op.wall_seconds > slowest->wall_seconds) {
      slowest = &op;
    }
  }
  if (slowest != nullptr) {
    out << "; slowest op" << slowest->op_id << " "
        << Ms(slowest->wall_seconds * 1e3) << " ("
        << Pct(slowest->wall_seconds, stats.execute_seconds) << ")";
  }
  return out.str();
}

}  // namespace hique::obs
