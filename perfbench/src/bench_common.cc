#include "bench_common.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

void TrimHeap() { malloc_trim(0); }

bool SameTopK(const std::vector<koios::core::ResultEntry>& a,
              const std::vector<koios::core::ResultEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].set != b[i].set || a[i].score != b[i].score ||
        a[i].exact != b[i].exact) {
      return false;
    }
  }
  return true;
}

void Report::Wrong(const std::string& what) {
  correct = false;
  ++wrong_results;
  if (notes.size() < 32) notes.push_back("wrong result: " + what);
  std::fprintf(stderr, "WRONG RESULT: %s\n", what.c_str());
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteMetrics(std::FILE* f, const char* key,
                  const std::map<std::string, Report::Metric>& metrics) {
  std::fprintf(f, "  %s: {", JsonString(key).c_str());
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                 first ? "" : ",", JsonString(name).c_str(),
                 JsonNumber(m.value).c_str(), JsonString(m.unit).c_str());
    first = false;
  }
  std::fprintf(f, "\n  },\n");
}

}  // namespace

bool Report::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"correct\": %s,\n  \"attempted\": %llu,\n",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted));
  std::fprintf(f, "  \"failed\": %llu,\n  \"wrong_results\": %llu,\n",
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(wrong_results));
  WriteMetrics(f, "end_to_end", end_to_end);
  WriteMetrics(f, "per_layer", per_layer);
  std::fprintf(f, "  \"info\": {");
  bool first = true;
  for (const auto& [name, v] : info) {
    std::fprintf(f, "%s\n    %s: %s", first ? "" : ",", JsonString(name).c_str(),
                 JsonNumber(v).c_str());
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"notes\": [");
  for (size_t i = 0; i < notes.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i > 0 ? "," : "", JsonString(notes[i]).c_str());
  }
  std::fprintf(f, "\n  ],\n  \"build\": {\"compiler\": %s, \"build_type\": %s, "
               "\"cxx_flags\": %s}\n}\n",
               JsonString(PERFBENCH_COMPILER).c_str(),
               JsonString(PERFBENCH_BUILD_TYPE).c_str(),
               JsonString(PERFBENCH_CXX_FLAGS).c_str());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
