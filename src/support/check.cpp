#include "support/check.hpp"

#include <cstdio>
#include <mutex>
#include <vector>

namespace dps {

namespace {

struct CheckRecord {
  std::string claim;
  bool ok = false;
};

std::mutex g_checkMutex;
std::vector<CheckRecord> g_checks; // guarded by g_checkMutex

} // namespace

void check(bool ok, const std::string& claim) {
  std::lock_guard<std::mutex> lock(g_checkMutex);
  std::printf("[CHECK] %-70s %s\n", claim.c_str(), ok ? "PASS" : "FAIL");
  g_checks.push_back({claim, ok});
}

void writeChecks(JsonWriter& w) {
  std::lock_guard<std::mutex> lock(g_checkMutex);
  w.key("checks").beginArray();
  for (const CheckRecord& c : g_checks)
    w.beginObject().field("claim", c.claim).field("pass", c.ok).endObject();
  w.endArray();
}

std::size_t checkSummary() {
  std::lock_guard<std::mutex> lock(g_checkMutex);
  std::size_t failed = 0;
  for (const CheckRecord& c : g_checks) failed += c.ok ? 0 : 1;
  if (failed > 0)
    std::printf("\n%zu check(s) FAILED\n", failed);
  else
    std::printf("\nall %zu checks passed\n", g_checks.size());
  return failed;
}

} // namespace dps
