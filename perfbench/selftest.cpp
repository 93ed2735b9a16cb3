// The benchmark's own tests: the single-issuer per-call counts repeat
// exactly across two runs with the same seed, and hold their budgets (a
// warm cache hit is one AMO, alltoallv is p puts + p AMOs, no pool growth
// in steady state). Exit 0 when every check holds.
#include <cstdio>

#include "perfbench.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, unsigned long long got) {
  std::printf("%s  %-44s (got %llu)\n", ok ? "ok  " : "FAIL", what, got);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  constexpr unsigned long long kRanks = 3;
  for (const std::uint64_t seed : {1ull, 2ull, 977ull}) {
    const perfbench::Counts a = perfbench::probe_counts(seed);
    const perfbench::Counts b = perfbench::probe_counts(seed);
    std::printf("seed %llu: miss %llu AMOs + %llu gets, hit %llu AMOs, "
                "put %llu AMOs, alltoallv %llu puts + %llu AMOs\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(a.get_miss_amos),
                static_cast<unsigned long long>(a.get_miss_rgets),
                static_cast<unsigned long long>(a.get_hit_amos),
                static_cast<unsigned long long>(a.put_amos),
                static_cast<unsigned long long>(a.a2av_puts),
                static_cast<unsigned long long>(a.a2av_amos));
    expect(a == b, "counts repeat exactly with the same seed", 0);
    expect(a.values_ok, "probed gets return the put values", a.values_ok);
    expect(a.get_hit_amos == 1, "warm cache hit costs one AMO",
           a.get_hit_amos);
    expect(a.get_miss_amos > a.get_hit_amos, "a miss costs more than a hit",
           a.get_miss_amos);
    expect(a.put_amos > 0, "a put issues AMOs", a.put_amos);
    expect(a.a2av_puts <= kRanks, "alltoallv puts within budget p",
           a.a2av_puts);
    expect(a.a2av_amos <= kRanks, "alltoallv AMOs within budget p",
           a.a2av_amos);
    expect(a.pool_grow == 0, "no NIC pool growth in steady state",
           a.pool_grow);
  }
  std::printf("%s\n", failures == 0 ? "selftest: all checks passed"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
