// Self-tests of the benchmark's own arithmetic and output checks. Run
// with `python3 perfbench/run.py --selftest`; exits nonzero on the first
// failed expectation.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "math/rng.h"
#include "stats.h"
#include "stats/latency_histogram.h"
#include "trace.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, double tol, const std::string& what) {
  expect(std::fabs(got - want) <= tol,
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

// ---- percentile and quartile math -----------------------------------------

// Oracle: nearest rank straight off a sorted copy.
double oracle_rank(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  std::size_t rank = 1;
  while (static_cast<double>(rank) < p / 100.0 * static_cast<double>(v.size())) ++rank;
  return v[rank - 1];
}

void test_percentiles() {
  pqs::math::Rng rng(7);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u}) {
    std::vector<double> v(n);
    for (auto& x : v) x = static_cast<double>(rng.next() % 100000);
    for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      expect(perfbench::percentile(v, p) == oracle_rank(v, p),
             "percentile n=" + std::to_string(n) + " p=" + std::to_string(p));
    }
  }
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  // Interquartile mean: ranks 3..8 of 1..10 by nearest rank (25% -> rank
  // 3, 75% -> rank 8) average to 5.5; a wild extreme does not move it.
  expect_near(perfbench::interquartile_mean(ten), 5.5, 1e-15, "iqm 1..10");
  std::vector<double> wild = ten;
  wild[0] = 1e9;
  wild[9] = -1e9;
  expect_near(perfbench::interquartile_mean(wild), 5.5, 1e-15, "iqm ignores extremes");
  {
    std::vector<double> v(101);
    for (auto& x : v) x = static_cast<double>(rng.next() % 1000);
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    double sum = 0;
    for (std::size_t i = 25; i < 76; ++i) sum += s[i];  // ranks 26..76
    expect_near(perfbench::interquartile_mean(v), sum / 51, 1e-9, "iqm oracle");
  }

  // The interpolated library-histogram percentile stays inside the bucket
  // holding the exact order statistic, and is exact below 64 ns.
  pqs::stats::LatencyHistogram coarse;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t x = 50000 + rng.next() % 150000;
    coarse.record(x);
    samples.push_back(static_cast<double>(x));
  }
  for (const double p : {50.0, 99.0}) {
    const double exact = oracle_rank(samples, p);
    const auto bucket = pqs::stats::LatencyHistogram::index_of(
        static_cast<std::uint64_t>(exact));
    const double lo = static_cast<double>(
        pqs::stats::LatencyHistogram::bucket_low(bucket));
    const double hi =
        lo + static_cast<double>(pqs::stats::LatencyHistogram::bucket_width(bucket));
    const double got = perfbench::interpolated_percentile(coarse, p);
    expect(got >= lo && got <= hi, "interpolated percentile in bucket p=" +
                                       std::to_string(p));
    expect(std::fabs(got - exact) / exact < 0.02,
           "interpolated percentile near exact p=" + std::to_string(p));
  }
  pqs::stats::LatencyHistogram small;
  for (std::uint64_t x : {3, 9, 9, 12, 40}) small.record(x);
  expect(perfbench::interpolated_percentile(small, 50.0) == 9.0,
         "interpolated percentile exact below 64");
}

// ---- self time ---------------------------------------------------------------

perfbench::Span span(std::uint64_t start, std::uint64_t end, std::int64_t parent) {
  perfbench::Span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // 0: root [0, 100)
  // 1: child [10, 40) of 0, with grandchild 2 [15, 25)
  // 3: child [30, 60) of 0 (overlaps child 1: union [10, 60) = 50)
  // 4: child [90, 130) of 0 (sticks out: covers only [90, 100) = 10)
  // 5: child [50, 55) of 0 (nested inside 3: adds nothing)
  const std::vector<perfbench::Span> spans = {
      span(0, 100, -1), span(10, 40, 0), span(15, 25, 1),
      span(30, 60, 0),  span(90, 130, 0), span(50, 55, 0)};
  const auto self = perfbench::self_times(spans);
  expect_near(self[0], 100 - 50 - 10, 0, "root self time");
  expect_near(self[1], 30 - 10, 0, "child self time minus grandchild");
  expect_near(self[2], 10, 0, "leaf self time");
  expect_near(self[3], 30, 0, "overlapping child self time");
  expect_near(self[4], 40, 0, "protruding child self time");

  const auto rows = perfbench::layer_table(spans, 200.0);
  expect(rows.size() == 1 && rows[0].spans == 6 && rows[0].calls == 6,
         "layer table groups by name");
  expect_near(rows[0].total_ns, 100 + 30 + 10 + 30 + 40 + 5, 0, "layer total");
  expect_near(rows[0].self_ns, 40 + 20 + 10 + 30 + 40 + 5, 0, "layer self");
  expect_near(rows[0].wall_share, (40 + 20 + 10 + 30 + 40 + 5) / 200.0, 1e-12,
              "layer share");
}

// ---- output checks on doctored input ------------------------------------

void test_checks() {
  // Exactly once.
  expect(!perfbench::check_exactly_once(100, 100, 150, 160).ok,
         "applied must equal submitted");
  expect(perfbench::check_exactly_once(100, 100, 160, 160).ok, "exactly once ok");
  expect(!perfbench::check_exactly_once(100, 99, 100, 100).ok, "a missing reply fails");
  expect(!perfbench::check_exactly_once(100, 101, 100, 100).ok, "a duplicate reply fails");

  // Stale bound: zero epsilon admits nothing; a count at the mean passes;
  // a count well above the bound fails.
  expect(perfbench::stale_bound(0.0, 1000000) == 0.0, "strict bound is zero");
  expect(perfbench::check_stale(0, 1000000, 0.0).ok, "no stale reads on strict");
  expect(!perfbench::check_stale(1, 1000000, 0.0).ok, "one stale read on strict fails");
  const double eps = 4.2e-4;
  const std::uint64_t reads = 1000000;
  const double bound = perfbench::stale_bound(eps, reads);
  expect(bound > eps * reads && bound < 1.5 * eps * reads, "bound above the mean");
  expect(perfbench::check_stale(static_cast<std::uint64_t>(eps * reads), reads, eps).ok,
         "stale count at the mean passes");
  expect(!perfbench::check_stale(static_cast<std::uint64_t>(bound) + 1, reads, eps).ok,
         "stale count above the bound fails");

  // Wilson: an estimate far from the closed form fails.
  pqs::math::Proportion good, bad;
  good.add(1900, 10000);
  bad.add(2300, 10000);
  expect(perfbench::check_wilson("x", good, 0.19).ok, "wilson contains");
  expect(!perfbench::check_wilson("x", bad, 0.19).ok, "wilson misses");
  expect(!perfbench::check_wilson("x", pqs::math::Proportion{}, 0.19).ok,
         "empty estimate fails");

  // Shard aggregates: equal passes; any field or size mismatch fails.
  std::vector<pqs::serve::ShardAggregate> a(4), b(4);
  for (std::size_t s = 0; s < 4; ++s) {
    a[s].reads = b[s].reads = 10 + s;
    a[s].access_checksum = b[s].access_checksum = 1000 * s;
  }
  expect(perfbench::check_aggregates_equal(a, b).ok, "equal aggregates");
  b[2].stale_reads = 1;
  expect(!perfbench::check_aggregates_equal(a, b).ok, "a mismatched field fails");
  b[2].stale_reads = 0;
  b.pop_back();
  expect(!perfbench::check_aggregates_equal(a, b).ok, "a missing shard fails");

  expect(!perfbench::all_ok({{"a", true, ""}, {"b", false, ""}}), "all_ok");
}

// ---- the stall watchdog ----------------------------------------------------

struct ChildRun {
  int exit_code = -1;
  std::string out;
};

// Runs `body` in a child process and collects its stdout and exit code.
template <typename Body>
ChildRun run_child(Body body) {
  int fds[2];
  ChildRun r;
  if (pipe(fds) != 0) return r;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    body();
    std::fflush(stdout);
    _exit(0);
  }
  close(fds[1]);
  char buf[512];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) r.out.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

void test_watchdog() {
  using namespace std::chrono_literals;
  // A closed loop that lost a reply: 16 sent, 15 answered, no more
  // progress. The watchdog fails the run with the counts.
  const ChildRun lost = run_child([] {
    perfbench::StallWatchdog watchdog(0.1, [] {
      return perfbench::StallWatchdog::Counts{16, 15};
    });
    std::this_thread::sleep_for(5s);
  });
  expect(lost.exit_code == 1, "a stalled loop exits 1");
  expect(lost.out.find("exactly_once") != std::string::npos &&
             lost.out.find("FAIL") != std::string::npos &&
             lost.out.find("sent 16, answered 15") != std::string::npos,
         "a stalled loop reports a failed exactly_once verdict: " + lost.out);
  expect(lost.out.size() > 0 && lost.out.back() == '\n' &&
             lost.out.substr(lost.out.rfind('\n', lost.out.size() - 2) + 1) ==
                 "{\"correct\": false, \"attempted\": 16, \"failed\": 1, "
                 "\"metrics\": {}}\n",
         "a stalled loop ends with a failed result line: " + lost.out);
  // A duplicate reply: more answers than requests.
  const ChildRun twice = run_child([] {
    perfbench::StallWatchdog watchdog(0.1, [] {
      return perfbench::StallWatchdog::Counts{16, 17};
    });
    std::this_thread::sleep_for(5s);
  });
  expect(twice.exit_code == 1 &&
             twice.out.find("\"failed\": 1,") != std::string::npos,
         "a duplicate reply fails the run: " + twice.out);
  // A loop that keeps kicking is left alone.
  const ChildRun live = run_child([] {
    perfbench::StallWatchdog watchdog(0.2, [] {
      return perfbench::StallWatchdog::Counts{1, 1};
    });
    for (int i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(25ms);
      watchdog.kick();
    }
  });
  expect(live.exit_code == 0 && live.out.empty(),
         "a live loop is not stopped: " + live.out);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_checks();
  test_watchdog();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d self-test expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
