// Self-test of the dpbench span math and sample statistics (trace.h).
//
// Self time is a span's duration minus the union of its direct children's
// intervals clipped to it; the cases below pin nested, overlapping,
// overhanging and foreign children against hand-computed answers. Exits 0
// when every check holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  } else {
    std::printf("ok   %s = %.6g\n", what, got);
  }
}

dpbench::Span span(std::uint64_t id, std::uint64_t parent, double start,
                   double end) {
  dpbench::Span s;
  s.name = "s" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.op = 1;
  s.start_us = start;
  s.end_us = end;
  return s;
}

}  // namespace

int main() {
  using dpbench::self_time_us;
  using dpbench::union_length;

  expect_near("union of nothing", union_length({}), 0);
  expect_near("union of disjoint", union_length({{0, 1}, {2, 4}}), 3);
  expect_near("union of overlapping", union_length({{0, 3}, {2, 5}, {1, 2}}), 5);
  expect_near("union of touching", union_length({{0, 1}, {1, 2}}), 2);
  expect_near("union ignores empty", union_length({{3, 3}, {5, 4}}), 0);

  const dpbench::Span root = span(1, 0, 0, 100);
  // No children: all self.
  expect_near("leaf self", self_time_us(root, {root}), 100);
  // Two disjoint children.
  expect_near("disjoint children",
              self_time_us(root, {root, span(2, 1, 10, 30), span(3, 1, 50, 60)}),
              70);
  // Overlapping children count their union once: [10,40) + [30,60) = 50.
  expect_near("overlapping children",
              self_time_us(root, {root, span(2, 1, 10, 40), span(3, 1, 30, 60)}),
              50);
  // Grandchildren are not direct children of the root. Inside the child
  // [10, 50) they overlap ([20, 30) and [25, 70) clipped to [25, 50)), so
  // they cover [20, 50) of it.
  const std::vector<dpbench::Span> nested = {
      root, span(2, 1, 10, 50), span(3, 2, 20, 30), span(4, 2, 25, 70)};
  expect_near("nested: root self", self_time_us(root, nested), 60);
  expect_near("nested: child self", self_time_us(nested[1], nested), 10);
  // Children hanging over the parent's edges are clipped to it.
  expect_near("overhanging children",
              self_time_us(root, {root, span(2, 1, -20, 10), span(3, 1, 90, 130)}),
              80);
  // Spans of another parent are ignored; a child covering everything
  // leaves no self time.
  expect_near("foreign spans",
              self_time_us(root, {root, span(2, 9, 0, 100), span(3, 1, 0, 100)}),
              0);

  // Quantiles match Python's statistics.quantiles(method="inclusive").
  const std::vector<double> v = {5, 1, 4, 2, 3};
  expect_near("median", dpbench::quantile(v, 0.5), 3);
  expect_near("q1", dpbench::quantile(v, 0.25), 2);
  expect_near("p90", dpbench::quantile(v, 0.9), 4.6);
  expect_near("beyond p90 of 100", static_cast<double>(dpbench::samples_beyond(100, 0.9)), 10);
  expect_near("beyond p99 of 1000", static_cast<double>(dpbench::samples_beyond(1000, 0.99)), 10);

  std::printf("%s (%d failure%s)\n", failures ? "FAILED" : "PASSED", failures,
              failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
