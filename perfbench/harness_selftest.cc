// Checks of the benchmark's own arithmetic (harness.h) on hand-made
// inputs. run.py builds and runs this before every benchmark run; a
// failing check fails the run. Exit code 0 iff every check passes.

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileRule() {
  using perfbench::SupportedPercentile;
  // p99 needs 1000 samples (10 beyond it); p99.9 needs 10000.
  Expect(SupportedPercentile(1000, 99) == 99, "p99 supported at n=1000");
  Expect(SupportedPercentile(999, 99) == 95, "n=999 falls back to p95");
  Expect(SupportedPercentile(199, 99) == 90, "n=199 falls back to p90");
  Expect(SupportedPercentile(100, 99) == 90, "n=100 supports p90");
  Expect(SupportedPercentile(40, 99) == 75, "n=40 supports p75");
  Expect(SupportedPercentile(20, 99) == 50, "n=20 supports the median");
  Expect(SupportedPercentile(19, 99) == 0, "n=19 supports nothing");
  Expect(SupportedPercentile(1'000'000, 99) == 99, "never above the wanted one");
  Expect(SupportedPercentile(10'000, 99.9) == 99.9, "p99.9 at n=10000");

  // Weighted nearest rank: 990 results at 1 us and 10 at 100 us. The
  // p99 rank is 990, so p99 is 1 us; p99.9 (rank 999) is 100 us.
  perfbench::WeightedSamples s;
  s.Add(100.0, 10);
  s.Add(1.0, 990);
  Expect(s.count() == 1000, "weighted count");
  Expect(Near(s.Percentile(99), 1.0), "weighted p99");
  Expect(Near(s.Percentile(99.9), 100.0), "weighted p99.9");
  Expect(Near(s.Percentile(50), 1.0), "weighted median");
  double used = 0;
  Expect(Near(s.SupportedAt(99.9, &used), 1.0) && used == 99, "p99.9 falls back to p99");

  // Interquartile mean trims a quarter from each end: of 8 values the
  // lowest 2 and highest 2 go, leaving 2 3 4 5.
  Expect(Near(perfbench::InterquartileMean({100, 1, 5, 4, 3, 6, 2, -50}), 3.5),
         "interquartile mean");
  Expect(Near(perfbench::InterquartileMean({7}), 7), "iqm of one");
  Expect(Near(perfbench::Median({3, 1, 2}), 2), "odd median");
  Expect(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "even median");

  // Fast phase over 100 chunks: 60 slow ones at rate 1 and 40 fast
  // ones at rate 2. p90 has ten chunks beyond it and lands in the fast
  // phase; so does p10 of the latencies (2 fast, 1 slow). The share of
  // fast chunks may fall to 11 of 100 and the figure stays.
  std::vector<double> rates(60, 1.0), latencies(60, 2.0);
  rates.resize(100, 2.0);
  latencies.resize(100, 1.0);
  Expect(Near(perfbench::FastPhase(rates, true), 2.0), "fast-phase rate");
  Expect(Near(perfbench::FastPhase(latencies, false), 1.0), "fast-phase latency");
  std::vector<double> few_fast(89, 1.0);
  few_fast.resize(100, 2.0);
  Expect(Near(perfbench::FastPhase(few_fast, true), 2.0), "eleven fast chunks suffice");
  // 40 chunks support only p75 (ten beyond it): rank 30 of 1..40.
  std::vector<double> ramp;
  for (int i = 1; i <= 40; ++i) ramp.push_back(i);
  Expect(Near(perfbench::FastPhase(ramp, true), 30.0), "40 chunks: p75");
  Expect(Near(perfbench::FastPhase(ramp, false), 10.0), "40 chunks: p25");
  Expect(Near(perfbench::FastPhase({5, 1, 3}, true), 3.0), "too few chunks: median");
  Expect(Near(perfbench::PlainPercentile({4, 1, 3, 2}, 50), 2.0), "nearest-rank median");
}

void Attribution() {
  // Chain row T0(k,v) T1(k,v) T2(k,v): tags at offsets 1, 3, 5. The
  // largest tag is the last contributor, wherever it sits.
  std::vector<size_t> tags = {1, 3, 5};
  punctsafe::Tuple a({7, 40, 7, 12, 7, 31});
  Expect(perfbench::LastContributor(a, tags) == 40, "last contributor first");
  punctsafe::Tuple b({7, 5, 7, 99, 7, 31});
  Expect(perfbench::LastContributor(b, tags) == 99, "last contributor middle");
  // Key values larger than every tag must not be taken for tags.
  punctsafe::Tuple c({1000, 5, 1000, 6, 1000, 7});
  Expect(perfbench::LastContributor(c, tags) == 7, "keys ignored");
}

void Lateness() {
  // 1000 events/s from t0 = 0: event i is due at i ms.
  perfbench::OpenLoop ol(0, 1000.0, 500'000'000);
  Expect(ol.Due(0) == 0 && ol.Due(3) == 3'000'000, "due times");
  Expect(ol.NoteSent(0, 0) == 0, "on time");
  Expect(ol.NoteSent(1, 500'000) == 0, "early counts as on time");
  // A 5 ms stall: event 2 goes out at 7 ms, 5 ms late.
  Expect(ol.NoteSent(2, 7'000'000) == 5'000'000, "late by the stall");
  // Event 2's results seen at 7.1 ms: latency runs from its due time
  // (2 ms), so the stall is charged, not hidden.
  ol.NoteResults(2, 7'100'000, 4);
  // A result of event 600 (due 600 ms) lands in the second chunk.
  ol.NoteResults(600, 600'050'000, 1);
  double used = 50;
  std::vector<double> first = ol.ChunkPercentiles(50, 1, &used);
  Expect(first.size() == 1 && Near(first[0], 5100.0),
         "latency from due time, first chunk only");
  Expect(used == 0, "four samples support no percentile");
  Expect(ol.result_samples() == 5, "samples across chunks");
  std::vector<double> both = ol.ChunkPercentiles(50, 2, nullptr);
  Expect(both.size() == 2 && Near(both[1], 50.0), "second chunk");
  Expect(Near(ol.late_us().Percentile(100), 5000.0), "worst lateness 5 ms");
}

void Digest() {
  perfbench::MultisetDigest a, b, c;
  for (uint64_t h : {1, 2, 2, 3}) a.Add(h);
  for (uint64_t h : {3, 2, 1, 2}) b.Add(h);
  Expect(a == b, "order independent");
  for (uint64_t h : {1, 2, 3, 3}) c.Add(h);
  Expect(!(a == c), "multiplicity matters");
  perfbench::MultisetDigest d, e;
  d.Add(1);
  d.Add(2);
  e.Add(2);
  e.Add(3);
  d += e;
  Expect(d == a, "parts add");
}

void Ledger() {
  // 10 s on the wire; ProcessLine 6 s of which the registry is 4 s of
  // which the executors are 3 s; formatting 1 s. Socket and event loop
  // keep 10 - 6 - 1 = 3 s.
  perfbench::ServerReplayTimes t;
  t.wire_s = 10;
  t.protocol_s = 6;
  t.format_s = 1;
  t.registry_s = 4;
  t.exec_s = 3;
  perfbench::ServerShares s = perfbench::SplitServerLedger(t);
  Expect(Near(s.exec, 0.3), "exec share");
  Expect(Near(s.registry, 0.1), "registry self share");
  Expect(Near(s.protocol, 0.2), "protocol self share");
  Expect(Near(s.format, 0.1), "format share");
  Expect(Near(s.socket, 0.3), "socket share");
  Expect(Near(s.exec + s.registry + s.protocol + s.format + s.socket, 1.0), "shares sum to 1");
  t.wire_s = 0;
  s = perfbench::SplitServerLedger(t);
  Expect(s.socket == 0 && s.exec == 0, "no wire time, no shares");

  perfbench::SpanTotals spans[] = {{600, 3}, {300, 1}};
  Expect(Near(perfbench::Coverage(spans, 1000), 0.9), "coverage");
}

}  // namespace

int main() {
  PercentileRule();
  Attribution();
  Lateness();
  Digest();
  Ledger();
  if (failures != 0) {
    std::fprintf(stderr, "harness selftest: %d failures\n", failures);
    return 1;
  }
  std::fprintf(stderr, "harness selftest: ok\n");
  return 0;
}
