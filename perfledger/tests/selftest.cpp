// Self-tests of the ledger's percentile helper and output oracles.
// Exit status 0 when every check holds.
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "oracle.h"
#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

std::vector<double> iota_values(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void test_nearest_rank() {
  const auto v = iota_values(10);
  expect(perfledger::nearest_rank(v, 0.5) == 5.0, "p50 of 1..10 is 5");
  expect(perfledger::nearest_rank(v, 0.9) == 9.0, "p90 of 1..10 is 9 (q*n integral)");
  expect(perfledger::nearest_rank(v, 0.91) == 10.0, "p91 of 1..10 rounds up to 10");
  expect(perfledger::nearest_rank(v, 1.0) == 10.0, "p100 is the maximum");
  expect(perfledger::nearest_rank(std::vector<double>{7.0}, 0.9) == 7.0,
         "one sample is every percentile");
  expect(perfledger::nearest_rank(std::vector<double>{3, 1, 2}, 0.5) == 2.0,
         "input order does not matter");
  expect(perfledger::nearest_rank(std::vector<double>{}, 0.5) == 0.0, "empty gives 0");
}

void test_median_and_blocks() {
  expect(perfledger::median(std::vector<double>{3, 1, 2}) == 2.0, "odd median");
  expect(perfledger::median(std::vector<double>{4, 1, 3, 2}) == 2.5, "even median");
  const auto b = perfledger::block_bounds(25, 10);
  expect(b.size() == 11 && b.front() == 0 && b.back() == 25, "bounds cover [0, n)");
  expect(b[1] == 3 && b[5] == 15 && b[6] == 17, "first n % blocks blocks are longer");
  expect(perfledger::block_bounds(3, 10).size() == 4, "fewer samples than blocks");
}

void test_blocked_percentile() {
  // 1..100 in ten blocks: block k holds 10k+1..10k+10, its p90 is 10k+9 and
  // one sample lies beyond it; the median of 9, 19, ..., 99 is 54.
  const auto v = iota_values(100);
  const auto p90 = perfledger::blocked_percentile(v, 0.9);
  expect(p90.value == 54.0, "blocked p90 is the median of the block p90s");
  expect(p90.n == 100 && p90.beyond == 10, "blocked p90 counts n and samples beyond");
  expect(p90.reportable(), "ten samples beyond make p90 reportable");
  const auto p50 = perfledger::blocked_percentile(v, 0.5);
  expect(p50.value == 50.0 && p50.beyond == 50, "blocked p50 of 1..100");

  const auto short_run = perfledger::blocked_percentile(iota_values(99), 0.9);
  expect(!short_run.reportable(), "99 samples leave fewer than ten beyond p90");

  // One slow block moves the block median far less than the whole-run tail.
  std::vector<double> spiky(100, 1.0);
  for (std::size_t i = 0; i < 10; ++i) spiky[i] = 50.0;
  expect(perfledger::blocked_percentile(spiky, 0.9).value == 1.0,
         "a burst confined to one block does not move the blocked p90");
  expect(perfledger::nearest_rank(spiky, 0.91) == 50.0,
         "the same burst sets the whole-run tail");

  const std::vector<double> ones(20, 1.0);
  std::vector<double> busy(20, 2.0);
  expect(perfledger::blocked_rate(ones, busy) == 0.5, "blocked rate of equal blocks");
}

cbma::rx::RxReport good_report(const std::vector<std::vector<std::uint8_t>>& sent) {
  cbma::rx::RxReport r;
  r.frame_start = 100;
  r.results.resize(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    r.results[i].tag_index = i;
    r.results[i].detected = true;
    if (i % 2 == 0) {
      r.results[i].crc_ok = true;
      r.results[i].outcome = cbma::rx::DecodeOutcome::kOk;
      r.results[i].payload = sent[i];
      r.ack.decoded_tags.push_back(i);
    } else {
      r.results[i].outcome = cbma::rx::DecodeOutcome::kBadCrc;
    }
  }
  return r;
}

void test_cell_oracle() {
  const std::vector<std::vector<std::uint8_t>> sent{{1, 2}, {3, 4}, {5, 6}};
  const auto good = good_report(sent);
  expect(perfledger::check_cell_report(good, sent.size()).empty(), "a correct report passes");

  auto extra_ack = good;
  extra_ack.ack.decoded_tags.push_back(1);
  expect(!perfledger::check_cell_report(extra_ack, sent.size()).empty(),
         "an ACK for a frame that failed CRC trips the oracle");

  auto missing_ack = good;
  missing_ack.ack.decoded_tags.clear();
  expect(!perfledger::check_cell_report(missing_ack, sent.size()).empty(),
         "a decoded frame left out of the ACK trips the oracle");

  auto out_of_order = good;
  std::swap(out_of_order.results[0], out_of_order.results[1]);
  expect(!perfledger::check_cell_report(out_of_order, sent.size()).empty(),
         "results out of code order trip the oracle");

  expect(perfledger::false_accepts(good, sent) == 0, "correct payloads are no false accepts");
  auto wrong_payload = good;
  wrong_payload.results[0].payload[0] ^= 0xFF;
  wrong_payload.results[1].payload = {9, 9};  // not crc_ok: never a false accept
  expect(perfledger::false_accepts(wrong_payload, sent) == 1,
         "a crc_ok frame with a corrupted payload is one false accept");

  auto short_report = good;
  short_report.results.pop_back();
  expect(!perfledger::check_cell_report(short_report, sent.size()).empty(),
         "a missing result trips the oracle");
}

void test_stream_oracle() {
  const std::vector<std::vector<std::uint8_t>> sent{{1, 2}, {3, 4}, {5, 6}};
  const auto d = perfledger::digest(good_report(sent), 60);
  expect(d.frame_offset == 40, "digest keeps the trigger relative to its window");
  expect(perfledger::check_stream_window(1, d, nullptr).empty(),
         "a correct first-pass window passes");
  expect(perfledger::check_stream_window(1, d, &d).empty(),
         "an identical later pass passes");
  expect(!perfledger::check_stream_window(2, d, nullptr).empty(),
         "two reports for one window trip the oracle");
  const perfledger::WindowDigest lost;
  expect(perfledger::check_stream_window(0, lost, nullptr).empty(),
         "a window lost on pass 1 counts as undecoded, not as a failure");
  expect(perfledger::check_stream_window(0, lost, &lost).empty(),
         "a window lost on every pass passes");
  expect(!perfledger::check_stream_window(0, lost, &d).empty(),
         "a window decoded on pass 1 and lost later trips the oracle");
  expect(!perfledger::check_stream_window(1, d, &lost).empty(),
         "a window lost on pass 1 and reported later trips the oracle");
  auto drifted = d;
  drifted.frame_offset += 1;
  expect(!perfledger::check_stream_window(1, drifted, &d).empty(),
         "a sync trigger that drifts between passes trips the oracle");
  auto tampered = good_report(sent);
  tampered.results[2].payload[1] ^= 0x01;
  const auto tampered_digest = perfledger::digest(tampered, 60);
  expect(perfledger::false_accepts(tampered_digest, sent) == 1,
         "a corrupted crc_ok payload in a window is one false accept");
  expect(!perfledger::check_stream_window(1, tampered_digest, &d).empty(),
         "a payload that changes between passes trips the oracle");
}

void test_floor_oracle() {
  cbma::net::NetworkRoundResult round;
  round.cells.resize(1);
  auto& cell = round.cells[0];
  cell.tags_served = 2;
  cell.tags_total = 3;
  cell.members = {0, 1, 2};
  cell.stats = cbma::core::RoundStats(2);
  cell.stats.record(0, true);
  cell.stats.record(1, false);
  round.tags_served = 2;
  round.tags_total = 3;
  expect(perfledger::check_floor_round(round, 1, 3, 1).empty(), "a consistent round passes");

  auto extra_frame = round;
  extra_frame.cells[0].stats.record(0, true);
  expect(!perfledger::check_floor_round(extra_frame, 1, 3, 1).empty(),
         "a slot that sent two frames in a one-packet round trips the oracle");

  auto miscount = round;
  miscount.tags_served = 3;
  expect(!perfledger::check_floor_round(miscount, 1, 3, 1).empty(),
         "a served count that disagrees with the cells trips the oracle");

  expect(perfledger::compare_rounds(round, round).empty(), "a round equals itself");
  auto other = round;
  other.aggregate_goodput_bps += 1.0;
  expect(!perfledger::compare_rounds(round, other).empty(),
         "twin rounds with different goodput trip the oracle");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_median_and_blocks();
  test_blocked_percentile();
  test_cell_oracle();
  test_stream_oracle();
  test_floor_oracle();
  std::printf("%s (%d failures)\n", g_failures ? "FAILED" : "ok", g_failures);
  return g_failures ? 1 : 0;
}
