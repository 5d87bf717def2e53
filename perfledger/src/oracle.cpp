#include "oracle.h"

#include <algorithm>

namespace perfledger {

using cbma::rx::DecodeOutcome;

std::string check_cell_report(const cbma::rx::RxReport& report, std::size_t codes) {
  if (report.results.size() != codes) {
    return "report has " + std::to_string(report.results.size()) + " results for " +
           std::to_string(codes) + " group codes";
  }
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const auto& r = report.results[i];
    if (r.tag_index != i) return "result " + std::to_string(i) + " out of order";
    if (r.crc_ok != (r.outcome == DecodeOutcome::kOk)) {
      return "code " + std::to_string(i) + ": crc_ok disagrees with its outcome";
    }
    if (r.crc_ok) ok.push_back(i);
  }
  auto acked = report.ack.decoded_tags;
  std::sort(acked.begin(), acked.end());
  if (acked != ok) return "ACK disagrees with crc_ok";
  return {};
}

std::size_t false_accepts(const cbma::rx::RxReport& report,
                          std::span<const std::vector<std::uint8_t>> sent) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < report.results.size() && i < sent.size(); ++i) {
    n += report.results[i].crc_ok && report.results[i].payload != sent[i] ? 1 : 0;
  }
  return n;
}

std::string check_floor_round(const cbma::net::NetworkRoundResult& result,
                              std::size_t cells, std::size_t tags,
                              std::size_t packets_per_round) {
  if (result.cells.size() != cells) return "round has the wrong cell count";
  std::size_t served = 0, total = 0;
  for (const auto& cell : result.cells) {
    const std::string where = "cell " + std::to_string(cell.gateway_id) + ": ";
    if (cell.stats.sent.size() != cell.tags_served ||
        cell.stats.acked.size() != cell.tags_served) {
      return where + "stats do not cover the served slots";
    }
    for (std::size_t k = 0; k < cell.tags_served; ++k) {
      if (cell.stats.sent[k] != packets_per_round) {
        return where + "a served slot sent the wrong frame count";
      }
      if (cell.stats.acked[k] > cell.stats.sent[k]) {
        return where + "a slot acked more frames than it sent";
      }
    }
    if (cell.tags_served > cell.tags_total ||
        cell.members.size() != cell.tags_total) {
      return where + "served/member counts disagree";
    }
    served += cell.tags_served;
    total += cell.tags_total;
  }
  if (served != result.tags_served || total != result.tags_total ||
      total != tags) {
    return "round tag counts disagree with its cells";
  }
  return {};
}

std::string compare_rounds(const cbma::net::NetworkRoundResult& a,
                           const cbma::net::NetworkRoundResult& b) {
  if (a.cells.size() != b.cells.size()) return "twin rounds differ in cell count";
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    if (a.cells[c].stats.sent != b.cells[c].stats.sent ||
        a.cells[c].stats.acked != b.cells[c].stats.acked) {
      return "twin rounds differ in sent/acked of cell " + std::to_string(c);
    }
  }
  if (a.aggregate_goodput_bps != b.aggregate_goodput_bps) {
    return "twin rounds differ in aggregate goodput";
  }
  return {};
}

WindowDigest digest(const cbma::rx::RxReport& report, std::uint64_t window_start) {
  WindowDigest d;
  d.frame_offset = report.frame_start ? *report.frame_start - window_start : 0;
  for (const auto& r : report.results) {
    d.outcomes.push_back(static_cast<int>(r.outcome));
    d.payloads.push_back(r.crc_ok ? r.payload : std::vector<std::uint8_t>{});
  }
  d.acked = report.ack.decoded_tags;
  std::sort(d.acked.begin(), d.acked.end());
  return d;
}

std::string check_stream_window(std::size_t reports, const WindowDigest& got,
                                const WindowDigest* first_pass) {
  if (reports > 1) {
    return std::to_string(reports) + " reports for one injected window";
  }
  if (first_pass != nullptr && !(got == *first_pass)) {
    return "window decoded differently than on pass 1";
  }
  return {};
}

std::size_t false_accepts(const WindowDigest& got,
                          std::span<const std::vector<std::uint8_t>> sent) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < got.outcomes.size() && i < sent.size(); ++i) {
    const bool ok = got.outcomes[i] == static_cast<int>(DecodeOutcome::kOk);
    n += ok && got.payloads[i] != sent[i] ? 1 : 0;
  }
  return n;
}

}  // namespace perfledger
