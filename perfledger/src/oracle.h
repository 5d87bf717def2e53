// Output checks for the ledger's workloads. Each returns an empty string
// when the output is correct and a one-line reason otherwise; the workloads
// count every non-empty answer as a failed operation, so a run never
// reports a timing for work whose output was wrong.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/network.h"
#include "rx/receiver.h"

namespace perfledger {

/// cell_packets: one result per group code, in code order, and the ACK
/// lists exactly the codes whose result is crc_ok.
std::string check_cell_report(const cbma::rx::RxReport& report, std::size_t codes);

/// crc_ok results whose payload differs from the one that slot sent: a
/// corrupted frame the 16-bit CRC and the in-frame id let through (about one
/// in 65 536 corrupted frames passes the CRC). The protocol allows these, so
/// they are counted and printed, not failed.
std::size_t false_accepts(const cbma::rx::RxReport& report,
                          std::span<const std::vector<std::uint8_t>> sent);

/// floor_rounds: one result per cell; each served slot sent exactly
/// `packets_per_round` frames and acked no more than it sent; served and
/// total tag counts agree between the cells and the round.
std::string check_floor_round(const cbma::net::NetworkRoundResult& result,
                              std::size_t cells, std::size_t tags,
                              std::size_t packets_per_round);

/// The set-up twin check: identical per-cell sent/acked and aggregate
/// goodput (compared exactly) between two rounds.
std::string compare_rounds(const cbma::net::NetworkRoundResult& a,
                           const cbma::net::NetworkRoundResult& b);

/// What one rx_stream report decoded, relative to the start of the injected
/// window it belongs to — the part that must repeat on every pass.
struct WindowDigest {
  std::uint64_t frame_offset = 0;  ///< sync trigger − window start
  std::vector<int> outcomes;       ///< DecodeOutcome per group code
  std::vector<std::vector<std::uint8_t>> payloads;  ///< per code (crc_ok only)
  std::vector<std::size_t> acked;

  bool operator==(const WindowDigest&) const = default;
};

WindowDigest digest(const cbma::rx::RxReport& report, std::uint64_t window_start);

/// rx_stream: at most one report per injected window, and on later passes
/// the digest equals the first pass's (a window lost on pass 1 must stay
/// lost). A window without a report is a missed frame sync, not a wrong
/// output: its frames count as undecoded.
std::string check_stream_window(std::size_t reports, const WindowDigest& got,
                                const WindowDigest* first_pass);

/// false_accepts() of a digested report.
std::size_t false_accepts(const WindowDigest& got,
                          std::span<const std::vector<std::uint8_t>> sent);

}  // namespace perfledger
