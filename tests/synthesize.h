// Shared test helper: one synthesized window through the channel's only
// synthesis entry point, Channel::receive_into, under continuous-tone
// excitation with no interferers and fresh scratch buffers.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "rfsim/channel.h"
#include "rfsim/excitation.h"
#include "util/rng.h"

namespace cbma::test {

inline std::vector<std::complex<double>> synthesize(
    const rfsim::Channel& channel, std::span<const rfsim::TagTransmission> tags,
    Rng& rng) {
  const rfsim::ContinuousTone tone;
  rfsim::ChannelScratch scratch;
  std::vector<std::complex<double>> iq;
  channel.receive_into(tags, tone, {}, rng, scratch, iq);
  return iq;
}

}  // namespace cbma::test
