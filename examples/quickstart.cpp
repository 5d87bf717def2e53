// Quickstart: three backscatter tags transmit concurrently, the receiver
// separates and decodes them, and the acknowledgement drives Algorithm 1's
// power control. Walks the public API end to end in ~60 lines of logic.
#include <cstdio>
#include <string>

#include "core/obs.h"
#include "core/system.h"

using namespace cbma;

int main() {
  // 1. Configure the cell — defaults mirror the paper's implementation
  //    (2 GHz carrier, 20 MHz subcarrier shift, 1 Mbps tags, 2NC codes).
  core::SystemConfig config;
  config.max_tags = 3;

  // 2. Deploy: excitation source at (-0.5, 0), receiver at (0.5, 0)
  //    (the paper's Fig. 3 frame), three tags at different ranges.
  auto deployment = rfsim::Deployment::paper_frame();
  deployment.add_tag({0.0, 0.4});    // close — strong backscatter
  deployment.add_tag({0.3, -0.7});   // mid-range
  deployment.add_tag({-0.2, 1.0});   // far — weakest
  core::CbmaSystem system(config, deployment);

  std::printf("CBMA quickstart — %s\n\n", config.summary().c_str());
  for (std::size_t i = 0; i < deployment.tag_count(); ++i) {
    std::printf("tag %zu: d1=%.2fm d2=%.2fm SNR=%.1f dB\n", i,
                deployment.es_to_tag(i), deployment.tag_to_rx(i),
                system.snr_db(i));
  }

  // 3. One collided transmission: every tag sends its own payload at the
  //    same time in the same band. TransmitOptions can also pin per-tag
  //    delays or restrict the transmitting subset; every field left empty
  //    picks the randomized default.
  Rng rng(7);
  const std::vector<std::vector<std::uint8_t>> payloads{
      {'h', 'e', 'l', 'l', 'o'},
      {'w', 'o', 'r', 'l', 'd'},
      {'c', 'b', 'm', 'a', '!'},
  };
  core::TransmitOptions options;
  options.payloads = payloads;
  const auto report = system.transmit(options, rng);

  std::printf("\ncollided round: frame %sdetected\n",
              report.frame_start ? "" : "NOT ");
  for (const auto& r : report.results) {
    std::string text(r.payload.begin(), r.payload.end());
    std::printf("  tag %zu: detected=%s corr=%.2f crc=%s payload=\"%s\"\n",
                r.tag_index, r.detected ? "yes" : "no", r.correlation,
                r.crc_ok ? "ok" : "bad", r.crc_ok ? text.c_str() : "-");
  }
  std::printf("ACK broadcast for tags:");
  for (const auto id : report.ack.decoded_tags) std::printf(" %zu", id);
  std::printf("\n");

  // 4. Run a packet batch, then let Algorithm 1 equalize the received
  //    power levels via the tags' impedance switches.
  const auto before = system.run_packets(100, rng);
  const auto outcome = system.run_power_control({}, 40, rng);
  const auto after = system.run_packets(100, rng);

  std::printf("\npower control (Algorithm 1):\n");
  std::printf("  FER before: %.3f\n", before.frame_error_rate());
  std::printf("  rounds used: %zu (cap 3x tags)%s\n", outcome.rounds,
              outcome.exhausted ? ", exhausted" : "");
  for (std::size_t i = 0; i < deployment.tag_count(); ++i) {
    std::printf("  tag %zu impedance level: %zu (SNR now %.1f dB)\n", i,
                system.impedance_level(i), system.snr_db(i));
  }
  std::printf("  FER after : %.3f\n", after.frame_error_rate());

  // 5. Peek inside the pipeline: enable the signal-probe layer, rerun one
  //    collided round, and dump the per-stage taps (excitation envelope,
  //    composite IQ, sync energy, correlation profiles, soft bits) plus the
  //    per-tag link-quality rows. Inspect with tools/cbma_obs.py.
  obs::set_path(obs::kProbe, "quickstart_probe.bin");
  obs::set(obs::kProbe, true);
  const auto probed = system.transmit(options, rng);
  std::printf("\nsignal probes (see quickstart_probe.bin.json):\n");
  for (std::size_t i = 0; i < probed.link_quality.size(); ++i) {
    const auto& lq = probed.link_quality[i];
    if (!lq.valid) continue;
    std::printf("  tag %zu: SNR=%.1f dB EVM=%.3f margin-ratio=%.1f\n", i,
                lq.snr_db, lq.evm, lq.margin_ratio);
  }
  if (!obs::write_exports()) return 1;
  obs::set(obs::kProbe, false);
  return 0;
}
