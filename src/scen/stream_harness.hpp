// scen: the stream-scenario harness.
//
// Plays a kStream scenario's SimB sessions word-by-word straight into an
// ICAP artifact sitting on a minimal DPR testbench (region boundary, both
// engines, portal, DCR chain — no CPU, no IcapCTRL: the harness *is* the
// controller, which is what lets a scenario pace the transfer with an
// arbitrary word gap and so sweep the error-injection window length).
// Every obs event of the run is captured, ready for the coverage model.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "obs/event.hpp"
#include "scenario.hpp"

namespace autovision::scen {

struct StreamResult {
    std::uint64_t swaps = 0;
    std::uint64_t aborts = 0;
    std::uint64_t truncations = 0;
    std::uint64_t captures = 0;
    std::uint64_t restores = 0;
    std::size_t diagnostics = 0;  ///< scheduler diagnostics (reports)
    std::vector<std::string> diagnostic_text;  ///< "source: message" lines
    std::vector<obs::Event> events;
    rtlsim::Time clk_period = 0;
    rtlsim::Time sim_time = 0;
    rtlsim::SimStats stats;
};

/// Run a kStream scenario to completion. `cancel` (optional) aborts the
/// playback cooperatively between words.
[[nodiscard]] StreamResult run_stream_scenario(
    const Scenario& scenario, const std::atomic<bool>* cancel = nullptr);

}  // namespace autovision::scen
