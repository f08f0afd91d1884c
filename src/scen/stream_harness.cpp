#include "stream_harness.hpp"

#include "bus/dcr.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "engines/census_engine.hpp"
#include "engines/engine_regs.hpp"
#include "engines/matching_engine.hpp"
#include "kernel/clock.hpp"
#include "obs/recorder.hpp"
#include "recon/rr_boundary.hpp"
#include "resim/icap_artifact.hpp"
#include "resim/portal.hpp"

namespace autovision::scen {

namespace {

using rtlsim::Time;

constexpr Time kClk = 10 * rtlsim::NS;

/// The minimal DPR testbench run_stream_scenario plays scenarios on.
struct StreamTb {
    rtlsim::Scheduler sch;
    rtlsim::Clock clk{sch, "clk", kClk};
    rtlsim::ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem{Memory::Config{0, 1u << 20, 4}};
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{2, 16, 1u << 30}};
    rtlsim::Signal<rtlsim::Logic> done_line{sch, "done_line",
                                            rtlsim::Logic::L0};
    DcrChain dcr{sch, "dcr", clk.out, rst.out};
    EngineRegs cie_regs{sch, "cie_regs", clk.out, 0x60};
    EngineRegs me_regs{sch, "me_regs", clk.out, 0x68};
    CensusEngine cie{sch, "cie", clk.out, rst.out, cie_regs};
    MatchingEngine me{sch, "me", clk.out, rst.out, me_regs};
    RrBoundary rr{sch, "rr", plb.master(1), done_line};
    resim::ExtendedPortal portal{sch, "portal"};
    resim::IcapArtifact icap{sch, "icap", portal};
    obs::EventRecorder rec;

    StreamTb() {
        plb.attach_slave(mem);
        dcr.attach(cie_regs);
        dcr.attach(me_regs);
        rr.add_module(cie);
        rr.add_module(me);
        portal.map_module(1, 1, rr, 0);
        portal.map_module(1, 2, rr, 1);
        portal.initial_configuration(1, 1);
        rec.set_enabled(true);
        icap.set_observer(&rec);
        portal.set_observer(&rec);
        rr.set_observer(&rec);
        dcr.set_observer(&rec);
    }
};

}  // namespace

StreamResult run_stream_scenario(const Scenario& scenario,
                                 const std::atomic<bool>* cancel) {
    StreamTb tb;
    tb.sch.run_until(8 * kClk);  // reset settles

    for (const StreamSession& ss : scenario.sessions) {
        const std::vector<rtlsim::Word> words = ss.words();
        // One DCR transaction per session, launched once the payload window
        // is open — the traffic the xwin.cross bins observe.
        bool traffic_pending = ss.dcr != DcrTraffic::kNone;
        for (const rtlsim::Word& w : words) {
            if (cancel != nullptr &&
                cancel->load(std::memory_order_relaxed)) {
                break;
            }
            tb.icap.icap_write(w);
            if (traffic_pending && tb.icap.payload_pending() &&
                !tb.dcr.busy()) {
                traffic_pending = false;
                if (ss.dcr == DcrTraffic::kRead) {
                    tb.dcr.start_read(0x60 + EngineRegs::kStatus,
                                      [](rtlsim::Word) {});
                } else {
                    tb.dcr.start_write(0x60 + EngineRegs::kSrc,
                                       rtlsim::Word{0x1234});
                }
            }
            tb.sch.run_until(tb.sch.now() + ss.word_gap * kClk);
        }
        // Let any in-flight DCR token and boundary settle between sessions.
        tb.sch.run_until(tb.sch.now() + 16 * kClk);
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            break;
        }
    }

    StreamResult res;
    res.swaps = tb.portal.reconfigurations();
    res.aborts = tb.portal.aborts();
    res.truncations = tb.icap.truncations();
    res.captures = tb.portal.captures();
    res.restores = tb.portal.restores();
    res.diagnostics = tb.sch.diagnostics().size();
    res.diagnostic_text.reserve(res.diagnostics);
    for (const rtlsim::Diag& d : tb.sch.diagnostics()) {
        res.diagnostic_text.push_back(d.source + ": " + d.message);
    }
    res.events = tb.rec.snapshot();
    res.clk_period = kClk;
    res.sim_time = tb.sch.now();
    res.stats = tb.sch.stats;
    return res;
}

}  // namespace autovision::scen
