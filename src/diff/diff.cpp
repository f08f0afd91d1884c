#include "diff.hpp"

#include "bus/dcr.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "engines/census_engine.hpp"
#include "engines/engine_regs.hpp"
#include "engines/matching_engine.hpp"
#include "kernel/clock.hpp"
#include "obs/recorder.hpp"
#include "recon/isolation.hpp"
#include "recon/rr_boundary.hpp"
#include "resim/icap_artifact.hpp"
#include "resim/portal.hpp"
#include "sys/address_map.hpp"
#include "vm/virtual_mux.hpp"

namespace autovision::diff {

using rtlsim::Time;
using rtlsim::Word;

const char* to_string(DiffFault f) {
    switch (f) {
        case DiffFault::kNone: return "none";
        case DiffFault::kVmNoSigInit: return "vm-no-sig-init";
        case DiffFault::kIsolationMissing: return "isolation-missing";
        case DiffFault::kWrongModuleMap: return "wrong-module-map";
        case DiffFault::kCount: break;
    }
    return "?";
}

DiffFault fault_from_string(const std::string& s, bool* ok) {
    for (unsigned i = 0; i < static_cast<unsigned>(DiffFault::kCount); ++i) {
        const auto f = static_cast<DiffFault>(i);
        if (s == to_string(f)) {
            if (ok != nullptr) *ok = true;
            return f;
        }
    }
    if (ok != nullptr) *ok = false;
    return DiffFault::kNone;
}

namespace {

constexpr Time kClk = 10 * rtlsim::NS;

// Probe geometry: one 16x16 frame pair at fixed addresses, one output
// window per probe index. Margin 4 keeps the ME grid non-empty at 16x16.
constexpr unsigned kProbeW = 16;
constexpr unsigned kProbeH = 16;
constexpr std::uint32_t kProbeSrcA = 0x4'0000;
constexpr std::uint32_t kProbeSrcB = 0x4'1000;
constexpr std::uint32_t kProbeDstBase = 0x5'0000;
constexpr std::uint32_t kProbeDstStride = 0x1000;
constexpr unsigned kProbeOutBytes = 64;
constexpr std::uint32_t kMeParam = 2u | (4u << 8) | (4u << 16);

[[nodiscard]] constexpr unsigned slot_of(std::uint8_t module_id) {
    return module_id == 1 ? 0u : 1u;
}

/// The hardware both sides share: the minimal DPR stack of the stream
/// harness plus the isolation module (so a correct ReSim-side driver can
/// keep reconfiguration X off the bus).
struct Fixture {
    rtlsim::Scheduler sch;
    rtlsim::Clock clk{sch, "clk", kClk};
    rtlsim::ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem{Memory::Config{0, 1u << 20, 4}};
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{2, 16, 1u << 30}};
    rtlsim::Signal<rtlsim::Logic> done_line{sch, "done_line",
                                            rtlsim::Logic::L0};
    DcrChain dcr{sch, "dcr", clk.out, rst.out};
    Isolation iso{sch, "iso", sys::kDcrIso};
    EngineRegs cie_regs{sch, "cie_regs", clk.out, 0x60};
    EngineRegs me_regs{sch, "me_regs", clk.out, 0x68};
    CensusEngine cie{sch, "cie", clk.out, rst.out, cie_regs};
    MatchingEngine me{sch, "me", clk.out, rst.out, me_regs};
    RrBoundary rr{sch, "rr", plb.master(1), done_line};
    obs::EventRecorder rec;

    Fixture() {
        plb.attach_slave(mem);
        dcr.attach(cie_regs);
        dcr.attach(me_regs);
        dcr.attach(iso);
        rr.add_module(cie);
        rr.add_module(me);
        rr.set_isolation_signal(iso.isolate);
        rec.set_enabled(true);
        rr.set_observer(&rec);
        dcr.set_observer(&rec);
        iso.set_observer(&rec);
        load_probe_images();
    }

    void load_probe_images() {
        std::vector<std::uint8_t> img(kProbeW * kProbeH);
        std::uint32_t s = 0x0123'4567u;
        for (std::uint8_t& b : img) {
            s = s * 1664525u + 1013904223u;
            b = static_cast<std::uint8_t>(s >> 24);
        }
        mem.load_bytes(kProbeSrcA, img);
        for (std::uint8_t& b : img) {
            s = s * 1664525u + 1013904223u;
            b = static_cast<std::uint8_t>(s >> 24);
        }
        mem.load_bytes(kProbeSrcB, img);
    }

    void run_cycles(unsigned n) { sch.run_until(sch.now() + n * kClk); }

    [[nodiscard]] bool cancelled(const DiffOptions& opt) const {
        return opt.cancel != nullptr &&
               opt.cancel->load(std::memory_order_relaxed);
    }

    void wait_dcr() {
        for (unsigned i = 0; i < 64 && dcr.busy(); ++i) run_cycles(1);
    }

    /// One DCR transaction per session, identical on both sides (the VM
    /// side has no payload window to overlap it with, so it issues the
    /// transaction up front).
    void issue_session_traffic(const scen::StreamSession& ss) {
        if (ss.dcr == scen::DcrTraffic::kRead) {
            dcr.start_read(0x60 + EngineRegs::kStatus, [](Word) {});
        } else {
            dcr.start_write(0x60 + EngineRegs::kSrc, Word{0x1234});
        }
    }

    /// Program, start and wait out one engine job, then hash the output
    /// window. A start pulse aimed at a module that is not resident is
    /// simply lost (the bug.dpr.6b mechanism), which the early busy/done
    /// check converts into done=false without burning the full budget.
    ProbeOutcome probe(std::uint8_t module_id, unsigned index,
                       const DiffOptions& opt) {
        EngineRegs& regs = module_id == 1 ? cie_regs : me_regs;
        const std::uint32_t base = module_id == 1 ? 0x60u : 0x68u;
        const std::uint32_t dst = kProbeDstBase + index * kProbeDstStride;
        regs.dcr_write(base + EngineRegs::kSrc, Word{kProbeSrcA});
        regs.dcr_write(base + EngineRegs::kDst, Word{dst});
        regs.dcr_write(base + EngineRegs::kDims,
                       Word{(kProbeW << 16) | kProbeH});
        if (module_id == 2) {
            regs.dcr_write(base + EngineRegs::kSrc2, Word{kProbeSrcB});
            regs.dcr_write(base + EngineRegs::kParam, Word{kMeParam});
        }
        run_cycles(4);
        regs.dcr_write(base + EngineRegs::kCtrl, Word{1});
        run_cycles(64);
        unsigned waited = 64;
        if (regs.busy() || regs.done()) {
            while (!regs.done() && waited < opt.probe_budget_cycles &&
                   !cancelled(opt)) {
                run_cycles(128);
                waited += 128;
            }
        }
        ProbeOutcome out;
        out.done = regs.done();
        regs.dcr_write(base + EngineRegs::kStatus, Word{2});  // W1C done
        run_cycles(2);
        std::uint64_t h = 1469598103934665603ull;  // FNV-1a
        for (unsigned i = 0; i < kProbeOutBytes; ++i) {
            bool ok = false;
            std::uint8_t v = mem.peek_u8(dst + i, &ok);
            if (!ok) {
                ++out.x_bytes;
                v = 0xAA;  // deterministic sentinel keeps the hash stable
            }
            h = (h ^ v) * 1099511628211ull;
        }
        out.hash = h;
        return out;
    }

    void finish(SideRun& run, const DiffOptions& opt) {
        run.cancelled = run.cancelled || cancelled(opt);
        run.events = rec.snapshot();
        for (const obs::Event& e : run.events) {
            if (e.kind == obs::EventKind::kSelect &&
                e.src == obs::Source::kRrBoundary) {
                run.selects.push_back(static_cast<std::int32_t>(e.a));
            }
        }
        run.diagnostics.reserve(sch.diagnostics().size());
        for (const rtlsim::Diag& d : sch.diagnostics()) {
            run.diagnostics.push_back(d.source + ": " + d.message);
        }
        run.stats = sch.stats;
        run.sim_time = sch.now();
    }
};

}  // namespace

SideRun run_vm_side(const scen::Scenario& s, const DiffOptions& opt) {
    Fixture f;
    vm::VirtualMux vmux{f.sch, "vmux", f.rr, sys::kDcrSig};
    vmux.map_module(1, 0);
    vmux.map_module(2, 1);
    f.dcr.attach(vmux);
    // A VM wrapper has both engines instantiated; a mis-steered 2-state mux
    // drives idle levels, never X.
    f.rr.set_unselected_policy(RrBoundary::UnselectedPolicy::kIdle);

    if (opt.inject != DiffFault::kVmNoSigInit) {
        // The boot firmware's engine_signature initialisation — exactly the
        // write bug.hw.2 forgets. Like the system's power-on configuration
        // it happens at elaboration, before the first delta cycle.
        vmux.dcr_write(sys::kDcrSig, Word{1});
    }
    f.sch.run_until(8 * kClk);  // reset settles

    SideRun run;
    run.probes.push_back(f.probe(1, 0, opt));
    std::uint8_t resident = 1;
    unsigned idx = 1;
    for (const scen::StreamSession& ss : s.sessions) {
        if (f.cancelled(opt)) {
            run.cancelled = true;
            break;
        }
        // VM consumes only the swap schedule: a zero-delay signature write
        // per session that completes its swap. The SimB words, isolation
        // driving and capture/restore have no VM equivalent.
        if (scen::swap_expected(ss.corrupt)) {
            f.dcr.start_write(sys::kDcrSig, Word{ss.module_id});
            f.wait_dcr();
            resident = ss.module_id;
        }
        if (ss.dcr != scen::DcrTraffic::kNone) {
            f.issue_session_traffic(ss);
            f.wait_dcr();
        }
        f.run_cycles(16);
        run.probes.push_back(f.probe(resident, idx, opt));
        ++idx;
    }
    run.swaps = vmux.swaps();
    f.finish(run, opt);
    return run;
}

SideRun run_resim_side(const scen::Scenario& s, const DiffOptions& opt) {
    Fixture f;
    resim::ExtendedPortal portal{f.sch, "portal"};
    resim::IcapArtifact icap{f.sch, "icap", portal};
    const bool swap_map = opt.inject == DiffFault::kWrongModuleMap;
    portal.map_module(1, 1, f.rr, swap_map ? 1u : 0u);
    portal.map_module(1, 2, f.rr, swap_map ? 0u : 1u);
    portal.set_observer(&f.rec);
    icap.set_observer(&f.rec);

    // Power-on full configuration loads the CIE — at elaboration, before
    // the first delta cycle, or the unconfigured region (all-X under ReSim)
    // would drive X onto the PLB during reset settle.
    portal.initial_configuration(1, 1);

    f.sch.run_until(8 * kClk);  // reset settles

    SideRun run;
    run.probes.push_back(f.probe(1, 0, opt));
    std::uint8_t resident = 1;
    unsigned idx = 1;
    const bool drive_iso = opt.inject != DiffFault::kIsolationMissing;
    for (const scen::StreamSession& ss : s.sessions) {
        if (f.cancelled(opt)) {
            run.cancelled = true;
            break;
        }
        // The correct driver isolates the region across the bitstream
        // transfer; skipping these two writes is bug.dpr.1.
        if (drive_iso) f.iso.dcr_write(sys::kDcrIso, Word{1});
        const std::vector<Word> words = ss.words();
        bool traffic_pending = ss.dcr != scen::DcrTraffic::kNone;
        for (const Word& w : words) {
            if (f.cancelled(opt)) break;
            icap.icap_write(w);
            if (traffic_pending && icap.payload_pending() && !f.dcr.busy()) {
                traffic_pending = false;
                f.issue_session_traffic(ss);
            }
            f.run_cycles(ss.word_gap);
        }
        f.run_cycles(16);  // in-flight DCR token and boundary settle
        if (drive_iso) {
            f.iso.dcr_write(sys::kDcrIso, Word{0});
            f.run_cycles(2);
        }
        if (scen::swap_expected(ss.corrupt)) resident = ss.module_id;
        run.probes.push_back(f.probe(resident, idx, opt));
        ++idx;
    }
    run.swaps = portal.reconfigurations();
    run.aborts = portal.aborts();
    run.captures = portal.captures();
    run.restores = portal.restores();
    f.finish(run, opt);
    return run;
}

std::vector<int> expected_selects(const scen::Scenario& s) {
    std::vector<int> v{0};  // initial configuration: CIE in slot 0
    for (const scen::StreamSession& ss : s.sessions) {
        if (scen::swap_expected(ss.corrupt)) {
            v.push_back(static_cast<int>(slot_of(ss.module_id)));
        }
    }
    return v;
}

std::size_t simb_word_count(const scen::Scenario& s) {
    std::size_t n = 0;
    for (const scen::StreamSession& ss : s.sessions) n += ss.words().size();
    return n;
}

}  // namespace autovision::diff
