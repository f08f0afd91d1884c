#include "campaigns.hpp"

#include <bit>
#include <memory>
#include <sstream>
#include <string>

#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "ckpt/checkpoint.hpp"
#include "diff/classify.hpp"
#include "diff/repro.hpp"
#include "diff/shrink.hpp"
#include "engines/census_engine.hpp"
#include "engines/matching_engine.hpp"
#include "kernel/kernel.hpp"
#include "recon/icap_ctrl.hpp"
#include "recon/rr_boundary.hpp"
#include "resim/icap_artifact.hpp"
#include "resim/portal.hpp"
#include "resim/simb.hpp"
#include "sink.hpp"

namespace autovision::campaign {

namespace {

using rtlsim::Time;

/// A do-nothing error source: a 2-state simulator's view of DPR, unable to
/// express erroneous outputs while the bitstream is being written.
struct NoErrorInjector final : ErrorInjector {
    void inject(RrOutputs& o) override { o = RrOutputs::idle(); }
    const char* name() const override { return "no-x (2-state ablation)"; }
};

JobReport report_from_run(const sys::RunResult& r) {
    JobReport rep;
    rep.pass = r.clean();
    rep.verdict = r.verdict();
    rep.stats = r.stats;
    rep.stages = r.stages;
    rep.sim_time = r.sim_time;
    if (r.traced) r.metrics.to_metric_map(rep.metrics);
    return rep;
}

/// Per-job copy of the base config: jobs tracing to a shared directory get
/// distinct output files (trace_path is treated as a directory here).
sys::SystemConfig job_config(const sys::SystemConfig& base,
                             const std::string& job_name) {
    sys::SystemConfig cfg = base;
    if (!cfg.trace_path.empty()) {
        cfg.trace_path += "/" + job_name + ".json";
    }
    return cfg;
}

/// Expected plain-ReSim detection per the catalogue.
bool expected_resim_detected(const sys::FaultInfo& fi) {
    return fi.expected != sys::ExpectedDetection::kVmFalseAlarm;
}

// ---------------------------------------------------------------------------
// Minimal DPR testbench for the SimB campaigns (no CPU: the job drives the
// IcapCTRL DCR registers directly). One instance per job, never shared.
// ---------------------------------------------------------------------------

constexpr Time kClk = 10 * rtlsim::NS;

struct DprTb {
    rtlsim::Scheduler sch;
    rtlsim::Clock clk{sch, "clk", kClk};
    rtlsim::ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem{Memory::Config{0, 64u << 20, 4}};
    Plb plb;
    rtlsim::Signal<rtlsim::Logic> done_line{sch, "done_line",
                                            rtlsim::Logic::L0};
    EngineRegs cie_regs{sch, "cie_regs", clk.out, 0x60};
    EngineRegs me_regs{sch, "me_regs", clk.out, 0x68};
    CensusEngine cie{sch, "cie", clk.out, rst.out, cie_regs};
    MatchingEngine me{sch, "me", clk.out, rst.out, me_regs};
    RrBoundary rr{sch, "rr", plb.master(1), done_line};
    resim::ExtendedPortal portal{sch, "portal"};
    resim::IcapArtifact icap{sch, "icap", portal};
    IcapCtrl ctrl;

    std::unique_ptr<obs::EventRecorder> rec;

    explicit DprTb(IcapCtrl::Config cfg, unsigned bus_max_burst = 16,
                   bool trace = false)
        : plb(sch, "plb", clk.out, rst.out,
              Plb::Config{2, bus_max_burst, 1u << 30}),
          ctrl(sch, "icapctrl", clk.out, rst.out, plb.master(0), icap, cfg) {
        plb.attach_slave(mem);
        rr.add_module(cie);
        rr.add_module(me);
        portal.map_module(1, 1, rr, 0);
        portal.map_module(1, 2, rr, 1);
        portal.initial_configuration(1, 1);
        if (trace) {
            rec = std::make_unique<obs::EventRecorder>();
            rec->set_enabled(true);
            icap.set_observer(rec.get());
            portal.set_observer(rec.get());
            rr.set_observer(rec.get());
        }
    }

    /// Fold recorded events into the job's metric map (no-op untraced).
    void fold_metrics(std::map<std::string, double>& out) const {
        if (!rec) return;
        obs::Metrics m = obs::Metrics::from_events(rec->snapshot(), kClk);
        m.events_dropped = rec->dropped();
        m.to_metric_map(out);
    }

    /// One full reconfiguration to the ME; returns simulated duration, or 0
    /// on failure (no swap / cancelled).
    Time reconfigure(std::uint32_t payload_words, const JobContext& ctx) {
        resim::SimB b;
        b.rr_id = 1;
        b.module_id = 2;
        b.payload_words = payload_words;
        const auto words = b.build();
        mem.load_words(0x100000, words);
        sch.run_until(sch.now() + 10 * kClk);
        const Time t0 = sch.now();
        ctrl.dcr_write(0x52, rtlsim::Word{0x100000});
        ctrl.dcr_write(
            0x53, rtlsim::Word{static_cast<std::uint32_t>(words.size() * 4)});
        ctrl.dcr_write(0x50, rtlsim::Word{1});
        const std::uint64_t swaps0 = portal.reconfigurations();
        // Generous budget: fetch + drain.
        const Time budget =
            (static_cast<Time>(words.size()) * (ctrl.config().clk_div + 4) +
             10000) * kClk;
        while (sch.now() - t0 < budget && !ctx.cancelled()) {
            sch.run_until(sch.now() + 256 * kClk);
            if (!ctrl.busy() && portal.reconfigurations() > swaps0) break;
        }
        if (portal.reconfigurations() == swaps0) return 0;
        return sch.now() - t0;
    }
};

}  // namespace

sys::SystemConfig small_system_config() {
    sys::SystemConfig cfg;
    cfg.width = 32;
    cfg.height = 24;
    cfg.step = 4;
    cfg.margin = 8;
    cfg.search = 2;
    cfg.simb_payload_words = 100;
    return cfg;
}

std::vector<SimJob> fault_catalog_jobs(const sys::SystemConfig& base,
                                       unsigned frames) {
    std::vector<SimJob> jobs;
    jobs.reserve(sys::kFaultCatalog.size());
    for (const sys::FaultInfo& fi : sys::kFaultCatalog) {
        SimJob job;
        job.name = std::string("fault.") + fi.id;
        job.params = {{"fault", fi.id},
                      {"frames", std::to_string(frames)},
                      {"description", fi.description}};
        job.body = [base, fault = fi.fault,
                    frames](const JobContext& ctx) -> JobReport {
            // Two runs share this job; a single trace file would collide.
            sys::SystemConfig cfg = base;
            cfg.trace_path.clear();
            const sys::DetectionOutcome o =
                sys::run_detection(cfg, fault, frames, ctx.cancel_flag());
            JobReport rep;
            rep.pass = o.matches_expectation();
            rep.verdict = o.row();
            rep.stats = o.vm.stats + o.resim.stats;
            rep.stages = o.vm.stages;
            rep.stages += o.resim.stages;
            rep.sim_time = o.vm.sim_time + o.resim.sim_time;
            rep.metrics = {{"vm_detected", o.vm_detected() ? 1.0 : 0.0},
                           {"resim_detected", o.resim_detected() ? 1.0 : 0.0}};
            if (o.vm.traced || o.resim.traced) {
                obs::Metrics m = o.vm.metrics;
                m += o.resim.metrics;
                m.to_metric_map(rep.metrics);
            }
            return rep;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SimJob> resim_no_x_jobs(const sys::SystemConfig& base,
                                    unsigned frames) {
    std::vector<SimJob> jobs;
    jobs.reserve(sys::kFaultCatalog.size());
    for (const sys::FaultInfo& fi : sys::kFaultCatalog) {
        SimJob job;
        job.name = std::string("nox.") + fi.id;
        job.params = {{"fault", fi.id},
                      {"frames", std::to_string(frames)},
                      {"ablation", "no-x"}};
        // Without X propagation only bug.dpr.1 (isolation) escapes; every
        // other ReSim detection survives the 2-state downgrade.
        const bool expect_detected =
            expected_resim_detected(fi) &&
            fi.fault != sys::Fault::kDpr1NoIsolation;
        job.body = [base, name = job.name, fault = fi.fault, frames,
                    expect_detected](const JobContext& ctx) -> JobReport {
            sys::SystemConfig cfg =
                sys::config_for_fault(job_config(base, name), fault);
            cfg.method = sys::FirmwareConfig::Method::kResim;
            sys::Testbench tb(cfg);
            tb.sys.rr.set_error_injector(std::make_unique<NoErrorInjector>());
            tb.set_cancel_flag(ctx.cancel_flag());
            const sys::RunResult r = tb.run(frames);
            JobReport rep = report_from_run(r);
            const bool detected = !r.clean();
            rep.pass = detected == expect_detected;
            rep.metrics["nox_detected"] = detected ? 1.0 : 0.0;
            rep.metrics["expect_detected"] = expect_detected ? 1.0 : 0.0;
            return rep;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SimJob> simb_sweep_jobs(const std::vector<std::uint32_t>& payloads,
                                    bool trace) {
    std::vector<SimJob> jobs;
    jobs.reserve(payloads.size());
    for (const std::uint32_t payload : payloads) {
        SimJob job;
        job.name = "simb.p" + std::to_string(payload);
        job.params = {{"payload_words", std::to_string(payload)}};
        job.body = [payload, trace](const JobContext& ctx) -> JobReport {
            IcapCtrl::Config cfg;
            cfg.clk_div = 1;
            cfg.fifo_depth = 32;
            DprTb tb(cfg, 16, trace);
            const Time dpr = tb.reconfigure(payload, ctx);
            JobReport rep;
            rep.pass = dpr != 0;
            rep.verdict = rep.pass ? "clean" : "[no module swap]";
            rep.stats = tb.sch.stats;
            rep.stages.dpr_sim = dpr;
            rep.sim_time = tb.sch.now();
            rep.metrics = {
                {"payload_words", static_cast<double>(payload)},
                {"total_words", static_cast<double>(
                                    resim::SimB::length_for_payload(payload))},
                {"dpr_ms", rtlsim::to_ms(dpr)},
                {"swap", rep.pass ? 1.0 : 0.0}};
            tb.fold_metrics(rep.metrics);
            return rep;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SimJob> simb_corner_jobs(bool trace) {
    struct Corner {
        unsigned fifo;
        unsigned div;
        bool p2p;
        unsigned bus_max;  // 0 = unbounded point-to-point link
        bool expect_swap;
        const char* note;
    };
    // Expectations match the Section IV-B narrative: backpressure holds on
    // the shared bus; the p2p slow-drain corner overflows the FIFO and the
    // bug.dpr.4 corner truncates the transfer — neither may swap.
    static constexpr Corner kCorners[] = {
        {32, 1, false, 16, true, "shared, balanced (reference)"},
        {32, 4, false, 16, true,
         "shared, slow config clock (backpressure holds)"},
        {8, 1, false, 16, true,
         "shared, shallow FIFO (burst-sized backpressure)"},
        {8, 8, false, 16, true, "shared, shallow + very slow drain"},
        {32, 1, true, 0, true, "original design: p2p IP on its dedicated link"},
        {8, 4, true, 0, false, "p2p link but slow drain: FIFO overflow corner"},
        {32, 1, true, 16, false,
         "bug.dpr.4: p2p IP on the shared bus (truncates)"},
    };

    std::vector<SimJob> jobs;
    unsigned index = 0;
    for (const Corner& c : kCorners) {
        SimJob job;
        job.name = "simb.corner." + std::to_string(index++);
        job.params = {{"fifo", std::to_string(c.fifo)},
                      {"clk_div", std::to_string(c.div)},
                      {"ip_mode", c.p2p ? "p2p" : "shared"},
                      {"bus", c.bus_max == 0 ? "dedicated" : "shared 16-beat"},
                      {"note", c.note}};
        job.body = [c, trace](const JobContext& ctx) -> JobReport {
            IcapCtrl::Config cfg;
            cfg.fifo_depth = c.fifo;
            cfg.clk_div = c.div;
            cfg.p2p_mode = c.p2p;
            cfg.burst_words = std::min(16u, c.fifo);
            DprTb tb(cfg, c.bus_max, trace);
            const Time dpr = tb.reconfigure(1024, ctx);
            const bool swap = dpr != 0;
            JobReport rep;
            rep.pass = swap == c.expect_swap;
            rep.verdict = rep.pass
                              ? "clean"
                              : (swap ? "[unexpected module swap]"
                                      : "[expected swap did not happen]");
            rep.stats = tb.sch.stats;
            rep.stages.dpr_sim = dpr;
            rep.sim_time = tb.sch.now();
            rep.metrics = {
                {"swap", swap ? 1.0 : 0.0},
                {"expect_swap", c.expect_swap ? 1.0 : 0.0},
                {"overflows", static_cast<double>(tb.ctrl.fifo_overflows())},
                {"dpr_ms", rtlsim::to_ms(dpr)}};
            tb.fold_metrics(rep.metrics);
            return rep;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SimJob> workload_grid_jobs(const std::vector<WorkloadCell>& grid,
                                       const sys::SystemConfig& base) {
    std::vector<SimJob> jobs;
    jobs.reserve(grid.size());
    for (const WorkloadCell& cell : grid) {
        SimJob job;
        job.name = "workload." + std::to_string(cell.width) + "x" +
                   std::to_string(cell.height) + ".f" +
                   std::to_string(cell.frames);
        job.params = {{"width", std::to_string(cell.width)},
                      {"height", std::to_string(cell.height)},
                      {"frames", std::to_string(cell.frames)}};
        job.body = [base, name = job.name,
                    cell](const JobContext& ctx) -> JobReport {
            sys::SystemConfig cfg = job_config(base, name);
            cfg.width = cell.width;
            cfg.height = cell.height;
            sys::Testbench tb(cfg);
            tb.set_cancel_flag(ctx.cancel_flag());
            return report_from_run(tb.run(cell.frames));
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SimJob> seed_sweep_jobs(const sys::SystemConfig& base,
                                    std::uint32_t first_seed,
                                    std::uint32_t num_seeds, unsigned frames) {
    std::vector<SimJob> jobs;
    jobs.reserve(num_seeds);
    for (std::uint32_t s = 0; s < num_seeds; ++s) {
        const std::uint32_t seed = first_seed + s;
        SimJob job;
        job.name = "seed." + std::to_string(seed);
        job.params = {{"seed", std::to_string(seed)},
                      {"frames", std::to_string(frames)}};
        job.body = [base, name = job.name, seed,
                    frames](const JobContext& ctx) -> JobReport {
            sys::SystemConfig cfg = job_config(base, name);
            cfg.seed = seed;  // canonical seed; scene derives from it
            sys::Testbench tb(cfg, /*scene_seed=*/seed);
            tb.set_cancel_flag(ctx.cancel_flag());
            return report_from_run(tb.run(frames));
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SimJob> diff_batch_jobs(const DiffCampaignConfig& cfg) {
    // Seed-domain separation for the diff campaign's scenario stream.
    constexpr std::uint64_t kTagDiff = 0x4449'4646'0000ull;  // "DIFF"

    scen::ScenarioConstraints cons;
    cons.w_stream = 1;  // the oracle drives SimB streams only
    cons.w_system = 0;
    cons.w_fault = 0;
    cons.min_sessions = cfg.min_sessions;
    cons.max_sessions = cfg.max_sessions;

    std::vector<SimJob> jobs;
    jobs.reserve(cfg.count);
    for (unsigned i = 0; i < cfg.count; ++i) {
        const std::uint64_t seed = rtlsim::derive_seed(cfg.seed, kTagDiff + i);
        const std::string name = "diff.s" + std::to_string(i);
        SimJob job;
        job.name = name;
        char seed_hex[24];
        std::snprintf(seed_hex, sizeof seed_hex, "0x%016llx",
                      static_cast<unsigned long long>(seed));
        job.params = {{"scenario_seed", seed_hex},
                      {"inject", diff::to_string(cfg.inject)}};
        job.body = [cfg, cons, seed, name](const JobContext& ctx) {
            JobReport rep;
            diff::DiffOptions dopt;
            dopt.inject = cfg.inject;
            dopt.cancel = ctx.cancel_flag();
            const scen::Scenario sc = scen::generate(cons, seed);
            const diff::DiffOutcome out = diff::run_diff(sc, dopt);
            rep.stats = out.vm.stats;
            rep.stats += out.resim.stats;
            rep.sim_time = out.vm.sim_time + out.resim.sim_time;
            rep.metrics["sessions"] = static_cast<double>(sc.sessions.size());
            rep.metrics["orig_words"] =
                static_cast<double>(diff::simb_word_count(sc));
            rep.metrics["genuine"] = out.report.genuine();
            rep.metrics["expected"] = out.report.expected();
            rep.metrics["genuine_vm"] = out.report.genuine_on(diff::Side::kVm);
            rep.metrics["genuine_resim"] =
                out.report.genuine_on(diff::Side::kResim);
            if (out.report.cancelled) {
                rep.pass = false;
                rep.verdict = "cancelled";
                return rep;
            }
            if (out.report.genuine() == 0) {
                // An injected fault some scenarios cannot express (e.g. no
                // payload window for X to escape from) is not a job
                // failure; the batch-level >=1-genuine expectation is the
                // runner's --expect-genuine check.
                rep.pass = true;
                rep.verdict = cfg.inject == diff::DiffFault::kNone
                                  ? "clean"
                                  : "injected fault not expressed by this "
                                    "scenario";
                return rep;
            }
            // Genuine divergence: delta-debug it down to a minimal
            // reproducer before reporting.
            diff::ShrinkOptions sopt;
            sopt.diff = dopt;
            const diff::ShrinkResult shr = diff::shrink(sc, sopt);
            rep.metrics["shrink_runs"] = shr.runs;
            rep.metrics["shrunk_words"] =
                static_cast<double>(shr.minimal_words);
            if (shr.original_words > 0) {
                rep.metrics["shrink_ratio"] =
                    static_cast<double>(shr.minimal_words) /
                    static_cast<double>(shr.original_words);
            }
            rep.verdict = out.report.first_genuine();
            bool wrote = true;
            if (!cfg.repro_dir.empty() && shr.diverged) {
                diff::ReproBundle b = diff::make_bundle(
                    shr.minimal, shr.outcome.report, cfg.inject,
                    shr.original_words, shr.minimal_words);
                b.scenario.name = name;
                std::string err;
                wrote = diff::write_repro_files(b, cfg.repro_dir, name, &err);
                if (!wrote) rep.verdict = "repro write failed: " + err;
            }
            // Clean design: a genuine divergence is the finding (fail).
            // Injected fault: flagging + shrinking it is the pass.
            rep.pass = cfg.inject != diff::DiffFault::kNone && shr.diverged &&
                       wrote;
            return rep;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::uint64_t diff_config_hash(const DiffCampaignConfig& cfg) {
    std::uint64_t h = rtlsim::snap_hash64("campaign.diff.v1");
    h = rtlsim::snap_hash64_u64(cfg.seed, h);
    h = rtlsim::snap_hash64_u64(cfg.count, h);
    h = rtlsim::snap_hash64_u64(static_cast<std::uint64_t>(cfg.inject), h);
    h = rtlsim::snap_hash64_u64(cfg.min_sessions, h);
    h = rtlsim::snap_hash64_u64(cfg.max_sessions, h);
    return h;
}

namespace {
constexpr char kDiffSection[] = "diff.done";
}  // namespace

std::string DiffProgress::save(const DiffCampaignConfig& cfg) const {
    ckpt::Manifest m;
    m.config_hash = diff_config_hash(cfg);
    m.sim_time = done.size();
    ckpt::Saver saver(m);
    rtlsim::SnapWriter& w = saver.section(kDiffSection);
    w.u32(static_cast<std::uint32_t>(done.size()));
    for (const auto& [idx, d] : done) {
        w.u32(idx);
        w.bool8(d.passed);
        w.u32(static_cast<std::uint32_t>(d.metrics.size()));
        for (const auto& [key, value] : d.metrics) {
            w.str(key);
            w.u64(std::bit_cast<std::uint64_t>(value));
        }
        w.str(d.verdict_line);
    }
    std::ostringstream os;
    return saver.write_to(os) ? os.str() : std::string();
}

bool DiffProgress::restore(const std::string& blob,
                           const DiffCampaignConfig& cfg, std::string* err) {
    const auto fail = [&](const std::string& why) {
        if (err != nullptr) *err = why;
        return false;
    };
    std::istringstream is(blob);
    ckpt::Loader loader;
    if (!loader.load(is, diff_config_hash(cfg))) return fail(loader.error());
    done.clear();
    rtlsim::SnapReader r = loader.reader(kDiffSection);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok_so_far(); ++i) {
        const std::uint32_t idx = r.u32();
        DiffScenario d;
        d.passed = r.bool8();
        const std::uint32_t nm = r.u32();
        for (std::uint32_t k = 0; k < nm && r.ok_so_far(); ++k) {
            std::string key = r.str();
            d.metrics[std::move(key)] = std::bit_cast<double>(r.u64());
        }
        d.verdict_line = r.str();
        if (idx >= cfg.count || !done.emplace(idx, std::move(d)).second) {
            return fail(std::string(kDiffSection) + ": bad scenario index");
        }
    }
    if (!r.ok() || done.size() != n) {
        return fail(std::string(kDiffSection) + ": malformed");
    }
    return true;
}

StateRead resume_diff(DiffProgress& progress, const DiffCampaignConfig& cfg,
                      const std::string& path, std::string* err) {
    std::string payload;
    const StateRead got = read_state_file(path, &payload, err);
    if (got != StateRead::kLoaded) return got;
    std::string why;
    if (!progress.restore(payload, cfg, &why)) {
        if (err != nullptr) *err = path + ": " + why;
        return StateRead::kRejected;
    }
    return StateRead::kLoaded;
}

bool run_diff_remaining(const DiffCampaignConfig& cfg,
                        const CampaignConfig& rc, DiffProgress& progress,
                        const std::string& state_path, std::string* err) {
    std::unique_ptr<JsonlSink> sink;
    if (!rc.jsonl_path.empty()) {
        sink = std::make_unique<JsonlSink>(rc.jsonl_path);
    }

    // Each job is seed-deterministic, so re-running only the scenarios with
    // no recorded verdict yields the same verdict set as an uninterrupted
    // batch.
    const std::vector<SimJob> jobs = diff_batch_jobs(cfg);
    std::vector<SimJob> remaining;
    std::vector<std::uint32_t> batch_index;
    for (std::uint32_t i = 0; i < jobs.size(); ++i) {
        if (progress.done.count(i) != 0) continue;
        remaining.push_back(jobs[i]);
        batch_index.push_back(i);
    }
    if (remaining.empty()) return true;

    bool wrote = true;
    CampaignConfig inner = rc;
    inner.jsonl_path.clear();
    // The runner serialises on_record, so `progress` and the state file are
    // only ever touched by one thread at a time.
    inner.on_record = [&](const JobRecord& rec) {
        JobRecord fixed = rec;
        fixed.index = batch_index[rec.index];
        progress.done[batch_index[rec.index]] = {
            fixed.passed(), fixed.report.metrics, to_verdict_line(fixed)};
        if (!state_path.empty() && wrote) {
            wrote = write_state_file(state_path, progress.save(cfg), err);
        }
        if (sink) sink->write(fixed);
        if (rc.on_record) rc.on_record(fixed);
    };
    (void)CampaignRunner(inner).run(remaining);
    return wrote;
}

}  // namespace autovision::campaign
