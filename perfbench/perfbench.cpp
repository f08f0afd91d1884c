// Repository benchmark driver.
//
// Times the simulator's public entry points from outside — Testbench,
// OpticalFlowSystem, Memory, ClosureLoop::run_batch, OpticalFlowSystem
// save/restore — and reads the counters the modules already expose. It
// prints raw per-op samples as one JSON object on its last stdout line;
// perfbench/run.py turns them into the benchmark's metrics and checks.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Frame workloads (frame_table2, frame_small, pool_regions4): one op is a
// fresh Testbench elaboration, a one-frame run and the teardown. With
// --trace 1 the loop alternates an untraced op and a traced op (scheduler
// profiling and structured event tracing on) and adds the checkpoint round
// trip and the standalone Memory / OpticalFlowSystem constructor timings.
//
// closure_seed7: the CI coverage-closure grid (seed 7, 5 batches of 10
// scenarios, target 95%) driven through ClosureLoop::run_batch; one op is
// one campaign job. One reference campaign on a different worker count
// pins verdict lines and coverage JSON byte for byte, and one untimed
// warm-up campaign on the measured worker count precedes the timed ones.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bus/memory.hpp"
#include "campaign/closure.hpp"
#include "campaign/sink.hpp"
#include "sys/address_map.hpp"
#include "sys/testbench.hpp"
#include "vip/scoreboard.hpp"

namespace {

using namespace autovision;
using Clock = std::chrono::steady_clock;

double secs(std::chrono::nanoseconds d) {
    return std::chrono::duration<double>(d).count();
}

// --- minimal JSON writer -----------------------------------------------------

class Json {
public:
    Json& obj(const char* key = nullptr) { return open(key, '{'); }
    Json& arr(const char* key = nullptr) { return open(key, '['); }
    Json& end(char close) {
        os_ << close;
        first_.pop_back();
        return *this;
    }
    Json& num(const char* key, double v) {
        sep(key);
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        os_ << buf;
        return *this;
    }
    Json& num(const char* key, std::uint64_t v) {
        sep(key);
        os_ << v;
        return *this;
    }
    Json& boolean(const char* key, bool v) {
        sep(key);
        os_ << (v ? "true" : "false");
        return *this;
    }
    Json& str(const char* key, const std::string& v) {
        sep(key);
        quote(v);
        return *this;
    }
    /// Splice an already serialized JSON value.
    Json& raw(const char* key, const std::string& json) {
        sep(key);
        os_ << json;
        return *this;
    }
    [[nodiscard]] std::string text() const { return os_.str(); }

private:
    void quote(const std::string& v) {
        os_ << '"' << campaign::json_escape(v) << '"';
    }
    Json& open(const char* key, char c) {
        sep(key);
        os_ << c;
        first_.push_back(true);
        return *this;
    }
    void sep(const char* key) {
        if (!first_.empty()) {
            if (!first_.back()) os_ << ',';
            first_.back() = false;
        }
        if (key != nullptr) {
            quote(key);
            os_ << ':';
        }
    }

    std::ostringstream os_;
    std::vector<bool> first_;
};

void put_stats(Json& j, const rtlsim::SimStats& s) {
    j.obj("stats")
        .num("delta_cycles", s.delta_cycles)
        .num("proc_invocations", s.proc_invocations)
        .num("signal_updates", s.signal_updates)
        .num("timed_events", s.timed_events)
        .num("time_steps", s.time_steps)
        .end('}');
}

// --- process -> module attribution -------------------------------------------

constexpr const char* kModules[] = {"bus", "isa", "engines",
                                    "recon", "vip", "rrm"};
constexpr std::size_t kNumModules = std::size(kModules);

/// Module index of a registered process, from its name prefix; -1 when the
/// process belongs to no module (the traced run then fails).
int module_of(const std::string& proc) {
    const std::size_t dot = proc.find('.');
    const std::string head = proc.substr(0, dot);
    const bool pool_region =
        dot != std::string::npos && head.size() > 6 &&
        head.rfind("region", 0) == 0 &&
        head.find_first_not_of("0123456789", 6) == std::string::npos;
    if (pool_region) {
        const std::string rest = proc.substr(dot + 1);
        const std::string part = rest.substr(0, rest.find('.'));
        if (part == "census" || part == "matching" || part == "sobel" ||
            part == "flow" || part == "regs") {
            return 2;
        }
        return part == "rr" ? 3 : -1;
    }
    if (head == "plb" || head == "dcr" || head == "intc" ||
        head == "dcr_mgmt") {
        return 0;
    }
    if (head == "cpu") return 1;
    const bool regs = head.size() > 5 &&
                      head.compare(head.size() - 5, 5, "_regs") == 0;
    if (head == "cie" || head == "me" || regs) return 2;
    if (head == "rr" || head == "icapctrl") return 3;
    if (head == "video_in" || head == "video_out") return 4;
    if (head == "rrm" || head == "icap_arb") return 5;
    return -1;
}

// --- workloads ---------------------------------------------------------------

/// The system a frame workload elaborates per op; empty for any other name.
std::optional<sys::SystemConfig> frame_config(const std::string& w,
                                              std::uint64_t seed) {
    sys::SystemConfig cfg;
    cfg.seed = seed;
    if (w == "frame_table2") {
        cfg.width = 320;
        cfg.height = 200;
        cfg.step = 4;
        cfg.margin = 8;
        cfg.search = 2;
        cfg.simb_payload_words = 2048;
        cfg.icap_clk_div = 1;
        return cfg;
    }
    if (w == "frame_small") return cfg;
    if (w == "pool_regions4") {
        cfg.regions = 4;
        cfg.rrm_jobs_per_region = 8;
        return cfg;
    }
    return std::nullopt;
}

campaign::ClosureConfig closure_config() {
    campaign::ClosureConfig cc;
    cc.seed = 7;
    cc.batch_size = 10;
    cc.max_batches = 5;
    cc.target_percent = 95.0;
    return cc;
}

unsigned closure_workers() {
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// --- frame ops ---------------------------------------------------------------

/// Moves the calling thread to the next CPU of its affinity mask on each
/// next(), and restores the mask on destruction. On a shared host each vCPU
/// drifts between fast and slow phases independently for tens of seconds;
/// cycling single-threaded samples over every CPU makes a run's statistics
/// average those phases instead of following whichever CPU the thread
/// happened to land on. Threads started while pinned inherit the pin, so
/// the rotor must be gone before a campaign starts its workers.
class CpuRotor {
public:
    CpuRotor() {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
        }
    }
    ~CpuRotor() {
        if (cpus_.size() > 1) sched_setaffinity(0, sizeof all_, &all_);
    }
    CpuRotor(const CpuRotor&) = delete;
    CpuRotor& operator=(const CpuRotor&) = delete;

    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/// One frame op: elaborate, run one frame, tear down. `inspect` runs
/// untimed between the run and the teardown.
template <class Inspect>
void frame_op(Json& j, const sys::SystemConfig& cfg, Inspect&& inspect) {
    const auto t0 = Clock::now();
    auto tb = std::make_unique<sys::Testbench>(cfg);
    const auto t1 = Clock::now();
    const sys::RunResult r = tb->run(1);
    const auto t2 = Clock::now();
    j.obj();
    inspect(*tb, r);
    const auto t3 = Clock::now();
    tb.reset();
    const auto t4 = Clock::now();
    j.num("setup", secs(t1 - t0))
        .num("run", secs(t2 - t1))
        .num("teardown", secs(t4 - t3))
        .num("op", secs((t2 - t0) + (t4 - t3)))
        .num("sim_ps", std::uint64_t{r.sim_time})
        .num("sim_cycles", std::uint64_t{r.sim_time / cfg.clk_period})
        .num("frames", std::uint64_t{r.frames_completed})
        .boolean("clean", r.clean() && r.frames_completed == 1)
        .str("verdict", r.verdict());
    put_stats(j, r.stats);
    j.end('}');
}

/// Per-layer counters of a traced op (profiling + event tracing on).
void inspect_traced(Json& j, sys::Testbench& tb, const sys::RunResult& r,
                    std::map<std::string, std::chrono::nanoseconds>& procs,
                    std::vector<std::string>& unmapped) {
    std::chrono::nanoseconds self[kNumModules] = {};
    std::uint64_t inv[kNumModules] = {};
    std::chrono::nanoseconds proc_self{0};
    for (const rtlsim::Process* p : tb.sys.sch.processes()) {
        procs[p->name()] += p->self_time();
        const int m = module_of(p->name());
        if (m < 0) {
            if (std::find(unmapped.begin(), unmapped.end(), p->name()) ==
                unmapped.end()) {
                unmapped.push_back(p->name());
            }
            continue;
        }
        self[m] += p->self_time();
        inv[m] += p->invocations();
        proc_self += p->self_time();
    }
    const std::chrono::nanoseconds artifact =
        tb.sys.icap_artifact ? tb.sys.icap_artifact->self_time()
                             : std::chrono::nanoseconds{0};
    j.obj("modules");
    for (std::size_t m = 0; m < kNumModules; ++m) {
        j.obj(kModules[m])
            .num("self_s", secs(self[m]))
            .num("invocations", inv[m])
            .end('}');
    }
    j.end('}');
    j.num("process_self_s", secs(proc_self))
        .num("resim_self_s", secs(artifact));

    const isa::PpcCpu& cpu = tb.sys.cpu;
    j.num("isa_instructions", cpu.instructions())
        .num("isa_interrupts", cpu.interrupts_taken())
        .num("isa_decodes", cpu.decode_cache().decodes())
        .num("isa_stale_redecodes", cpu.decode_cache().stale_redecodes());

    const Plb::Counters& pc = tb.sys.plb.counters();
    j.num("plb_transactions", pc.transactions)
        .num("plb_beats", pc.read_beats + pc.write_beats)
        .num("plb_utilisation", tb.sys.plb.utilisation());

    const Memory& mem = tb.sys.mem;
    std::uint64_t pages = 0;
    const std::size_t n_pages =
        (mem.size_bytes() / 4 + Memory::kPageWords - 1) / Memory::kPageWords;
    for (std::size_t p = 0; p < n_pages; ++p) {
        if (mem.page_gen(p) > 0) ++pages;
    }
    j.num("pages_written", pages);

    const resim::IcapArtifact* art = tb.sys.icap_artifact.get();
    j.num("icap_words", art ? art->words_received() : 0)
        .num("simbs", art ? art->simbs_completed() : 0)
        .num("obs_events", r.metrics.events)
        .num("obs_swaps", r.metrics.swaps);

    // The golden models, timed from outside on this op's frames.
    const sys::SystemConfig& cfg = tb.sys.config();
    video::MatchConfig mc;
    mc.step = cfg.step;
    mc.margin = cfg.margin;
    mc.search = static_cast<int>(cfg.search);
    mc.patch = 1;
    std::vector<video::Frame> frames;
    for (unsigned i = 0; i < r.frames_completed; ++i) {
        frames.push_back(tb.scene.frame(i));
    }
    const auto g0 = Clock::now();
    vip::Scoreboard golden(mc, cfg.width, cfg.height, sys::kDrawThreshold);
    for (const video::Frame& f : frames) golden.expect_frame(f);
    j.num("golden_s", secs(Clock::now() - g0));
}

/// Drive a system directly to `cycles` in 32-cycle quanta (the
/// campaign_runner --ckpt-at pattern): reset, then frame 0 from the camera.
void drive_to(sys::OpticalFlowSystem& s, const video::SyntheticScene& scene,
              std::uint64_t cycles) {
    const rtlsim::Time period = s.config().clk_period;
    s.sch.run_until(8 * period);
    s.video_in.send_frame(scene.frame(0), sys::kFrameBuf);
    constexpr rtlsim::Time kQuantum = 32;
    const rtlsim::Time target = cycles * period;
    while (s.sch.now() < target && !s.sch.stop_requested()) {
        s.sch.run_until(s.sch.now() + kQuantum * period);
    }
}

/// Checkpoint round trip at a mid-frame quantum boundary, plus one save
/// attempted after a Testbench has displayed a frame.
void ckpt_checks(Json& j, const sys::SystemConfig& cfg,
                 std::uint64_t frame_cycles) {
    j.obj("ckpt");
    // The Testbench's scene, so the driven system sees the op's input.
    sys::Testbench tb(cfg);
    sys::OpticalFlowSystem a(cfg);
    drive_to(a, tb.scene, frame_cycles / 2);
    std::ostringstream blob;
    const auto s0 = Clock::now();
    const bool saved = a.save(blob);
    const auto s1 = Clock::now();
    sys::OpticalFlowSystem b(cfg);
    std::istringstream in(blob.str());
    std::string err;
    const auto r0 = Clock::now();
    const bool restored = saved && b.restore(in, &err);
    const auto r1 = Clock::now();
    std::ostringstream again;
    const bool resaved = restored && b.save(again);
    j.num("save_s", secs(s1 - s0))
        .num("restore_s", secs(r1 - r0))
        .num("blob_bytes", std::uint64_t{blob.str().size()})
        .num("at_cycle", std::uint64_t{a.sch.now() / cfg.clk_period})
        .boolean("round_trip_ok",
                 saved && restored && resaved && again.str() == blob.str())
        .str("round_trip_error", err);

    // After a displayed frame. The outcome is reported, not required.
    const sys::RunResult r = tb.run(1);
    std::ostringstream late;
    std::string late_err;
    bool late_ok = false;
    if (!tb.displayed.empty() && tb.sys.save(late)) {
        sys::OpticalFlowSystem c(cfg);
        std::istringstream lin(late.str());
        late_ok = c.restore(lin, &late_err);
    } else {
        late_err = tb.displayed.empty() ? "no frame displayed"
                                        : "save refused (not quiescent)";
    }
    j.num("displayed_frames", std::uint64_t{tb.displayed.size()})
        .boolean("after_display_run_clean", r.clean())
        .boolean("after_display_restore_ok", late_ok)
        .str("after_display_error", late_err)
        .end('}');
}

int run_frames(const std::string& w, const sys::SystemConfig& cfg,
               double seconds, bool trace) {
    sys::SystemConfig traced_cfg = cfg;
    traced_cfg.profiling = true;
    traced_cfg.trace_events = true;

    Json j;
    j.obj().str("workload", w).num("seed", cfg.seed);
    std::map<std::string, std::chrono::nanoseconds> procs;
    std::vector<std::string> unmapped;

    // Warm-up op: allocator and page-cache state settle before timing.
    sys::Testbench(cfg).run(1);

    std::uint64_t frame_cycles = 0;
    j.arr("ops");
    Json traced;
    traced.arr();
    const auto loop0 = Clock::now();
    const auto deadline = loop0 + std::chrono::duration<double>(seconds);
    std::size_t n = 0;
    CpuRotor rotor;
    // At least 11 ops, so the tail percentile has ten samples beyond it.
    while (Clock::now() < deadline || n < 11) {
        rotor.next();
        frame_op(j, cfg, [&](sys::Testbench&, const sys::RunResult& r) {
            frame_cycles = r.sim_time / cfg.clk_period;
        });
        if (trace) {
            rotor.next();
            frame_op(traced, traced_cfg,
                     [&](sys::Testbench& tb, const sys::RunResult& r) {
                         inspect_traced(traced, tb, r, procs, unmapped);
                     });
        }
        ++n;
    }
    const double loop_s = secs(Clock::now() - loop0);
    j.end(']').num("loop_s", loop_s);
    traced.end(']');

    if (trace) {
        Memory::Config mcfg;
        {
            const sys::OpticalFlowSystem probe(cfg);
            mcfg = {probe.mem.base(), probe.mem.size_bytes(),
                    probe.mem.read_latency()};
        }
        j.arr("memory_construct_s");
        for (int i = 0; i < 5; ++i) {
            const auto t0 = Clock::now();
            const Memory m(mcfg);
            j.num(nullptr, secs(Clock::now() - t0));
        }
        j.end(']').arr("elaborate_s");
        for (int i = 0; i < 5; ++i) {
            const auto t0 = Clock::now();
            const sys::OpticalFlowSystem s(cfg);
            j.num(nullptr, secs(Clock::now() - t0));
        }
        j.end(']');
        ckpt_checks(j, cfg, frame_cycles);
        j.arr("unmapped");
        for (const std::string& u : unmapped) j.str(nullptr, u);
        j.end(']').obj("process_self_s");
        for (const auto& [name, t] : procs) j.num(name.c_str(), secs(t));
        j.end('}');
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    j.raw("traced", traced.text())
        .num("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss))
        .end('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

// --- closure -----------------------------------------------------------------

/// Closure jobs run the default 100 MHz system clock.
constexpr rtlsim::Time kClkPeriod = sys::SystemConfig{}.clk_period;

struct Campaign {
    std::string verdicts;
    std::string cover_json;
};

/// One full closure campaign on `workers` threads; per-batch and per-job
/// records go to `j`.
Campaign run_campaign(Json& j, unsigned workers) {
    Campaign c;
    campaign::ClosureLoop loop(closure_config());
    campaign::CampaignConfig rc;
    rc.jobs = workers;
    j.obj().num("workers", std::uint64_t{workers});
    j.arr("batches");
    std::size_t seen = 0;
    while (!loop.done()) {
        const auto b0 = Clock::now();
        loop.run_batch(rc);
        const double batch_s = secs(Clock::now() - b0);
        const campaign::ClosureResult res = loop.result();
        j.obj().num("wall", batch_s).arr("jobs");
        for (; seen < res.records.size(); ++seen) {
            const campaign::JobRecord& rec = res.records[seen];
            const auto kind = rec.params.find("kind");
            const auto fault = rec.params.find("fault");
            j.obj()
                .str("name", rec.name)
                .str("kind", kind == rec.params.end() ? "?" : kind->second)
                .str("fault",
                     fault == rec.params.end() ? "" : fault->second)
                .num("wall", secs(rec.wall))
                .num("stage_wall", secs(rec.report.stages.total_wall()))
                .num("attempts", std::uint64_t{rec.attempts})
                .boolean("pass", rec.passed())
                .str("verdict", rec.report.verdict);
            j.num("sim_cycles",
                  std::uint64_t{rec.report.sim_time / kClkPeriod});
            put_stats(j, rec.report.stats);
            j.end('}');
        }
        j.end(']').end('}');
    }
    j.end(']');
    for (const std::string& v : loop.verdicts()) c.verdicts += v + "\n";
    std::ostringstream cover;
    loop.merged().write_json(cover);
    c.cover_json = cover.str();
    char pct[32];
    std::snprintf(pct, sizeof pct, "%.1f", loop.merged().percent());
    j.str("cover_percent", pct);
    return c;
}

int run_closure(double seconds, bool trace) {
    const unsigned workers = closure_workers();
    // The reference campaign runs on a different worker count, so the
    // byte-identity check spans worker counts.
    const unsigned ref_workers = workers > 1 ? 1 : 2;

    Json j;
    j.obj().str("workload", "closure_seed7").num("seed", std::uint64_t{7});
    j.num("workers", std::uint64_t{workers}).arr("reference");
    const Campaign ref = run_campaign(j, ref_workers);
    j.boolean("identical", true).end('}');
    // The first campaign on the measured worker count pays each worker's
    // allocator arena growth; it is checked but not timed.
    const Campaign warm = run_campaign(j, workers);
    j.boolean("identical", warm.verdicts == ref.verdicts &&
                               warm.cover_json == ref.cover_json)
        .end('}')
        .end(']');
    // Set-up is ClosureLoop construction, which includes the warm-start
    // boot snapshot. It is short, so it is sampled on its own, after the
    // reference campaign has warmed the allocator.
    j.arr("setup");
    {
        CpuRotor rotor;
        for (int i = 0; i < 200; ++i) {
            rotor.next();
            const auto t0 = Clock::now();
            const campaign::ClosureLoop loop(closure_config());
            j.num(nullptr, secs(Clock::now() - t0));
        }
    }
    j.end(']');
    j.arr("campaigns");

    const auto loop0 = Clock::now();
    const auto deadline = loop0 + std::chrono::duration<double>(seconds);
    std::size_t n = 0;
    while (Clock::now() < deadline || n < 1) {
        const Campaign c = run_campaign(j, workers);
        j.boolean("identical", c.verdicts == ref.verdicts &&
                                   c.cover_json == ref.cover_json)
            .end('}');
        ++n;
    }
    j.end(']').num("loop_s", secs(Clock::now() - loop0));
    if (trace) {
        sys::SystemConfig cfg;
        ckpt_checks(j, cfg, 20000);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    j.num("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss)).end('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = -1;
    bool bad_arg = argc % 2 == 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const char* v = argv[i + 1];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            trace = std::atoi(v);
        } else {
            bad_arg = true;
        }
    }
    const std::optional<sys::SystemConfig> cfg = frame_config(workload, seed);
    const bool known = workload == "closure_seed7" || cfg.has_value();
    if (bad_arg || !known || seconds <= 0 || (trace != 0 && trace != 1)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N --seconds S"
                     " --trace 0|1\n");
        return 2;
    }
    if (workload == "closure_seed7") return run_closure(seconds, trace == 1);
    return run_frames(workload, *cfg, seconds, trace == 1);
}
