// campaign_runner — batch simulation campaigns from the command line.
//
//   campaign_runner --campaign faults   [--jobs N] [--timeout-ms T]
//                   [--retries R] [--out results.jsonl] [--frames F]
//   campaign_runner --campaign simb
//   campaign_runner --campaign workload
//   campaign_runner --campaign seeds    [--seeds N] [--frames F]
//   campaign_runner --campaign closure  [--cover-out cover.json] [--seed S]
//                   [--batches N] [--batch-size N] [--target P] [--no-bias]
//                   [--state FILE]
//   campaign_runner --campaign diff     [--seed S] [--seeds N]
//                   [--inject NAME] [--repro-out DIR] [--expect-genuine]
//                   [--state FILE]
//   campaign_runner --replay FILE.repro.json
//
// Every job is an isolated simulation (own Scheduler/Testbench) fanned out
// over the campaign worker pool; results stream into a JSONL file (one
// atomic line per job) and are rolled up into the printed aggregate. The
// `faults` campaign reprints the Table III detection matrix from the job
// records — byte-for-byte the same verdicts as `bench_bug_detection`.
//
// Closure and diff campaigns survive a crash with --state FILE: progress is
// saved after every closure batch and every diff scenario, and a rerun with
// the same FILE and parameters continues where the killed run stopped,
// producing byte-identical verdicts and coverage (DESIGN.md §12).
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "campaign/campaigns.hpp"
#include "campaign/closure.hpp"
#include "campaign/pool.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "diff/repro.hpp"
#include "diff/shrink.hpp"
#include "scen/stream_harness.hpp"
#include "sys/address_map.hpp"
#include "sys/system.hpp"
#include "video/synth.hpp"

using namespace autovision;
using namespace autovision::campaign;

namespace {

struct Options {
    std::string campaign;
    unsigned jobs = 0;  // 0 = hardware concurrency
    unsigned timeout_ms = 0;
    unsigned retries = 1;
    std::string out;
    std::string verdicts_out;
    unsigned frames = 2;
    unsigned seeds = 8;
    bool quiet = false;
    bool trace = false;
    std::string trace_out;  // directory for per-job Perfetto traces
    // closure campaign
    std::string cover_out;
    unsigned long long seed = 1;
    unsigned batches = 6;
    unsigned batch_size = 12;
    double target = 95.0;
    bool bias = true;
    // diff campaign
    std::string inject = "none";
    std::string repro_out;
    bool expect_genuine = false;
    std::string replay;
    // closure + diff: crash-safe progress file
    std::string state;
    // checkpointing
    std::string ckpt_out;       ///< write a snapshot here
    std::string ckpt_in;        ///< warm-start from this snapshot
    unsigned long long ckpt_at = 0;  ///< standalone mode: run to this cycle
    bool no_warm_start = false;      ///< closure: force cold boots
};

void usage(const char* argv0) {
    std::printf(
        "usage: %s --campaign <name> [options]\n"
        "\n"
        "campaigns:\n"
        "  faults     fault catalogue under VM + ReSim + 2-state ablation"
        " (Table III)\n"
        "  simb       SimB length sweep + FIFO/clock/bus corner matrix"
        " (Section IV-B)\n"
        "  workload   frame-count x geometry grid of clean full-system runs\n"
        "  seeds      one clean full-system run per synthetic-scene seed\n"
        "  closure    coverage-closure loop: constrained-random scenario\n"
        "             batches, merged functional coverage, bins-unhit bias\n"
        "  diff       differential VM-vs-ReSim oracle: one constrained-\n"
        "             random scenario per seed run through both methods,\n"
        "             divergences classified, genuine ones shrunk\n"
        "\n"
        "options:\n"
        "  --jobs N        worker threads (default 0 = hardware"
        " concurrency)\n"
        "  --timeout-ms T  per-attempt wall-clock budget (default 0 ="
        " no watchdog)\n"
        "  --retries R     extra attempts for timed-out/errored jobs"
        " (default 1)\n"
        "  --out FILE      JSONL results sink (one atomic line per job)\n"
        "  --verdicts-out F  deterministic per-job verdict lines, submission\n"
        "                  order (byte-comparable across runs, worker counts\n"
        "                  and --state resumes of the same campaign)\n"
        "  --frames F      frames per run where applicable (default 2)\n"
        "  --seeds N       seed count for the seeds campaign (default 8)\n"
        "  --trace         record structured simulation events; obs.*\n"
        "                  metrics (swap latency, X-window, ...) land in\n"
        "                  the JSONL records and the printed aggregate\n"
        "  --trace-out DIR write a Chrome-trace/Perfetto JSON per job to\n"
        "                  DIR (implies --trace; DIR must exist)\n"
        "  --quiet         suppress per-job progress lines\n"
        "  --state FILE    closure and diff only: save progress to FILE after\n"
        "                  every closure batch / diff scenario, and resume\n"
        "                  from FILE when it exists. A corrupt, truncated or\n"
        "                  foreign FILE exits 2 and is left untouched. A\n"
        "                  finished FILE re-emits the outputs without running\n"
        "                  a scenario. --out covers only the jobs run by this\n"
        "                  process\n"
        "\n"
        "closure options:\n"
        "  --cover-out F   write the merged coverage JSON to F\n"
        "  --seed S        campaign seed (default 1)\n"
        "  --batches N     batch budget (default 6)\n"
        "  --batch-size N  scenarios per batch (default 12)\n"
        "  --target P      stop at P%% goal-bin coverage (default 95)\n"
        "  --no-bias       pure-random control arm (no coverage feedback)\n"
        "\n"
        "diff options (--seed seeds the batch, --seeds counts jobs):\n"
        "  --inject NAME   injected design fault: none, vm-no-sig-init,\n"
        "                  isolation-missing, wrong-module-map\n"
        "  --repro-out DIR write shrunk minimal reproducers\n"
        "                  (<job>.repro.json + <job>.simb) to DIR\n"
        "  --expect-genuine exit nonzero unless the batch flags at least\n"
        "                  one genuine divergence (fault-injection runs)\n"
        "  --replay FILE   re-run a .repro.json reproducer standalone and\n"
        "                  report whether the divergence reproduces\n"
        "\n"
        "checkpoint options:\n"
        "  --ckpt-at N     standalone mode: drive one full system to cycle\n"
        "                  N (absolute), print the snapshot digest, exit.\n"
        "                  Deterministic: two invocations reaching the same\n"
        "                  cycle print the same digest, whether they got\n"
        "                  there cold or via --ckpt-in\n"
        "  --ckpt-out FILE write a snapshot to FILE: the cycle-N state in\n"
        "                  standalone mode, the stream-testbench boot\n"
        "                  snapshot in the closure campaign\n"
        "  --ckpt-in FILE  warm-start from FILE: restore before continuing\n"
        "                  in standalone mode, fork every closure stream\n"
        "                  job from it in the closure campaign\n"
        "  --no-warm-start closure: always boot stream jobs cold\n",
        argv0);
}

constexpr const char* kKnownCampaigns[] = {"faults",  "simb",    "workload",
                                           "seeds",   "closure", "diff"};

/// Deterministic verdict lines, submission order. Returns false (with a
/// message) when the file cannot be written.
bool write_verdicts(const std::string& path,
                    const std::vector<std::string>& lines) {
    std::ofstream os(path, std::ios::out | std::ios::trunc);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    for (const std::string& line : lines) os << line << '\n';
    std::printf("verdicts: %s (%zu lines)\n", path.c_str(), lines.size());
    return os.good();
}

/// Digits only (base 0 also takes 0x/0 prefixes): strtoull would accept a
/// sign or leading blanks and wrap "-1" to the maximum.
bool parse_u64(const char* s, unsigned long long& out, int base = 0) {
    if (*s < '0' || *s > '9') return false;
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, base);
    return *end == '\0' && errno != ERANGE;
}

bool parse_unsigned(const char* s, unsigned& out) {
    unsigned long long v = 0;
    if (!parse_u64(s, v, 10) || v > UINT_MAX) return false;
    out = static_cast<unsigned>(v);
    return true;
}

/// A coverage target in percent: finite and not negative. Values above 100
/// are legal and disable the target stop.
bool parse_target(const char* s, double& out) {
    char* end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out) && out >= 0.0;
}

/// Table III from the faults-campaign records (same shape and verdict
/// strings as bench_bug_detection).
void print_fault_table(const std::vector<JobRecord>& records) {
    std::map<std::string, const JobRecord*> by_name;
    for (const JobRecord& r : records) by_name[r.name] = &r;

    std::printf("\n==== Table III: detected bugs per simulation method"
                " ====\n");
    std::printf("%-12s | %-10s | %-10s | %-22s | %s\n", "bug", "VM", "ReSim",
                "ReSim w/o X (2-state)", "description");
    std::printf("-------------+------------+------------+------------------"
                "------+------------\n");
    unsigned vm_static = 0, vm_false = 0, resim_sw = 0, resim_dpr = 0,
             mismatches = 0;
    for (const sys::FaultInfo& fi : sys::kFaultCatalog) {
        const auto* f = by_name[std::string("fault.") + fi.id];
        const auto* nx = by_name[std::string("nox.") + fi.id];
        if (f == nullptr || nx == nullptr) continue;
        const bool vm_det = f->report.metrics.at("vm_detected") != 0.0;
        const bool rs_det = f->report.metrics.at("resim_detected") != 0.0;
        const bool nx_det = nx->report.metrics.at("nox_detected") != 0.0;
        std::printf("%-12s | %-10s | %-10s | %-22s | %s\n", fi.id,
                    vm_det ? "DETECTED" : "passed",
                    rs_det ? "DETECTED" : "passed",
                    nx_det ? "DETECTED" : "passed", fi.description);
        if (!f->passed()) {
            ++mismatches;
            std::printf("    !! expectation mismatch: %s\n",
                        f->report.verdict.c_str());
        }
        const std::string id = fi.id;
        if (vm_det) {
            if (fi.expected == sys::ExpectedDetection::kVmFalseAlarm) {
                ++vm_false;
            } else {
                ++vm_static;
            }
        }
        if (rs_det) {
            if (id.find("dpr") != std::string::npos) {
                ++resim_dpr;
            } else {
                ++resim_sw;
            }
        }
    }
    std::printf("\n==== Section V-A counts ====\n");
    std::printf("  VM-detected real bugs (static design):     %u  (paper: 3)\n",
                vm_static);
    std::printf("  VM false alarms (simulation artefact):     %u  (paper: 1,"
                " bug.hw.2)\n", vm_false);
    std::printf("  ReSim-detected software/static bugs:        %u\n",
                resim_sw);
    std::printf("  ReSim-detected DPR bugs:                    %u  (paper:"
                " 6)\n", resim_dpr);
    std::printf("  expectation mismatches:                     %u\n",
                mismatches);
}

/// Standalone reproducer replay: re-run the differential pair a
/// .repro.json bundle records and report whether the genuine divergence
/// reproduces. Exit 0 = the replay matches the bundle's expectation.
int run_replay(const std::string& path) {
    diff::ReproBundle bundle;
    std::string err;
    if (!diff::load_repro_file(path, &bundle, &err)) {
        std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                     err.c_str());
        return 2;
    }
    std::printf("replay %s: '%s', %zu sessions, inject=%s, %zu recorded"
                " genuine divergence(s)\n",
                path.c_str(), bundle.scenario.name.c_str(),
                bundle.scenario.sessions.size(),
                diff::to_string(bundle.inject), bundle.genuine.size());

    diff::DiffOptions dopt;
    dopt.inject = bundle.inject;
    // normalize() is a no-op on writer-produced bundles but keeps
    // hand-edited reproducers inside the generator's invariants.
    const diff::DiffOutcome out =
        diff::run_diff(diff::normalize(bundle.scenario), dopt);

    for (const diff::Divergence& d : out.report.divergences) {
        std::printf("  %-8s %-15s %-6s session %2d  %s\n",
                    d.genuine ? "GENUINE" : "expected",
                    diff::to_string(d.kind), diff::to_string(d.side),
                    d.session, d.detail.c_str());
    }
    const bool want = !bundle.genuine.empty();
    const bool got = out.report.genuine() != 0;
    std::printf("replay: %u genuine, %u expected — %s\n",
                out.report.genuine(), out.report.expected(),
                want == got ? (want ? "divergence REPRODUCED"
                                    : "clean, as recorded")
                            : (want ? "divergence did NOT reproduce"
                                    : "unexpected divergence"));
    return want == got ? 0 : 1;
}

[[nodiscard]] std::uint64_t blob_digest(const std::string& blob) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const char c : blob) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return h;
}

/// Standalone checkpoint mode (--ckpt-at): drive one full system — cold
/// from reset, or restored from --ckpt-in — to an absolute cycle, print
/// the state digest, and optionally save the reached state to --ckpt-out.
/// The digest depends only on (config, cycle), not on how the run got
/// there, which is exactly the property the CI diverge-check exercises.
int run_ckpt_mode(const Options& opt) {
    sys::SystemConfig cfg = small_system_config();
    cfg.seed = opt.seed;
    sys::OpticalFlowSystem system(cfg);

    if (!opt.ckpt_in.empty()) {
        std::ifstream is(opt.ckpt_in, std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "cannot open %s\n", opt.ckpt_in.c_str());
            return 2;
        }
        std::string err;
        if (!system.restore(is, &err)) {
            std::fprintf(stderr, "restore failed: %s\n", err.c_str());
            return 2;
        }
        std::printf("restored %s at t=%llu\n", opt.ckpt_in.c_str(),
                    static_cast<unsigned long long>(system.sch.now()));
    } else {
        // Cold boot: reset settles, then the camera delivers frame 0 (the
        // same prefix the Testbench runs).
        system.sch.run_until(8 * cfg.clk_period);
        video::SyntheticScene scene(
            video::SceneConfig::standard(cfg.width, cfg.height, 1));
        system.video_in.send_frame(scene.frame(0), sys::kFrameBuf);
    }

    const rtlsim::Time target = opt.ckpt_at * cfg.clk_period;
    if (system.sch.now() > target) {
        std::fprintf(stderr,
                     "snapshot is already past cycle %llu (t=%llu)\n",
                     opt.ckpt_at,
                     static_cast<unsigned long long>(system.sch.now()));
        return 2;
    }
    constexpr rtlsim::Time kQuantum = 32;
    while (system.sch.now() < target && !system.sch.stop_requested()) {
        system.sch.run_until(system.sch.now() +
                             kQuantum * cfg.clk_period);
    }

    std::ostringstream blob;
    if (!system.save(blob)) {
        std::fprintf(stderr, "save failed (not at a quiescent point)\n");
        return 2;
    }
    std::printf("cycle %llu: t=%llu, %zu-byte snapshot, digest"
                " %016llx\n",
                opt.ckpt_at,
                static_cast<unsigned long long>(system.sch.now()),
                blob.str().size(),
                static_cast<unsigned long long>(blob_digest(blob.str())));
    if (!opt.ckpt_out.empty()) {
        std::ofstream os(opt.ckpt_out, std::ios::binary | std::ios::trunc);
        if (!os || !(os << blob.str())) {
            std::fprintf(stderr, "cannot write %s\n", opt.ckpt_out.c_str());
            return 2;
        }
        std::printf("snapshot: %s\n", opt.ckpt_out.c_str());
    }
    return 0;
}

/// The pool configuration every campaign shares.
CampaignConfig pool_config(const Options& opt) {
    CampaignConfig cfg;
    cfg.jobs = opt.jobs;
    cfg.timeout = std::chrono::milliseconds{opt.timeout_ms};
    cfg.retries = opt.retries;
    return cfg;
}

void print_resumed(const std::string& path, std::size_t done,
                   std::size_t total, bool finished) {
    std::printf("resumed %s: %zu of %zu units done%s\n", path.c_str(), done,
                total, finished ? " (finished: re-emitting outputs)" : "");
}

/// The closure campaign, driven batch by batch so that --state can save
/// the loop after each one.
int run_closure_campaign(const Options& opt) {
    ClosureConfig cc;
    cc.seed = opt.seed;
    cc.batch_size = opt.batch_size;
    cc.max_batches = opt.batches;
    cc.target_percent = opt.target;
    cc.bias = opt.bias;
    cc.warm_start = !opt.no_warm_start;
    if (!opt.ckpt_in.empty()) {
        std::ifstream is(opt.ckpt_in, std::ios::binary);
        std::ostringstream buf;
        if (!is || !(buf << is.rdbuf())) {
            std::fprintf(stderr, "cannot read %s\n", opt.ckpt_in.c_str());
            return 2;
        }
        cc.boot_blob = buf.str();
    }
    if (!opt.ckpt_out.empty()) {
        const std::string boot = scen::stream_boot_snapshot();
        std::ofstream os(opt.ckpt_out, std::ios::binary | std::ios::trunc);
        if (!os || !(os << boot)) {
            std::fprintf(stderr, "cannot write %s\n", opt.ckpt_out.c_str());
            return 2;
        }
        std::printf("boot snapshot: %s (%zu bytes)\n", opt.ckpt_out.c_str(),
                    boot.size());
    }

    ClosureLoop loop(cc);
    std::string err;
    const StateRead state = opt.state.empty()
                                ? StateRead::kAbsent
                                : resume_closure(loop, opt.state, &err);
    if (state == StateRead::kRejected) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }

    // Note: not rc.jsonl_path — every batch spins up its own runner (and
    // thus one truncating sink); records are written once, below.
    CampaignConfig rc = pool_config(opt);
    if (!opt.quiet) {
        rc.on_record = [](const JobRecord& rec) {
            std::printf("  %-7s %-22s %8.1f ms  %s\n", to_string(rec.status),
                        rec.name.c_str(),
                        static_cast<double>(rec.wall.count()) / 1e6,
                        rec.report.verdict.c_str());
            std::fflush(stdout);
        };
    }

    std::printf("campaign 'closure': seed 0x%llx, %u batches x %u"
                " scenarios, target %.1f%%%s\n",
                opt.seed, opt.batches, opt.batch_size, opt.target,
                opt.bias ? "" : " (bias off: pure random)");
    if (state == StateRead::kLoaded) {
        print_resumed(opt.state, loop.next_batch(), cc.max_batches,
                      loop.done());
    }
    if (!run_closure_batches(loop, rc, opt.state, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }
    const ClosureResult res = loop.result();

    std::printf("\n==== closure ====\n");
    for (const BatchSummary& b : res.batches) {
        std::printf("  batch %u: +%zu new bins, %zu goal bins hit"
                    " (%.1f%%)\n",
                    b.index, b.new_bins, b.goal_hit, b.percent);
    }
    std::printf("  %s after %u scenarios: %.1f%% of %zu goal bins\n",
                res.reached_target ? "target reached"
                : res.saturated    ? "saturated"
                                   : "batch budget exhausted",
                res.scenarios_run, res.merged.percent(),
                res.merged.goal_bins());
    std::ostringstream text;
    res.merged.write_text(text);
    std::printf("%s", text.str().c_str());

    if (!opt.cover_out.empty()) {
        std::ofstream os(opt.cover_out);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", opt.cover_out.c_str());
            return 2;
        }
        res.merged.write_json(os);
        std::printf("coverage: %s\n", opt.cover_out.c_str());
    }
    if (!opt.out.empty()) {
        std::ofstream os(opt.out, std::ios::out | std::ios::trunc);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
            return 2;
        }
        for (const JobRecord& rec : res.records) os << to_jsonl(rec) << '\n';
        std::printf("results: %s (%zu JSONL records)\n", opt.out.c_str(),
                    res.records.size());
    }
    // The verdict lines span every batch, including those a resumed run
    // restored rather than ran; each embeds its job's status field.
    const std::vector<std::string>& verdicts = loop.verdicts();
    if (!opt.verdicts_out.empty() &&
        !write_verdicts(opt.verdicts_out, verdicts)) {
        return 2;
    }
    const auto failed = std::count_if(
        verdicts.begin(), verdicts.end(), [](const std::string& v) {
            return v.find("\"status\":\"pass\"") == std::string::npos;
        });
    if (failed != 0) std::printf("!! %td scenario jobs failed\n", failed);
    return failed == 0 ? 0 : 1;
}

/// The differential-oracle campaign. It always runs through DiffProgress,
/// so a resumed run prints the same summary and verdicts as a fresh one.
int run_diff_campaign(const Options& opt) {
    DiffCampaignConfig dc;
    dc.seed = opt.seed;
    dc.count = opt.seeds;
    bool known = false;
    dc.inject = diff::fault_from_string(opt.inject, &known);
    if (!known) {
        std::fprintf(stderr, "unknown --inject fault: %s\n",
                     opt.inject.c_str());
        return 2;
    }
    dc.repro_dir = opt.repro_out;
    if (dc.count == 0) {
        std::fprintf(stderr, "campaign 'diff' produced no jobs (check"
                             " --seeds)\n");
        return 2;
    }

    DiffProgress progress;
    std::string err;
    const StateRead state = opt.state.empty()
                                ? StateRead::kAbsent
                                : resume_diff(progress, dc, opt.state, &err);
    if (state == StateRead::kRejected) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }

    CampaignConfig cfg = pool_config(opt);
    cfg.jsonl_path = opt.out;
    std::vector<JobRecord> ran;  // this process only: the timing rollup
    cfg.on_record = [&](const JobRecord& rec) {
        ran.push_back(rec);
        if (opt.quiet) return;
        std::printf("[%2zu/%u] %-7s %-22s %8.1f ms  (attempt %u)  %s\n",
                    progress.done.size(), dc.count, to_string(rec.status),
                    rec.name.c_str(),
                    static_cast<double>(rec.wall.count()) / 1e6,
                    rec.attempts, rec.report.verdict.c_str());
        std::fflush(stdout);
    };

    std::printf("campaign 'diff': %u jobs on %u workers%s\n", dc.count,
                resolve_workers(opt.jobs),
                opt.timeout_ms != 0 ? (" (watchdog " +
                                       std::to_string(opt.timeout_ms) +
                                       " ms, retries " +
                                       std::to_string(opt.retries) + ")")
                                          .c_str()
                                    : "");
    if (state == StateRead::kLoaded) {
        print_resumed(opt.state, progress.done.size(), dc.count,
                      progress.done.size() == dc.count);
    }
    if (!run_diff_remaining(dc, cfg, progress, opt.state, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }

    double genuine = 0.0, expected = 0.0;
    unsigned diverged = 0, shrunk = 0, failed = 0;
    std::vector<std::string> verdicts;
    for (const auto& [index, d] : progress.done) {
        const auto& m = d.metrics;
        if (const auto it = m.find("genuine"); it != m.end()) {
            genuine += it->second;
            if (it->second > 0.0) ++diverged;
        }
        if (const auto it = m.find("expected"); it != m.end()) {
            expected += it->second;
        }
        if (m.count("shrunk_words") != 0) ++shrunk;
        if (!d.passed) ++failed;
        verdicts.push_back(d.verdict_line);
    }
    std::printf("\n==== diff oracle ====\n");
    std::printf("  seed 0x%llx, %zu scenarios, inject=%s\n", opt.seed,
                progress.done.size(), opt.inject.c_str());
    std::printf("  genuine divergences: %.0f across %u scenario(s)"
                " (%u shrunk)\n", genuine, diverged, shrunk);
    std::printf("  expected-by-construction divergences: %.0f\n", expected);
    if (!opt.repro_out.empty() && shrunk != 0) {
        std::printf("  reproducers: %s/\n", opt.repro_out.c_str());
    }
    const bool expect_genuine_failed = opt.expect_genuine && genuine == 0.0;
    if (expect_genuine_failed) {
        std::printf("!! --expect-genuine: the batch flagged no genuine"
                    " divergence\n");
    }

    if (ran.size() != dc.count) {
        std::printf("\n(timing rollup: the %zu jobs run by this process)",
                    ran.size());
    }
    std::printf("\n%s", CampaignSummary::from(ran).table().c_str());
    if (!opt.out.empty()) {
        std::printf("results: %s (%zu JSONL records)\n", opt.out.c_str(),
                    ran.size());
    }
    if (!opt.verdicts_out.empty() &&
        !write_verdicts(opt.verdicts_out, verdicts)) {
        return 2;
    }
    return failed == 0 && !expect_genuine_failed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        bool ok = true;
        if (a == "--campaign") {
            opt.campaign = next();
        } else if (a == "--jobs") {
            ok = parse_unsigned(next(), opt.jobs);
        } else if (a == "--timeout-ms") {
            ok = parse_unsigned(next(), opt.timeout_ms);
        } else if (a == "--retries") {
            ok = parse_unsigned(next(), opt.retries);
        } else if (a == "--out") {
            opt.out = next();
        } else if (a == "--verdicts-out") {
            opt.verdicts_out = next();
        } else if (a == "--frames") {
            ok = parse_unsigned(next(), opt.frames);
        } else if (a == "--seeds") {
            ok = parse_unsigned(next(), opt.seeds);
        } else if (a == "--cover-out") {
            opt.cover_out = next();
        } else if (a == "--seed") {
            ok = parse_u64(next(), opt.seed);
        } else if (a == "--batches") {
            ok = parse_unsigned(next(), opt.batches);
        } else if (a == "--batch-size") {
            ok = parse_unsigned(next(), opt.batch_size);
        } else if (a == "--target") {
            ok = parse_target(next(), opt.target);
        } else if (a == "--no-bias") {
            opt.bias = false;
        } else if (a == "--inject") {
            opt.inject = next();
        } else if (a == "--repro-out") {
            opt.repro_out = next();
        } else if (a == "--expect-genuine") {
            opt.expect_genuine = true;
        } else if (a == "--replay") {
            opt.replay = next();
        } else if (a == "--state") {
            opt.state = next();
        } else if (a == "--ckpt-out") {
            opt.ckpt_out = next();
        } else if (a == "--ckpt-in") {
            opt.ckpt_in = next();
        } else if (a == "--ckpt-at") {
            ok = parse_u64(next(), opt.ckpt_at) && opt.ckpt_at != 0;
        } else if (a == "--no-warm-start") {
            opt.no_warm_start = true;
        } else if (a == "--trace") {
            opt.trace = true;
        } else if (a == "--trace-out") {
            opt.trace_out = next();
            opt.trace = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
        if (!ok) {
            std::fprintf(stderr, "bad value for %s\n", a.c_str());
            return 2;
        }
    }

    if (!opt.state.empty() && opt.campaign != "closure" &&
        opt.campaign != "diff") {
        std::fprintf(stderr,
                     "--state supports the closure and diff campaigns only\n");
        return 2;
    }
    if (!opt.replay.empty()) return run_replay(opt.replay);
    if (opt.ckpt_at != 0) return run_ckpt_mode(opt);
    if (opt.campaign == "closure") return run_closure_campaign(opt);
    if (opt.campaign == "diff") return run_diff_campaign(opt);

    std::vector<SimJob> jobs;
    sys::SystemConfig base = small_system_config();
    base.trace_events = opt.trace;
    base.trace_path = opt.trace_out;  // factories append "/<job>.json"
    if (opt.campaign == "faults") {
        jobs = fault_catalog_jobs(base, opt.frames);
        auto nox = resim_no_x_jobs(base, opt.frames);
        jobs.insert(jobs.end(), std::make_move_iterator(nox.begin()),
                    std::make_move_iterator(nox.end()));
    } else if (opt.campaign == "simb") {
        jobs = simb_sweep_jobs({4u, 100u, 1024u, 4096u, 32768u, 129u * 1024u},
                               opt.trace);
        auto corners = simb_corner_jobs(opt.trace);
        jobs.insert(jobs.end(), std::make_move_iterator(corners.begin()),
                    std::make_move_iterator(corners.end()));
    } else if (opt.campaign == "workload") {
        jobs = workload_grid_jobs({{32, 24, 1},
                                   {32, 24, 2},
                                   {48, 32, 1},
                                   {48, 32, 2},
                                   {64, 48, 1}},
                                  base);
    } else if (opt.campaign == "seeds") {
        jobs = seed_sweep_jobs(base, /*first_seed=*/1, opt.seeds,
                               opt.frames);
    } else {
        // An unknown (or missing) campaign name must fail loudly with the
        // valid names, never fall through to an empty batch that "passes".
        if (opt.campaign.empty()) {
            std::fprintf(stderr, "missing --campaign\n");
        } else {
            std::fprintf(stderr, "unknown campaign: '%s'\n",
                         opt.campaign.c_str());
        }
        std::fprintf(stderr, "valid campaigns:");
        for (const char* name : kKnownCampaigns) {
            std::fprintf(stderr, " %s", name);
        }
        std::fprintf(stderr, "\n");
        return 2;
    }
    if (jobs.empty()) {
        std::fprintf(stderr,
                     "campaign '%s' produced no jobs (check --seeds/--frames"
                     " values)\n",
                     opt.campaign.c_str());
        return 2;
    }

    CampaignConfig cfg = pool_config(opt);
    cfg.jsonl_path = opt.out;
    const std::size_t total = jobs.size();
    std::size_t done = 0;
    if (!opt.quiet) {
        cfg.on_record = [&](const JobRecord& rec) {
            ++done;
            std::printf("[%2zu/%zu] %-7s %-22s %8.1f ms  (attempt %u)  %s\n",
                        done, total, to_string(rec.status), rec.name.c_str(),
                        static_cast<double>(rec.wall.count()) / 1e6,
                        rec.attempts, rec.report.verdict.c_str());
            std::fflush(stdout);
        };
    }

    CampaignRunner runner(cfg);
    std::printf("campaign '%s': %zu jobs on %u workers%s\n",
                opt.campaign.c_str(), total,
                resolve_workers(opt.jobs),
                opt.timeout_ms != 0 ? (" (watchdog " +
                                       std::to_string(opt.timeout_ms) +
                                       " ms, retries " +
                                       std::to_string(opt.retries) + ")")
                                          .c_str()
                                    : "");
    const CampaignResult result = runner.run(jobs);

    if (opt.campaign == "faults") print_fault_table(result.records);

    std::printf("\n%s", result.summary.table().c_str());
    if (!opt.out.empty()) {
        std::printf("results: %s (%zu JSONL records)\n", opt.out.c_str(),
                    result.records.size());
    }
    if (!opt.verdicts_out.empty()) {
        std::vector<std::string> lines;
        for (const JobRecord& rec : result.records) {
            lines.push_back(to_verdict_line(rec));
        }
        if (!write_verdicts(opt.verdicts_out, lines)) return 2;
    }
    return result.summary.all_passed() ? 0 : 1;
}
