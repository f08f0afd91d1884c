// Kernel-invariance suite: pins the *observable* behaviour of the
// simulation kernel so hot-path rewrites (the calendar-queue time wheel,
// event pooling, delta-queue flattening) are provably behaviour-preserving.
//
// The golden SimStats below were captured from the pre-rewrite kernel (the
// std::map<Time, vector<function>> time wheel) running the canned Testbench
// configurations at that commit, and must stay bit-identical: a kernel
// change that alters event ordering, delta settling, or signal-commit
// semantics shows up here as a counter drift long before it corrupts a
// frame. Update these constants only when a change *intentionally* alters
// kernel semantics, and say why in the commit message.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sys/testbench.hpp"

namespace {

using autovision::sys::RunResult;
using autovision::sys::SystemConfig;
using autovision::sys::Testbench;

struct Golden {
    std::uint64_t timed_events;
    std::uint64_t delta_cycles;
    std::uint64_t proc_invocations;
    std::uint64_t signal_updates;
    std::uint64_t time_steps;
    rtlsim::Time sim_time;
};

void expect_golden(const RunResult& r, const Golden& g) {
    EXPECT_EQ(r.stats.timed_events, g.timed_events);
    EXPECT_EQ(r.stats.delta_cycles, g.delta_cycles);
    EXPECT_EQ(r.stats.proc_invocations, g.proc_invocations);
    EXPECT_EQ(r.stats.signal_updates, g.signal_updates);
    EXPECT_EQ(r.stats.time_steps, g.time_steps);
    EXPECT_EQ(r.sim_time, g.sim_time);
    // A clean run is part of the contract: zero diagnostics and bit-exact
    // scoreboard results (census, motion field, drawn output).
    EXPECT_EQ(r.verdict(), "clean");
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_EQ(r.census_mismatches, 0u);
    EXPECT_EQ(r.field_mismatches, 0u);
    EXPECT_EQ(r.output_mismatches, 0u);
}

// Canned frame #1: default 64x48 ReSim configuration, two frames, scene
// seed 1. Goldens captured from the pre-calendar-queue kernel.
TEST(KernelInvariance, DefaultConfigTwoFramesMatchesGolden) {
    SystemConfig cfg;
    Testbench tb(cfg, /*scene_seed=*/1);
    const RunResult r = tb.run(2);
    ASSERT_EQ(r.frames_completed, 2u);
    expect_golden(r, Golden{
                         .timed_events = 82513,
                         .delta_cycles = 138656,
                         .proc_invocations = 470658,
                         .signal_updates = 163149,
                         .time_steps = 82512,
                         .sim_time = 412560000,
                     });
}

// Canned frame #2: wider 96x64 frame, bigger SimB, scene seed 7 — a
// different DPR/compute balance than the default config.
TEST(KernelInvariance, WideConfigOneFrameMatchesGolden) {
    SystemConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.search = 2;
    cfg.simb_payload_words = 512;
    Testbench tb(cfg, /*scene_seed=*/7);
    const RunResult r = tb.run(1);
    ASSERT_EQ(r.frames_completed, 1u);
    expect_golden(r, Golden{
                         .timed_events = 95505,
                         .delta_cycles = 157831,
                         .proc_invocations = 541930,
                         .signal_updates = 180062,
                         .time_steps = 95504,
                         .sim_time = 477520000,
                     });
}

// The full observable surface of the golden configuration — SimStats, the
// VCD trace, and the checkpoint blob — must be byte-identical run to run:
// any scheduling-order leak into committed values, trace emission, or
// snapshot bytes fails here.
TEST(KernelInvariance, GoldenRunIsByteIdenticalAtEveryLaneCount) {
    struct Capture {
        RunResult result;
        std::string vcd;
        std::string ckpt;
    };
    auto run_once = [] {
        const std::string vcd_path = ::testing::TempDir() + "inv_golden.vcd";
        SystemConfig cfg;
        cfg.vcd_path = vcd_path;
        Testbench tb(cfg, /*scene_seed=*/1);
        Capture c{tb.run(2), "", ""};
        std::ostringstream os;
        EXPECT_TRUE(tb.sys.save(os));
        c.ckpt = os.str();
        std::ifstream is(vcd_path, std::ios::binary);
        std::ostringstream vs;
        vs << is.rdbuf();
        c.vcd = vs.str();
        std::remove(vcd_path.c_str());
        return c;
    };

    const Capture ref = run_once();
    ASSERT_EQ(ref.result.frames_completed, 2u);
    ASSERT_FALSE(ref.vcd.empty());
    ASSERT_FALSE(ref.ckpt.empty());
    EXPECT_EQ(ref.result.verdict(), "clean");
    const Capture c = run_once();
    EXPECT_EQ(c.result.stats, ref.result.stats);
    EXPECT_EQ(c.result.sim_time, ref.result.sim_time);
    EXPECT_EQ(c.result.verdict(), ref.result.verdict());
    EXPECT_EQ(c.vcd, ref.vcd) << "VCD bytes diverged between runs";
    EXPECT_EQ(c.ckpt, ref.ckpt) << "checkpoint bytes diverged between runs";
}

// The same configuration must be deterministic run-to-run — otherwise the
// goldens above could flake rather than catch real kernel drift.
TEST(KernelInvariance, RepeatRunsAreBitIdentical) {
    SystemConfig cfg;
    auto run_once = [&cfg] {
        Testbench tb(cfg, /*scene_seed=*/3);
        return tb.run(1);
    };
    const RunResult a = run_once();
    const RunResult b = run_once();
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.sim_time, b.sim_time);
    EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
}

// --- diagnostic overflow bound ------------------------------------------
// Scheduler::kMaxDiags caps stored diagnostics; everything beyond is
// counted in dropped_diagnostics(). No other test exercises this bound.

TEST(KernelInvariance, DiagnosticsOverflowIsCountedNotStored) {
    rtlsim::Scheduler sch;
    constexpr std::size_t kExtra = 37;
    for (std::size_t i = 0; i < rtlsim::Scheduler::kMaxDiags + kExtra; ++i) {
        sch.report("tb.flood", "diag " + std::to_string(i));
    }
    EXPECT_EQ(sch.diagnostics().size(), rtlsim::Scheduler::kMaxDiags);
    EXPECT_EQ(sch.dropped_diagnostics(), kExtra);
    // The stored window is the *first* kMaxDiags entries.
    EXPECT_EQ(sch.diagnostics().front().message, "diag 0");
    EXPECT_EQ(sch.diagnostics().back().message,
              "diag " + std::to_string(rtlsim::Scheduler::kMaxDiags - 1));
    EXPECT_TRUE(sch.has_diag_from("flood"));
    EXPECT_FALSE(sch.has_diag_from("nosuch"));
}

TEST(KernelInvariance, DiagnosticsBelowBoundAreAllStored) {
    rtlsim::Scheduler sch;
    sch.report("tb.a", "one");
    sch.report("tb.b", "two");
    EXPECT_EQ(sch.diagnostics().size(), 2u);
    EXPECT_EQ(sch.dropped_diagnostics(), 0u);
}

}  // namespace
