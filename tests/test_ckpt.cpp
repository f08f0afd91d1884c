// Checkpoint invariance suite (src/ckpt).
//
// The contract under test: a run that is saved at cycle N, restored into a
// freshly elaborated system, and continued must be indistinguishable —
// bit-exact signals, kernel counters, memories and module state — from the
// same run left uninterrupted. The comparison oracle is the checkpoint
// blob itself: System::save serializes *all* simulator state
// byte-deterministically, so "warm final blob == cold final blob" pins
// every signal value, every counter and every in-flight transaction at
// once, in the spirit of the SimStats goldens in
// test_kernel_invariance.cpp.
//
// The save points are chosen adversarially: we step in small quanta until
// the system is mid-ICAP-packet, inside the isolation X-window, or holding
// a pending interrupt, and snapshot *there* — the moments with the most
// in-flight state (open DMA bursts, half-streamed SimBs, latched IRQs).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "sys/address_map.hpp"
#include "sys/system.hpp"
#include "sys/testbench.hpp"
#include "video/synth.hpp"

namespace {

using autovision::sys::kFrameBuf;
using autovision::sys::OpticalFlowSystem;
using autovision::sys::SystemConfig;
namespace video = autovision::video;

SystemConfig small_config() {
    SystemConfig cfg;
    cfg.width = 32;
    cfg.height = 24;
    cfg.search = 2;
    cfg.simb_payload_words = 64;
    return cfg;
}

video::Frame scene_frame(const SystemConfig& cfg, unsigned index) {
    video::SyntheticScene scene(
        video::SceneConfig::standard(cfg.width, cfg.height, 1));
    return scene.frame(index);
}

/// Elaborate a fresh system, boot it and inject frame 0 — the shared
/// prefix of every directly-driven run in this suite.
struct DirectRun {
    explicit DirectRun(const SystemConfig& cfg) : sys(cfg) {
        sys.sch.run_until(8 * cfg.clk_period);
        sys.video_in.send_frame(scene_frame(cfg, 0), kFrameBuf);
    }

    void run_to(rtlsim::Time t) {
        while (sys.sch.now() < t && !sys.sch.stop_requested()) {
            sys.sch.run_until(sys.sch.now() + kQuantum);
        }
    }

    /// Step quanta until `cond()` holds (fails the test if it never does).
    template <typename Cond>
    rtlsim::Time run_until_condition(Cond cond, rtlsim::Time budget) {
        while (sys.sch.now() < budget) {
            sys.sch.run_until(sys.sch.now() + kQuantum);
            if (cond()) return sys.sch.now();
        }
        return 0;
    }

    [[nodiscard]] std::string blob() const {
        std::ostringstream os;
        EXPECT_TRUE(sys.save(os));
        return os.str();
    }

    static constexpr rtlsim::Time kQuantum = 32 * 10 * rtlsim::NS;
    OpticalFlowSystem sys;
};

/// The core round-trip check: save `warm` at its current time, restore
/// into a fresh system, continue both the original cold reference and the
/// restored system to `t_end`, and require bit-identical final blobs.
void expect_warm_equals_cold(const SystemConfig& cfg, DirectRun& warm,
                             rtlsim::Time t_end) {
    const std::string mid = warm.blob();
    ASSERT_FALSE(mid.empty());

    // Cold reference: one uninterrupted run to t_end.
    DirectRun cold(cfg);
    cold.run_to(t_end);

    // Warm side: fresh elaboration, restore, continue.
    OpticalFlowSystem restored(cfg);
    std::istringstream is(mid);
    std::string err;
    ASSERT_TRUE(restored.restore(is, &err)) << err;
    EXPECT_EQ(restored.sch.now(), warm.sys.sch.now());
    while (restored.sch.now() < t_end && !restored.sch.stop_requested()) {
        restored.sch.run_until(restored.sch.now() + DirectRun::kQuantum);
    }

    std::ostringstream warm_os;
    ASSERT_TRUE(restored.save(warm_os));
    EXPECT_EQ(warm_os.str(), cold.blob())
        << "restored run diverged from the uninterrupted reference";
}

// ---------------------------------------------------------------------------
// Determinism and manifest plumbing
// ---------------------------------------------------------------------------

TEST(Ckpt, BlobIsByteDeterministic) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(2000 * cfg.clk_period);
    // Saving twice at the same instant is bit-identical (no wall-clock,
    // pointer or iteration-order leakage into the serialization).
    EXPECT_EQ(a.blob(), a.blob());

    // A second system elaborated in the same process and driven the same
    // way lands on the same bytes — the regression net for hidden static
    // mutable state surviving from the first run.
    DirectRun b(cfg);
    b.run_to(2000 * cfg.clk_period);
    EXPECT_EQ(a.blob(), b.blob());
}

TEST(Ckpt, ManifestRejectsMismatchedConfig) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();

    SystemConfig other = cfg;
    other.width = 64;  // different geometry => different config hash
    OpticalFlowSystem wrong(other);
    std::istringstream is(blob);
    std::string err;
    EXPECT_FALSE(wrong.restore(is, &err));
    EXPECT_NE(err.find("config"), std::string::npos) << err;
}

TEST(Ckpt, ManifestRoundTrips) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();

    std::istringstream is(blob);
    autovision::ckpt::Loader loader;
    ASSERT_TRUE(loader.load(is, 0)) << loader.error();  // 0 = skip hash check
    EXPECT_EQ(loader.manifest().format_version, autovision::ckpt::kFormatVersion);
    EXPECT_EQ(loader.manifest().config_hash, OpticalFlowSystem::config_hash(cfg));
    EXPECT_EQ(loader.manifest().sim_time, a.sys.sch.now());
    EXPECT_NE(loader.find("kernel"), nullptr);
    EXPECT_NE(loader.find("signals"), nullptr);
}

TEST(Ckpt, TruncatedBlobFailsCleanly) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();

    for (std::size_t cut : {std::size_t{0}, std::size_t{4}, blob.size() / 2,
                            blob.size() - 1}) {
        OpticalFlowSystem fresh(cfg);
        std::istringstream is(blob.substr(0, cut));
        std::string err;
        EXPECT_FALSE(fresh.restore(is, &err)) << "cut at " << cut;
    }
}

// ---------------------------------------------------------------------------
// Warm == cold at adversarial save points
// ---------------------------------------------------------------------------

TEST(Ckpt, WarmEqualsColdAtEarlyPoint) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    warm.run_to(500 * cfg.clk_period);
    expect_warm_equals_cold(cfg, warm, 30000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdMidIcapPacket) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    ASSERT_TRUE(warm.sys.is_resim());
    // Step until the artifact is mid-payload: a SimB half-streamed through
    // the ICAP, DMA in flight, the portal's swap still pending.
    const rtlsim::Time t = warm.run_until_condition(
        [&] { return warm.sys.icap_artifact->payload_pending(); },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never reached a mid-ICAP-packet state";
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdInsideIsolationWindow) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    // Inside the isolation window the boundary drives safe levels while
    // the error injector feeds X into the gated side — the densest
    // 4-state moment of a reconfiguration.
    const rtlsim::Time t = warm.run_until_condition(
        [&] { return rtlsim::is1(warm.sys.iso.isolate.read()); },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never entered the isolation window";
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdWithPendingIrq) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    // A latched, enabled interrupt the CPU has not yet vectored to.
    const rtlsim::Time t = warm.run_until_condition(
        [&] { return rtlsim::is1(warm.sys.intc.irq.read()); },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never latched a pending interrupt";
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdBetweenEngineJobs) {
    // After a job completes the firmware reset-pulses the engine:
    // reset_job() clears the line buffers but w_/h_ keep the last job's
    // geometry. That cleared-but-configured state used to be rejected by
    // the engines' checkpoint geometry check ("cie section corrupt"
    // on any snapshot taken between jobs) — regression for that fix.
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    warm.run_to(20000 * cfg.clk_period);
    expect_warm_equals_cold(cfg, warm, 24000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdUnderVirtualMux) {
    SystemConfig cfg = small_config();
    cfg.method = autovision::sys::FirmwareConfig::Method::kVm;
    DirectRun warm(cfg);
    warm.run_to(3000 * cfg.clk_period);
    ASSERT_NE(warm.sys.vmux, nullptr);
    expect_warm_equals_cold(cfg, warm, 30000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdMidBasicBlock) {
    // Save while the CPU is executing firmware — at a 32-cycle quantum
    // against the firmware's multi-hundred-instruction loop bodies the save
    // lands mid-basic-block with overwhelming likelihood — and require the
    // restored run to stay byte-exact with the uninterrupted reference.
    // The System never enables sleep windows, so the decode cache stays
    // empty throughout.
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    const rtlsim::Time t = warm.run_until_condition(
        [&] {
            return warm.sys.cpu.instructions() > 2000 &&
                   !warm.sys.cpu.halted();
        },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never reached a running firmware loop";
    EXPECT_EQ(warm.sys.cpu.decode_cache().decodes(), 0u);
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, RestoresAfterADisplayedFrame) {
    // The display VIP hands each fetched frame to the testbench's sink.
    // A snapshot taken after that hand-off must still describe a valid
    // staging frame: restore into a fresh system and re-save byte-exactly.
    const SystemConfig cfg = small_config();
    autovision::sys::Testbench tb(cfg);
    const autovision::sys::RunResult r = tb.run(1);
    ASSERT_TRUE(r.clean()) << r.verdict();
    ASSERT_GT(tb.sys.video_out.frames_fetched(), 0u);
    std::ostringstream os;
    ASSERT_TRUE(tb.sys.save(os));

    OpticalFlowSystem restored(cfg);
    std::istringstream is(os.str());
    std::string err;
    ASSERT_TRUE(restored.restore(is, &err)) << err;
    std::ostringstream again;
    ASSERT_TRUE(restored.save(again));
    EXPECT_EQ(again.str(), os.str());
}

TEST(Ckpt, WarmEqualsColdMidSyscallStream) {
    // Host-IO firmware: save after console output began but before the
    // firmware's exit(0). HostIo (console bytes, per-service counters, the
    // exit latch) rides inside the cpu checkpoint section, so the restored
    // run must reproduce the remaining output byte-for-byte — pinned
    // wholesale by the final-blob comparison.
    SystemConfig cfg = small_config();
    cfg.host_io = true;
    cfg.exit_after_frames = 3;
    DirectRun warm(cfg);
    const rtlsim::Time t = warm.run_until_condition(
        [&] {
            return !warm.sys.cpu.host_io().out().empty() &&
                   !warm.sys.cpu.host_io().exited();
        },
        120000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "firmware never produced console output";
    EXPECT_GT(warm.sys.cpu.host_io().total_calls(), 0u);
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdWithSoftwareScheduledPool) {
    // Software-scheduled virtualization pool: the run-time grown plan
    // (RegionManager::push_software) and the PoolBridge staging registers
    // must both survive a restore taken while pushes are still in flight.
    SystemConfig cfg = small_config();
    cfg.regions = 3;
    cfg.rrm_software = true;
    DirectRun warm(cfg);
    const rtlsim::Time t = warm.run_until_condition(
        [&] {
            return warm.sys.pool_bridge != nullptr &&
                   warm.sys.pool_bridge->pushes() > 0 &&
                   !warm.sys.region_manager->done();
        },
        200000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "firmware never pushed a pool job";
    expect_warm_equals_cold(cfg, warm, t + 30000 * cfg.clk_period);
}

}  // namespace
