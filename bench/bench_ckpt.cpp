// E13 — checkpoint and warm-start cost model (src/ckpt).
//
// The warm-start argument: restoring a snapshot costs O(state) — parse a
// ~16-20 KB blob and re-arm closures — while re-simulating the prefix it
// replaces costs O(cycles). Both sides pay the same fresh elaboration
// (restore-by-reelaboration), so the benchmarks time only the part that
// differs: bm_ckpt_restore vs bm_ckpt_cold_prefix, with elaboration done
// under PauseTiming. bm_ckpt_save prices the producer side, and the blob
// size rides along as a counter so the gate also notices format bloat.
// Acceptance bar (EXPERIMENTS.md E13): restore >= 5x faster than
// re-simulating the prefix at the default save depth.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "sys/address_map.hpp"
#include "sys/system.hpp"
#include "video/synth.hpp"

namespace {

using autovision::sys::kFrameBuf;
using autovision::sys::OpticalFlowSystem;
using autovision::sys::SystemConfig;
namespace video = autovision::video;

SystemConfig bench_config() {
    SystemConfig cfg;
    cfg.width = 32;
    cfg.height = 24;
    cfg.search = 2;
    cfg.simb_payload_words = 64;
    return cfg;
}

constexpr rtlsim::Time kQuantum = 32 * 10 * rtlsim::NS;
// Default save depth: past the first frame's census job and the first DPR
// session, so a restore has real simulation work to skip.
constexpr unsigned long long kPrefixCycles = 30000;

/// Boot, inject frame 0 and simulate to the save point — the prefix every
/// warm-started job skips.
void run_prefix(OpticalFlowSystem& sys, const SystemConfig& cfg) {
    sys.sch.run_until(8 * cfg.clk_period);
    video::SyntheticScene scene(
        video::SceneConfig::standard(cfg.width, cfg.height, 1));
    sys.video_in.send_frame(scene.frame(0), kFrameBuf);
    const rtlsim::Time t_end = kPrefixCycles * cfg.clk_period;
    while (sys.sch.now() < t_end && !sys.sch.stop_requested()) {
        sys.sch.run_until(sys.sch.now() + kQuantum);
    }
}

std::string prefix_blob(const SystemConfig& cfg) {
    OpticalFlowSystem sys(cfg);
    run_prefix(sys, cfg);
    std::ostringstream os;
    if (!sys.save(os)) return {};
    return os.str();
}

void bm_ckpt_save(benchmark::State& state) {
    const SystemConfig cfg = bench_config();
    OpticalFlowSystem sys(cfg);
    run_prefix(sys, cfg);
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::ostringstream os;
        benchmark::DoNotOptimize(sys.save(os));
        bytes = os.str().size();
    }
    state.counters["blob_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(bm_ckpt_save)->Unit(benchmark::kMicrosecond);

void bm_ckpt_restore(benchmark::State& state) {
    const SystemConfig cfg = bench_config();
    const std::string blob = prefix_blob(cfg);
    if (blob.empty()) {
        state.SkipWithError("prefix snapshot failed");
        return;
    }
    for (auto _ : state) {
        state.PauseTiming();  // elaboration is common to both arms
        OpticalFlowSystem sys(cfg);
        std::istringstream is(blob);
        std::string err;
        state.ResumeTiming();
        if (!sys.restore(is, &err)) {
            state.SkipWithError(err.c_str());
            return;
        }
        benchmark::DoNotOptimize(sys.sch.now());
    }
}
BENCHMARK(bm_ckpt_restore)->Unit(benchmark::kMicrosecond);

void bm_ckpt_cold_prefix(benchmark::State& state) {
    const SystemConfig cfg = bench_config();
    for (auto _ : state) {
        state.PauseTiming();
        OpticalFlowSystem sys(cfg);
        state.ResumeTiming();
        run_prefix(sys, cfg);
        benchmark::DoNotOptimize(sys.sch.now());
    }
}
BENCHMARK(bm_ckpt_cold_prefix)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
