// campaign: the built-in campaigns — the paper's evaluation expressed as
// job batches.
//
//   * faults    — the Table III fault catalogue: one job per catalogued
//                 bug, each running the system under VM and under ReSim
//                 and checking the detections against the expectation.
//   * nox       — the DESIGN.md 2-state ablation: ReSim with X injection
//                 disabled; bug.dpr.1 (isolation) must escape.
//   * simb      — the Section IV-B SimB length sweep plus the FIFO /
//                 configuration-clock / bus corner matrix.
//   * workload  — a frame-count x geometry grid of clean full-system runs.
//   * seeds     — one clean full-system run per synthetic-scene seed.
//
// Every job body builds its own Testbench/Scheduler on the worker thread
// (job isolation) and honours the JobContext cancel flag.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include <string>

#include "diff/diff.hpp"
#include "job.hpp"
#include "runner.hpp"
#include "state_file.hpp"
#include "sys/detection.hpp"

namespace autovision::campaign {

/// The small paper-scale geometry the quick campaigns default to (identical
/// to the detection harness configuration used by tests and benches).
[[nodiscard]] sys::SystemConfig small_system_config();

/// One job per catalogued fault: VM + ReSim detection vs expectation.
/// Metrics: vm_detected, resim_detected.
[[nodiscard]] std::vector<SimJob> fault_catalog_jobs(
    const sys::SystemConfig& base, unsigned frames = 2);

/// One job per catalogued fault, ReSim only, with the error injector
/// replaced by a 2-state no-op. Expected: detections track plain ReSim
/// except bug.dpr.1, which escapes without X propagation.
/// Metrics: nox_detected.
[[nodiscard]] std::vector<SimJob> resim_no_x_jobs(
    const sys::SystemConfig& base, unsigned frames = 2);

/// SimB payload-length sweep on the minimal DPR testbench (no CPU): the
/// reconfiguration delay must scale with bitstream length and the swap must
/// complete. Metrics: payload_words, total_words, dpr_ms, swap; with
/// `trace`, the obs.* registry (words per SimB, swap latency, ...) as well.
[[nodiscard]] std::vector<SimJob> simb_sweep_jobs(
    const std::vector<std::uint32_t>& payloads, bool trace = false);

/// FIFO depth x configuration clock x bus-attachment corner matrix on the
/// minimal DPR testbench. Pass = the swap outcome matches the corner's
/// expectation (the overflow and bug.dpr.4 corners must NOT swap).
/// Metrics: swap, expect_swap, overflows, dpr_ms (+ obs.* with `trace`).
[[nodiscard]] std::vector<SimJob> simb_corner_jobs(bool trace = false);

/// Full-system clean-run grid: every (geometry, frame count) cell must
/// complete with a clean verdict. `base` supplies everything but the
/// geometry (method, tracing, clock, ...).
struct WorkloadCell {
    unsigned width;
    unsigned height;
    unsigned frames;
};
[[nodiscard]] std::vector<SimJob> workload_grid_jobs(
    const std::vector<WorkloadCell>& grid,
    const sys::SystemConfig& base = small_system_config());

/// Full-system clean run per synthetic-scene seed.
[[nodiscard]] std::vector<SimJob> seed_sweep_jobs(
    const sys::SystemConfig& base, std::uint32_t first_seed,
    std::uint32_t num_seeds, unsigned frames = 1);

/// Differential VM-vs-ReSim oracle batch: one job per seed, each generating
/// a constrained-random stream scenario, running it through both simulation
/// methods (src/diff) and classifying the divergences. Jobs with a genuine
/// divergence shrink it to a minimal reproducer; with `repro_dir` set the
/// reproducer is dumped as <job>.repro.json + <job>.simb.
///
/// Pass semantics: with no injected fault a job passes iff zero genuine
/// divergences survive masking (a genuine one on the clean design is the
/// finding, hence a fail). With an injected fault, a flagged divergence
/// must also shrink (and the reproducer write succeed, when requested) to
/// pass; a scenario that cannot express the fault passes vacuously — the
/// batch-level >=1-genuine expectation is the runner's --expect-genuine.
/// Metrics: sessions, orig_words, genuine, expected, genuine_vm,
/// genuine_resim; plus shrink_runs, shrunk_words, shrink_ratio on
/// divergence.
struct DiffCampaignConfig {
    std::uint64_t seed = 1;
    unsigned count = 20;
    diff::DiffFault inject = diff::DiffFault::kNone;
    std::string repro_dir;  ///< empty: don't write reproducer files
    unsigned min_sessions = 1;
    unsigned max_sessions = 3;
};
[[nodiscard]] std::vector<SimJob> diff_batch_jobs(
    const DiffCampaignConfig& cfg);

/// Identity hash of everything that shapes a diff batch's verdicts: seed,
/// count, inject, min/max sessions. `repro_dir` only decides where
/// reproducers go and is left out.
[[nodiscard]] std::uint64_t diff_config_hash(const DiffCampaignConfig& cfg);

/// One completed diff scenario: enough to re-emit its verdict line and fold
/// it into the diff summary without running it again.
struct DiffScenario {
    bool passed = false;
    std::map<std::string, double> metrics;  ///< JobReport::metrics
    std::string verdict_line;               ///< to_verdict_line, batch index
};

/// Progress of a diff batch: its completed scenarios by batch index. The
/// saved blob is a ckpt::Saver container whose manifest pins
/// diff_config_hash, so progress never resumes a different batch.
struct DiffProgress {
    std::map<std::uint32_t, DiffScenario> done;

    [[nodiscard]] std::string save(const DiffCampaignConfig& cfg) const;
    /// Replace `done` from a save() blob. False (with *err set) on a
    /// malformed blob or a config mismatch; `done` is then unspecified.
    [[nodiscard]] bool restore(const std::string& blob,
                               const DiffCampaignConfig& cfg,
                               std::string* err);
};

/// Restore `progress` from the campaign state file at `path`; the same
/// contract as resume_closure.
[[nodiscard]] StateRead resume_diff(DiffProgress& progress,
                                    const DiffCampaignConfig& cfg,
                                    const std::string& path,
                                    std::string* err);

/// Run the scenarios of diff_batch_jobs(cfg) that `progress` does not hold
/// and add each one as it completes. Each job reaches rc.on_record and
/// rc.jsonl_path with its batch index. With a non-empty `state_path`, the
/// file is rewritten after every completed scenario, the last included.
/// False (with *err set) when a write failed; the batch still runs to the
/// end, but the file stops advancing.
[[nodiscard]] bool run_diff_remaining(const DiffCampaignConfig& cfg,
                                      const CampaignConfig& rc,
                                      DiffProgress& progress,
                                      const std::string& state_path,
                                      std::string* err);

}  // namespace autovision::campaign
