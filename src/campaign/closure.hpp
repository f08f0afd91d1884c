// campaign: the coverage-closure loop.
//
// Generate a batch of constrained-random scenarios -> run them on the
// campaign worker pool -> merge the per-job coverage shards -> re-weight
// the generator toward the bins that are still open -> repeat, until the
// coverage target is reached, the loop saturates (no new bins for N
// consecutive batches), or the batch budget runs out.
//
// The feedback edge is scen::bias_towards; switching it off (`bias =
// false`) turns the loop into the equal-budget pure-random control arm the
// biased run is benchmarked against (the strictly-more-bins closure test).
// Per-scenario seeds depend only on (seed, batch, index), so the two arms
// draw from identical seed streams and differ only in the weight tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cover/model.hpp"
#include "runner.hpp"
#include "scen/scenario.hpp"
#include "state_file.hpp"

namespace autovision::campaign {

struct ClosureConfig {
    scen::ScenarioConstraints base;  ///< batch-0 weight table
    std::uint64_t seed = 1;          ///< campaign seed (everything derives)
    unsigned batch_size = 16;
    unsigned max_batches = 8;
    double target_percent = 95.0;    ///< stop when merged coverage reaches it
    unsigned saturation_batches = 2; ///< stop after N batches with no new bins
    bool bias = true;                ///< false: pure-random control arm
};

struct BatchSummary {
    unsigned index = 0;
    std::size_t new_bins = 0;   ///< goal bins first hit by this batch
    std::size_t goal_hit = 0;   ///< cumulative after the batch
    double percent = 0.0;
};

struct ClosureResult {
    cover::Coverage merged;     ///< the model, merged over every job shard
    std::vector<BatchSummary> batches;
    std::vector<JobRecord> records;  ///< all job records, batch order
    bool reached_target = false;
    bool saturated = false;
    unsigned scenarios_run = 0;
};

/// One SimJob per scenario; each job runs its scenario in isolation and
/// returns a coverage shard in JobReport::coverage.
[[nodiscard]] std::vector<SimJob> scenario_jobs(
    const std::vector<scen::Scenario>& batch);

/// The closure loop, one batch at a time — the stepping form run_closure()
/// wraps and `campaign_runner --state` resumes across process restarts.
///
/// Everything a batch contributes is deterministic given (config, batch
/// index): scenario seeds depend only on (seed, batch, index), the coverage
/// merge is order-independent, and the bias weights are a pure function of
/// (base constraints, merged coverage). The loop's resumable state is
/// therefore just the merged counters plus a few scalars; save() emits it
/// as a ckpt-section blob and restore() rebuilds the loop mid-campaign,
/// after which the remaining batches produce cover/verdict output
/// byte-identical to an uninterrupted run (pinned by the SvcClosureLoop and
/// ClosureStateFile tests and by tools/resume_smoke.sh).
class ClosureLoop {
public:
    explicit ClosureLoop(ClosureConfig cc);

    /// True once the target/saturation/budget stop has been reached.
    [[nodiscard]] bool done() const noexcept;
    /// Generate + run the next batch on a pool configured by `rc`.
    /// Precondition: !done().
    BatchSummary run_batch(const CampaignConfig& rc);

    [[nodiscard]] const cover::Coverage& merged() const noexcept {
        return merged_;
    }
    [[nodiscard]] const std::vector<BatchSummary>& batches() const noexcept {
        return batches_;
    }
    /// Deterministic per-job verdict lines (to_verdict_line) over every
    /// completed batch — including batches completed before a restore,
    /// whose full JobRecords no longer exist.
    [[nodiscard]] const std::vector<std::string>& verdicts() const noexcept {
        return verdicts_;
    }
    [[nodiscard]] unsigned next_batch() const noexcept { return next_batch_; }
    [[nodiscard]] unsigned scenarios_run() const noexcept {
        return scenarios_run_;
    }

    /// Assemble a ClosureResult. `records` holds only the batches run in
    /// this process; after a restore the earlier batches are represented by
    /// verdicts() alone.
    [[nodiscard]] ClosureResult result() const;

    /// Serialize the resumable state (ckpt::Saver blob; manifest pins a
    /// hash of the closure config so a blob cannot resume a different
    /// campaign). Call between batches only.
    [[nodiscard]] bool save(std::ostream& os) const;
    /// Rebuild mid-campaign state from a save() blob. False (with *err set)
    /// on a malformed blob or a config mismatch; the loop is then unusable.
    [[nodiscard]] bool restore(std::istream& is, std::string* err);

private:
    ClosureConfig cc_;
    scen::ScenarioConstraints current_;
    cover::Coverage merged_;
    std::vector<BatchSummary> batches_;
    std::vector<JobRecord> records_;
    std::vector<std::string> verdicts_;
    unsigned next_batch_ = 0;
    unsigned scenarios_run_ = 0;
    std::size_t prev_hit_ = 0;
    unsigned stale_ = 0;
    bool reached_target_ = false;
    bool saturated_ = false;
};

/// Identity hash of the parameters that shape a closure campaign; a saved
/// loop blob only restores into a loop built from an identical config.
[[nodiscard]] std::uint64_t closure_config_hash(const ClosureConfig& cc);

/// Restore `loop` from the campaign state file at `path`. kAbsent leaves
/// the loop untouched. kRejected (bad frame, failed restore, config
/// mismatch) sets *err; the loop is then unusable and the file untouched.
[[nodiscard]] StateRead resume_closure(ClosureLoop& loop,
                                       const std::string& path,
                                       std::string* err);

/// Run the remaining batches of `loop`. With a non-empty `state_path`, the
/// file is rewritten with loop.save() after every completed batch, the
/// last included. False (with *err set) when a save or write fails.
[[nodiscard]] bool run_closure_batches(ClosureLoop& loop,
                                       const CampaignConfig& rc,
                                       const std::string& state_path,
                                       std::string* err);

/// Run the closure loop to completion. `rc` configures the per-batch
/// worker pool.
[[nodiscard]] ClosureResult run_closure(const ClosureConfig& cc,
                                        const CampaignConfig& rc);

}  // namespace autovision::campaign
