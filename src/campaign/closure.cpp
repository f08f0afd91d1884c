#include "closure.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "rrm/rrm_harness.hpp"
#include "scen/stream_harness.hpp"
#include "sink.hpp"
#include "sys/detection.hpp"

namespace autovision::campaign {

namespace {

JobReport run_stream_job(const scen::Scenario& s, const JobContext& ctx) {
    const scen::StreamResult r =
        scen::run_stream_scenario(s, ctx.cancel_flag());
    JobReport rep;
    rep.coverage = cover::make_model();
    cover::observe_events(rep.coverage, r.events, r.clk_period);
    rep.stats = r.stats;
    rep.sim_time = r.sim_time;
    rep.stages.dpr_sim = r.sim_time;
    // A stream scenario passes when exactly the expected sessions swapped:
    // corrupted sessions must NOT activate a half-configured module.
    const unsigned expected = s.expected_swaps();
    rep.pass = r.swaps == expected;
    rep.verdict = rep.pass ? "clean"
                           : "[swaps " + std::to_string(r.swaps) +
                                 " != expected " + std::to_string(expected) +
                                 "]";
    rep.metrics = {{"swaps", static_cast<double>(r.swaps)},
                   {"expected_swaps", static_cast<double>(expected)},
                   {"aborts", static_cast<double>(r.aborts)},
                   {"truncations", static_cast<double>(r.truncations)},
                   {"captures", static_cast<double>(r.captures)},
                   {"restores", static_cast<double>(r.restores)},
                   {"diagnostics", static_cast<double>(r.diagnostics)}};
    return rep;
}

JobReport run_system_job(const scen::Scenario& s, const JobContext& ctx) {
    sys::Testbench tb(s.config);
    tb.set_cancel_flag(ctx.cancel_flag());
    const sys::RunResult r = tb.run(s.frames);
    JobReport rep;
    rep.pass = r.clean();
    rep.verdict = r.verdict();
    rep.stats = r.stats;
    rep.stages = r.stages;
    rep.sim_time = r.sim_time;
    rep.coverage = cover::make_model();
    if (tb.recorder() != nullptr) {
        cover::observe_events(rep.coverage, tb.recorder()->snapshot(),
                              s.config.clk_period);
    }
    if (r.traced) r.metrics.to_metric_map(rep.metrics);
    return rep;
}

JobReport run_regions_job(const scen::Scenario& s) {
    // The harness is self-bounding (cfg.max_cycles bailout), so the job
    // runs to completion rather than polling the cancel flag.
    const rrm::RrmResult r = rrm::run_rrm_scenario(s.rrm);
    JobReport rep;
    rep.coverage = cover::make_model();
    cover::observe_events(rep.coverage, r.events, r.clk_period);
    cover::observe_rrm(rep.coverage, s.rrm, r);
    rep.stats = r.stats;
    rep.sim_time = r.sim_time;
    rep.stages.dpr_sim = r.sim_time;

    std::uint64_t jobs = 0, timeouts = 0;
    for (const std::uint32_t j : r.jobs_done) jobs += j;
    for (const std::uint32_t t : r.timeouts) timeouts += t;
    const std::uint64_t expected_jobs =
        std::uint64_t{s.rrm.regions} * s.rrm.jobs_per_region;

    // A dropped isolation clamp must be *detected* (boundary diagnostics);
    // clean and overlap scenarios must drain their whole job mix without a
    // complaint. The FAR misdirection is judged by its signature instead:
    // the victim submits every session yet its boundary never swaps (they
    // all land on the co-region). Whether the stomped co-region then times
    // out or leaks X from its unisolated boundary depends on plan timing
    // across policies and region counts — that collateral is the
    // corruption's legitimate physics, not a harness failure, so it does
    // not gate the job (the 2-region round-robin shape, where the fallout
    // happens to be silent, is pinned by the RrmHarnessRun unit test).
    if (s.rrm.corrupt == rrm::RegionCorrupt::kDropIsolation) {
        rep.pass = r.completed && r.diagnostics > 0;
        rep.verdict = rep.pass ? "clean"
                               : "[isolation leak undetected after " +
                                     std::to_string(jobs) + " jobs]";
    } else if (s.rrm.corrupt == rrm::RegionCorrupt::kWrongRegionFar) {
        std::uint32_t victim_swaps = 0;
        for (const obs::Event& e : r.events) {
            if (e.kind == obs::EventKind::kSwap &&
                e.region == s.rrm.victim) {
                ++victim_swaps;
            }
        }
        rep.pass = r.completed && victim_swaps == 0 &&
                   r.sessions[s.rrm.victim] == s.rrm.jobs_per_region;
        rep.verdict = rep.pass
                          ? "clean"
                          : "[misdirection signature broken: victim swaps " +
                                std::to_string(victim_swaps) + ", sessions " +
                                std::to_string(r.sessions[s.rrm.victim]) +
                                "/" + std::to_string(s.rrm.jobs_per_region) +
                                (r.completed ? "]" : ", manager hung]");
    } else {
        rep.pass = r.completed && r.diagnostics == 0 &&
                   jobs == expected_jobs && timeouts == 0;
        rep.verdict =
            rep.pass ? "clean"
                     : "[jobs " + std::to_string(jobs) + "/" +
                           std::to_string(expected_jobs) + ", timeouts " +
                           std::to_string(timeouts) + ", diags " +
                           std::to_string(r.diagnostics) +
                           (r.completed ? "]" : ", manager hung]");
    }
    std::uint64_t max_wait = 0;
    for (const std::uint64_t w : r.arb_max_wait) {
        max_wait = std::max(max_wait, w);
    }
    rep.metrics = {{"swaps", static_cast<double>(r.swaps)},
                   {"jobs", static_cast<double>(jobs)},
                   {"timeouts", static_cast<double>(timeouts)},
                   {"arb_max_wait", static_cast<double>(max_wait)},
                   {"diagnostics", static_cast<double>(r.diagnostics)}};
    return rep;
}

JobReport run_fault_job(const scen::Scenario& s, const JobContext& ctx) {
    const sys::DetectionOutcome o =
        sys::run_detection(s.config, s.fault, s.frames, ctx.cancel_flag());
    JobReport rep;
    rep.pass = o.matches_expectation();
    rep.verdict = o.row();
    rep.stats = o.vm.stats + o.resim.stats;
    rep.stages = o.vm.stages;
    rep.stages += o.resim.stages;
    rep.sim_time = o.vm.sim_time + o.resim.sim_time;
    rep.coverage = cover::make_model();
    cover::observe_detection(rep.coverage, s.fault, cover::DetectMethod::kVm,
                             o.vm_detected());
    cover::observe_detection(rep.coverage, s.fault,
                             cover::DetectMethod::kResim, o.resim_detected());
    rep.metrics = {{"vm_detected", o.vm_detected() ? 1.0 : 0.0},
                   {"resim_detected", o.resim_detected() ? 1.0 : 0.0}};
    return rep;
}

}  // namespace

std::vector<SimJob> scenario_jobs(const std::vector<scen::Scenario>& batch) {
    std::vector<SimJob> jobs;
    jobs.reserve(batch.size());
    for (const scen::Scenario& s : batch) {
        SimJob job;
        job.name = s.name;
        char seed_hex[24];
        std::snprintf(seed_hex, sizeof seed_hex, "0x%016llx",
                      static_cast<unsigned long long>(s.seed));
        job.params = {{"seed", seed_hex}};
        switch (s.kind) {
            case scen::Kind::kStream:
                job.params["kind"] = "stream";
                job.params["sessions"] = std::to_string(s.sessions.size());
                job.body = [s](const JobContext& ctx) {
                    return run_stream_job(s, ctx);
                };
                break;
            case scen::Kind::kSystem:
                job.params["kind"] = "system";
                job.params["geometry"] = std::to_string(s.config.width) +
                                         "x" +
                                         std::to_string(s.config.height);
                job.body = [s](const JobContext& ctx) {
                    return run_system_job(s, ctx);
                };
                break;
            case scen::Kind::kFault:
                job.params["kind"] = "fault";
                job.params["fault"] = sys::fault_info(s.fault).id;
                job.body = [s](const JobContext& ctx) {
                    return run_fault_job(s, ctx);
                };
                break;
            case scen::Kind::kRegions:
                job.params["kind"] = "regions";
                job.params["regions"] = std::to_string(s.rrm.regions);
                job.params["policy"] = rrm::to_string(s.rrm.policy);
                job.body = [s](const JobContext&) {
                    return run_regions_job(s);
                };
                break;
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::uint64_t closure_config_hash(const ClosureConfig& cc) {
    std::uint64_t h = rtlsim::snap_hash64("campaign.closure.v1");
    h = rtlsim::snap_hash64_u64(cc.seed, h);
    h = rtlsim::snap_hash64_u64(cc.batch_size, h);
    h = rtlsim::snap_hash64_u64(cc.max_batches, h);
    // The bit pattern: a scaled integer cast collides nearby targets.
    h = rtlsim::snap_hash64_u64(
        std::bit_cast<std::uint64_t>(cc.target_percent), h);
    h = rtlsim::snap_hash64_u64(cc.saturation_batches, h);
    h = rtlsim::snap_hash64_u64(cc.bias ? 1 : 0, h);
    return h;
}

ClosureLoop::ClosureLoop(ClosureConfig cc) : cc_(std::move(cc)) {
    merged_ = cover::make_model();
    current_ = cc_.base;
}

bool ClosureLoop::done() const noexcept {
    return reached_target_ || saturated_ || next_batch_ >= cc_.max_batches;
}

BatchSummary ClosureLoop::run_batch(const CampaignConfig& rc) {
    const unsigned b = next_batch_;
    const std::vector<scen::Scenario> batch =
        scen::generate_batch(current_, cc_.seed, b, cc_.batch_size);
    CampaignRunner runner(rc);
    CampaignResult cres = runner.run(scenario_jobs(batch));

    for (JobRecord& rec : cres.records) {
        if (rec.report.coverage.same_shape(merged_)) {
            merged_ += rec.report.coverage;
        }
        // Verdict lines are numbered by campaign-wide submission order so
        // a resumed campaign continues the sequence seamlessly.
        rec.index += scenarios_run_;
        verdicts_.push_back(to_verdict_line(rec));
        records_.push_back(std::move(rec));
    }
    scenarios_run_ += static_cast<unsigned>(batch.size());
    next_batch_ = b + 1;

    const std::size_t hit = merged_.goal_hit();
    const BatchSummary summary{b, hit - prev_hit_, hit, merged_.percent()};
    batches_.push_back(summary);

    if (merged_.percent() >= cc_.target_percent) {
        reached_target_ = true;
    } else {
        stale_ = hit == prev_hit_ ? stale_ + 1 : 0;
        if (stale_ >= cc_.saturation_batches) saturated_ = true;
    }
    prev_hit_ = hit;
    if (!done() && cc_.bias) current_ = scen::bias_towards(cc_.base, merged_);
    return summary;
}

ClosureResult ClosureLoop::result() const {
    ClosureResult res;
    res.merged = merged_;
    res.batches = batches_;
    res.records = records_;
    res.reached_target = reached_target_;
    res.saturated = saturated_;
    res.scenarios_run = scenarios_run_;
    return res;
}

bool ClosureLoop::save(std::ostream& os) const {
    ckpt::Manifest m;
    m.config_hash = closure_config_hash(cc_);
    m.sim_time = next_batch_;
    ckpt::Saver saver(m);

    rtlsim::SnapWriter& st = saver.section("closure.state");
    st.u32(next_batch_);
    st.u32(scenarios_run_);
    st.u64(prev_hit_);
    st.u32(stale_);
    st.bool8(reached_target_);
    st.bool8(saturated_);

    merged_.save_hits(saver.section("closure.cover"));

    rtlsim::SnapWriter& bs = saver.section("closure.batches");
    bs.u32(static_cast<std::uint32_t>(batches_.size()));
    for (const BatchSummary& b : batches_) {
        bs.u32(b.index);
        bs.u64(b.new_bins);
        bs.u64(b.goal_hit);
        // percent is re-derivable but stored bit-exact so a resumed
        // summary print matches the uninterrupted one.
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof b.percent);
        std::memcpy(&bits, &b.percent, sizeof bits);
        bs.u64(bits);
    }

    rtlsim::SnapWriter& vs = saver.section("closure.verdicts");
    vs.u32(static_cast<std::uint32_t>(verdicts_.size()));
    for (const std::string& v : verdicts_) vs.str(v);

    return saver.write_to(os);
}

bool ClosureLoop::restore(std::istream& is, std::string* err) {
    const auto fail = [&](const std::string& why) {
        if (err != nullptr) *err = why;
        return false;
    };
    ckpt::Loader loader;
    if (!loader.load(is, closure_config_hash(cc_))) {
        return fail(loader.error());
    }

    rtlsim::SnapReader st = loader.reader("closure.state");
    next_batch_ = st.u32();
    scenarios_run_ = st.u32();
    prev_hit_ = st.u64();
    stale_ = st.u32();
    reached_target_ = st.bool8();
    saturated_ = st.bool8();
    if (!st.ok()) return fail("closure.state: malformed");

    merged_ = cover::make_model();
    rtlsim::SnapReader cv = loader.reader("closure.cover");
    if (!merged_.restore_hits(cv) || !cv.ok()) {
        return fail("closure.cover: shape mismatch");
    }

    batches_.clear();
    rtlsim::SnapReader bs = loader.reader("closure.batches");
    const std::uint32_t nb = bs.u32();
    for (std::uint32_t i = 0; i < nb && bs.ok_so_far(); ++i) {
        BatchSummary b;
        b.index = bs.u32();
        b.new_bins = bs.u64();
        b.goal_hit = bs.u64();
        const std::uint64_t bits = bs.u64();
        std::memcpy(&b.percent, &bits, sizeof b.percent);
        batches_.push_back(b);
    }
    if (!bs.ok() || batches_.size() != nb) {
        return fail("closure.batches: malformed");
    }

    verdicts_.clear();
    rtlsim::SnapReader vs = loader.reader("closure.verdicts");
    const std::uint32_t nv = vs.u32();
    for (std::uint32_t i = 0; i < nv && vs.ok_so_far(); ++i) {
        verdicts_.push_back(vs.str());
    }
    if (!vs.ok() || verdicts_.size() != nv) {
        return fail("closure.verdicts: malformed");
    }

    records_.clear();
    // The bias weights are a pure function of (base, merged coverage):
    // recompute instead of serializing the whole constraint table.
    current_ = (cc_.bias && next_batch_ > 0)
                   ? scen::bias_towards(cc_.base, merged_)
                   : cc_.base;
    return true;
}

StateRead resume_closure(ClosureLoop& loop, const std::string& path,
                         std::string* err) {
    std::string payload;
    const StateRead got = read_state_file(path, &payload, err);
    if (got != StateRead::kLoaded) return got;
    std::istringstream is(payload);
    std::string why;
    if (!loop.restore(is, &why)) {
        if (err != nullptr) *err = path + ": " + why;
        return StateRead::kRejected;
    }
    return StateRead::kLoaded;
}

bool run_closure_batches(ClosureLoop& loop, const CampaignConfig& rc,
                         const std::string& state_path, std::string* err) {
    while (!loop.done()) {
        loop.run_batch(rc);
        if (state_path.empty()) continue;
        std::ostringstream blob;
        if (!loop.save(blob)) {
            if (err != nullptr) *err = state_path + ": closure save failed";
            return false;
        }
        if (!write_state_file(state_path, blob.str(), err)) return false;
    }
    return true;
}

ClosureResult run_closure(const ClosureConfig& cc, const CampaignConfig& rc) {
    ClosureLoop loop(cc);
    while (!loop.done()) loop.run_batch(rc);
    return loop.result();
}

}  // namespace autovision::campaign
