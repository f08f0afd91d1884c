// Tests for the differential VM-vs-ReSim oracle (src/diff): side drivers
// and classification, the delta-debugging shrinker, the reproducer
// artifacts, and the diff campaign (including its watchdog behaviour and
// its resumable progress).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/runner.hpp"
#include "campaign/state_file.hpp"
#include "diff/classify.hpp"
#include "diff/repro.hpp"
#include "diff/shrink.hpp"
#include "scen/scenario.hpp"

using namespace autovision;
using campaign::CampaignConfig;
using campaign::CampaignResult;
using campaign::CampaignRunner;
using campaign::DiffCampaignConfig;
using campaign::DiffProgress;
using campaign::JobRecord;
using campaign::JobStatus;
using campaign::SimJob;
using campaign::StateRead;

namespace fs = std::filesystem;

namespace {

/// Stream-only constrained-random scenario (what the diff campaign runs).
scen::Scenario stream_scenario(std::uint64_t seed, unsigned max_sessions = 3) {
    scen::ScenarioConstraints c;
    c.w_stream = 1;
    c.w_system = 0;
    c.w_fault = 0;
    c.max_sessions = max_sessions;
    return scen::generate(c, seed);
}

/// A hand-built clean session targeting `module_id`.
scen::StreamSession clean_session(std::uint8_t module_id,
                                  std::uint32_t payload = 8) {
    scen::StreamSession ss;
    ss.module_id = module_id;
    ss.payload_words = payload;
    ss.filler_seed = 0xBEEF0000u + module_id;
    return ss;
}

scen::Scenario hand_scenario(std::vector<scen::StreamSession> sessions) {
    scen::Scenario s;
    s.kind = scen::Kind::kStream;
    s.seed = 0xD1FF;
    s.name = "hand";
    s.sessions = std::move(sessions);
    return s;
}

bool has_divergence(const diff::DiffReport& r, diff::DivergenceKind k,
                    bool genuine) {
    for (const diff::Divergence& d : r.divergences) {
        if (d.kind == k && d.genuine == genuine) return true;
    }
    return false;
}

double metric(const JobRecord& r, const std::string& key) {
    const auto it = r.report.metrics.find(key);
    return it == r.report.metrics.end() ? -1.0 : it->second;
}

fs::path fresh_dir(const std::string& leaf) {
    const fs::path d = fs::path(::testing::TempDir()) / leaf;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

std::string slurp(const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Oracle: pure helpers

TEST(DiffOracle, ExpectedSelectsFollowSwapSchedule) {
    scen::StreamSession dead = clean_session(1);
    dead.corrupt = scen::Corrupt::kHeaderOnly;  // no FDRI => no swap
    const scen::Scenario s = hand_scenario(
        {clean_session(2), dead, clean_session(1)});
    // Initial configuration (CIE, slot 0), then ME (slot 1), the header-only
    // session swaps nothing, then CIE again.
    EXPECT_EQ(diff::expected_selects(s), (std::vector<int>{0, 1, 0}));

    std::size_t words = 0;
    for (const scen::StreamSession& ss : s.sessions) words += ss.words().size();
    EXPECT_EQ(diff::simb_word_count(s), words);
}

TEST(DiffOracle, FaultNamesRoundTrip) {
    for (unsigned i = 0; i < static_cast<unsigned>(diff::DiffFault::kCount);
         ++i) {
        const auto f = static_cast<diff::DiffFault>(i);
        bool ok = false;
        EXPECT_EQ(diff::fault_from_string(diff::to_string(f), &ok), f);
        EXPECT_TRUE(ok);
    }
    bool ok = true;
    (void)diff::fault_from_string("no-such-fault", &ok);
    EXPECT_FALSE(ok);
}

// ---------------------------------------------------------------------------
// Oracle: clean design

TEST(DiffOracle, CleanScenarioNoGenuineDivergence) {
    const diff::DiffOutcome out = diff::run_diff(stream_scenario(42));
    EXPECT_EQ(out.report.genuine(), 0u) << out.report.first_genuine();
    // Both sides ran the same probe schedule and agree on every outcome.
    ASSERT_EQ(out.vm.probes.size(), out.resim.probes.size());
    for (std::size_t i = 0; i < out.vm.probes.size(); ++i) {
        EXPECT_TRUE(out.vm.probes[i].done) << "probe " << i;
        EXPECT_EQ(out.vm.probes[i], out.resim.probes[i]) << "probe " << i;
    }
}

TEST(DiffOracle, MaskedDivergencesAreReported) {
    // The VM blind spots must be *visible* in the report (as expected), not
    // silently dropped: ReSim-only SimB machinery and the X window, and the
    // VM-only signature writes.
    const scen::Scenario s = hand_scenario({clean_session(2)});
    const diff::DiffOutcome out = diff::run_diff(s);
    EXPECT_EQ(out.report.genuine(), 0u) << out.report.first_genuine();
    EXPECT_GE(out.report.expected(), 3u);
    EXPECT_TRUE(has_divergence(out.report, diff::DivergenceKind::kMechanism,
                               /*genuine=*/false));
    for (const diff::Divergence& d : out.report.divergences) {
        EXPECT_FALSE(d.genuine) << d.detail;
        EXPECT_EQ(d.kind, diff::DivergenceKind::kMechanism) << d.detail;
    }
}

// ---------------------------------------------------------------------------
// Oracle: injected faults (satellite: bug.hw.2 through the oracle)

TEST(DiffOracle, Hw2NoSigInitIsGenuineOnVm) {
    // bug.hw.2: the engine_signature register is never initialised. The VM
    // region starts empty (silent hang); ReSim's power-on configuration is
    // real, so only the VM side diverges — and the classifier must say so.
    diff::DiffOptions opt;
    opt.inject = diff::DiffFault::kVmNoSigInit;
    const scen::Scenario s = hand_scenario({clean_session(2)});
    const diff::DiffOutcome out = diff::run_diff(s, opt);

    ASSERT_GT(out.report.genuine(), 0u);
    EXPECT_EQ(out.report.genuine_on(diff::Side::kVm), out.report.genuine());
    EXPECT_EQ(out.report.genuine_on(diff::Side::kResim), 0u);
    // The initial probe is the observable: lost start pulse under VM.
    ASSERT_FALSE(out.vm.probes.empty());
    ASSERT_FALSE(out.resim.probes.empty());
    EXPECT_FALSE(out.vm.probes[0].done);
    EXPECT_TRUE(out.resim.probes[0].done);
    EXPECT_TRUE(has_divergence(out.report, diff::DivergenceKind::kProbe,
                               /*genuine=*/true));
}

TEST(DiffOracle, IsolationMissingGenuineOnResim) {
    // bug.dpr.1: no isolation across the bitstream transfer, so the X
    // window escapes onto the PLB — a divergence only ReSim can show.
    diff::DiffOptions opt;
    opt.inject = diff::DiffFault::kIsolationMissing;
    const scen::Scenario s = hand_scenario({clean_session(2)});
    const diff::DiffOutcome out = diff::run_diff(s, opt);

    ASSERT_GT(out.report.genuine(), 0u);
    EXPECT_EQ(out.report.genuine_on(diff::Side::kResim), out.report.genuine());
    EXPECT_EQ(out.report.genuine_on(diff::Side::kVm), 0u);
    bool x_escape = false;
    for (const diff::Divergence& d : out.report.divergences) {
        if (d.genuine && d.kind == diff::DivergenceKind::kDiagnostic &&
            d.detail.find("X/Z") != std::string::npos) {
            x_escape = true;
        }
    }
    EXPECT_TRUE(x_escape);
}

TEST(DiffOracle, WrongModuleMapGenuineOnResim) {
    // bug.dpr.3-class: the portal maps module ids to swapped slots, so the
    // SimB swap lands the wrong engine and the select sequence deviates.
    diff::DiffOptions opt;
    opt.inject = diff::DiffFault::kWrongModuleMap;
    const scen::Scenario s = hand_scenario({clean_session(2)});
    const diff::DiffOutcome out = diff::run_diff(s, opt);

    ASSERT_GT(out.report.genuine(), 0u);
    EXPECT_GE(out.report.genuine_on(diff::Side::kResim), 1u);
    EXPECT_TRUE(has_divergence(out.report,
                               diff::DivergenceKind::kSelectSequence,
                               /*genuine=*/true));
}

// ---------------------------------------------------------------------------
// Shrinker

TEST(DiffShrink, NormalizeRepairsInvariants) {
    scen::StreamSession ss = clean_session(2, /*payload=*/0);
    ss.corrupt = scen::Corrupt::kTruncate;  // needs payload >= 4
    ss.restore_state = true;                // needs a prior capture
    scen::Scenario s = hand_scenario({ss});
    const scen::Scenario n = diff::normalize(s);
    ASSERT_EQ(n.sessions.size(), 1u);
    EXPECT_GE(n.sessions[0].payload_words, 4u);
    EXPECT_FALSE(n.sessions[0].restore_state);
}

TEST(DiffShrink, CleanScenarioDoesNotShrink) {
    const diff::ShrinkResult r = diff::shrink(stream_scenario(42));
    EXPECT_FALSE(r.diverged);
    EXPECT_EQ(r.runs, 1u);  // just the baseline
}

TEST(DiffShrink, MinimalReproUnderQuarter) {
    // Acceptance criterion: for an injected fault, the minimal reproducer
    // is <= 25% of the original scenario's SimB word count.
    diff::ShrinkOptions opt;
    opt.diff.inject = diff::DiffFault::kIsolationMissing;
    const scen::Scenario s = hand_scenario({clean_session(2, 120),
                                            clean_session(1, 150),
                                            clean_session(2, 200)});
    const diff::ShrinkResult r = diff::shrink(s, opt);
    ASSERT_TRUE(r.diverged);
    EXPECT_GT(r.original_words, 0u);
    EXPECT_LE(r.minimal_words * 4, r.original_words)
        << r.minimal_words << " of " << r.original_words << " words";

    // The minimal scenario still reproduces the same class of divergence.
    const diff::DiffOutcome replay = diff::run_diff(r.minimal, opt.diff);
    EXPECT_GT(replay.report.genuine(), 0u);
    EXPECT_GE(replay.report.genuine_on(diff::Side::kResim), 1u);
}

TEST(DiffShrink, DeterministicForFixedSeed) {
    diff::ShrinkOptions opt;
    opt.diff.inject = diff::DiffFault::kVmNoSigInit;
    const scen::Scenario s = stream_scenario(1234);
    const diff::ShrinkResult a = diff::shrink(s, opt);
    const diff::ShrinkResult b = diff::shrink(s, opt);
    ASSERT_TRUE(a.diverged);
    ASSERT_TRUE(b.diverged);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.minimal_words, b.minimal_words);
    const diff::ReproBundle ba = diff::make_bundle(
        a.minimal, a.outcome.report, opt.diff.inject, a.original_words,
        a.minimal_words);
    const diff::ReproBundle bb = diff::make_bundle(
        b.minimal, b.outcome.report, opt.diff.inject, b.original_words,
        b.minimal_words);
    EXPECT_EQ(diff::repro_to_json(ba), diff::repro_to_json(bb));
}

// ---------------------------------------------------------------------------
// Reproducer artifacts

TEST(DiffRepro, JsonRoundTrip) {
    scen::StreamSession a = clean_session(2, 17);
    a.capture_first = true;
    a.capture_module = 1;
    a.dcr = scen::DcrTraffic::kWrite;
    scen::StreamSession b = clean_session(1, 9);
    b.corrupt = scen::Corrupt::kBitFlip;
    b.corrupt_pos = 3;
    b.corrupt_bit = 17;
    b.word_gap = 4;
    b.type2_header = false;
    scen::Scenario s = hand_scenario({a, b});
    s.name = "roundtrip";
    s.seed = 0xABCDEF0123456789ull;

    diff::ReproBundle in;
    in.scenario = s;
    in.inject = diff::DiffFault::kWrongModuleMap;
    in.original_words = 123;
    in.minimal_words = 31;
    in.genuine = {"probe on both: probe 1 mismatch"};

    const std::string j = diff::repro_to_json(in);
    diff::ReproBundle out;
    std::string err;
    ASSERT_TRUE(diff::repro_from_json(j, &out, &err)) << err;
    EXPECT_EQ(diff::repro_to_json(out), j);
    EXPECT_EQ(out.scenario.seed, s.seed);
    EXPECT_EQ(out.inject, in.inject);
    ASSERT_EQ(out.scenario.sessions.size(), 2u);
    EXPECT_EQ(out.scenario.sessions[1].corrupt, scen::Corrupt::kBitFlip);
    EXPECT_EQ(out.scenario.sessions[1].corrupt_bit, 17u);
    EXPECT_FALSE(out.scenario.sessions[1].type2_header);
    EXPECT_EQ(out.scenario.sessions[0].dcr, scen::DcrTraffic::kWrite);
}

TEST(DiffRepro, LoaderRejectsGarbage) {
    diff::ReproBundle out;
    std::string err;
    EXPECT_FALSE(diff::repro_from_json("not json at all", &out, &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(diff::repro_from_json("{\"version\": 1}", &out, &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(diff::repro_from_json(
        "{\"version\": 99, \"name\": \"x\", \"seed\": \"0x1\", \"kind\": "
        "\"stream\", \"inject\": \"none\", \"original_words\": 1, "
        "\"minimal_words\": 1, \"sessions\": [], \"genuine\": []}",
        &out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(DiffRepro, SimbTextMatchesWordStream) {
    scen::StreamSession ss = clean_session(2, 2);
    ss.corrupt = scen::Corrupt::kXWord;  // exercises the all-X rendering
    ss.corrupt_pos = 0;
    const scen::Scenario s = hand_scenario({ss});
    const std::string text = diff::simb_to_text(s);
    EXPECT_NE(text.find("AA995566"), std::string::npos);  // SYNC
    EXPECT_NE(text.find("XXXXXXXX"), std::string::npos);  // the X word
    // One non-comment line per word.
    std::size_t lines = 0;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
        if (!line.empty() && line[0] != '#') ++lines;
    }
    EXPECT_EQ(lines, diff::simb_word_count(s));
}

// ---------------------------------------------------------------------------
// Diff campaign

TEST(DiffCampaign, CleanSeedBatchZeroGenuine) {
    // Acceptance criterion: a 20-seed clean batch reports zero genuine
    // divergences.
    DiffCampaignConfig dc;
    dc.seed = 7;
    dc.count = 20;
    CampaignConfig cc;
    cc.jobs = 4;
    const CampaignResult res =
        CampaignRunner(cc).run(campaign::diff_batch_jobs(dc));
    ASSERT_EQ(res.records.size(), 20u);
    double genuine = 0.0;
    for (const JobRecord& r : res.records) {
        EXPECT_EQ(r.status, JobStatus::kPass)
            << r.name << ": " << r.report.verdict;
        genuine += metric(r, "genuine");
        EXPECT_GE(metric(r, "expected"), 0.0) << r.name;
    }
    EXPECT_EQ(genuine, 0.0);
}

TEST(DiffCampaign, InjectedFaultFlaggedAndShrunk) {
    const fs::path dir = fresh_dir("diff_campaign_repro");
    DiffCampaignConfig dc;
    dc.seed = 5;
    dc.count = 6;
    dc.inject = diff::DiffFault::kIsolationMissing;
    dc.repro_dir = dir.string();
    CampaignConfig cc;
    cc.jobs = 4;
    const CampaignResult res =
        CampaignRunner(cc).run(campaign::diff_batch_jobs(dc));

    double genuine = 0.0;
    unsigned shrunk = 0;
    std::string diverged_name;
    for (const JobRecord& r : res.records) {
        EXPECT_EQ(r.status, JobStatus::kPass)
            << r.name << ": " << r.report.verdict;
        genuine += metric(r, "genuine");
        if (metric(r, "shrunk_words") >= 0.0) {
            ++shrunk;
            diverged_name = r.name;
        }
    }
    ASSERT_GT(genuine, 0.0);
    ASSERT_GT(shrunk, 0u);

    // The reproducer pair exists and the JSON replays the divergence.
    const fs::path json = dir / (diverged_name + ".repro.json");
    const fs::path simb = dir / (diverged_name + ".simb");
    ASSERT_TRUE(fs::exists(json));
    ASSERT_TRUE(fs::exists(simb));
    diff::ReproBundle b;
    std::string err;
    ASSERT_TRUE(diff::load_repro_file(json.string(), &b, &err)) << err;
    EXPECT_EQ(b.inject, diff::DiffFault::kIsolationMissing);
    ASSERT_FALSE(b.scenario.sessions.empty());
    diff::DiffOptions opt;
    opt.inject = b.inject;
    const diff::DiffOutcome replay = diff::run_diff(b.scenario, opt);
    EXPECT_GT(replay.report.genuine(), 0u);
}

TEST(DiffCampaign, ShrunkReproIdenticalAcrossWorkerCounts) {
    // Satellite: same seed + divergence shrinks to a byte-identical minimal
    // reproducer no matter the worker count.
    const fs::path dir1 = fresh_dir("diff_det_w1");
    const fs::path dir4 = fresh_dir("diff_det_w4");
    for (const auto& [dir, workers] :
         {std::pair<fs::path, unsigned>{dir1, 1u}, {dir4, 4u}}) {
        DiffCampaignConfig dc;
        dc.seed = 5;
        dc.count = 4;
        dc.inject = diff::DiffFault::kVmNoSigInit;
        dc.repro_dir = dir.string();
        CampaignConfig cc;
        cc.jobs = workers;
        const CampaignResult res =
            CampaignRunner(cc).run(campaign::diff_batch_jobs(dc));
        for (const JobRecord& r : res.records) {
            EXPECT_EQ(r.status, JobStatus::kPass)
                << r.name << ": " << r.report.verdict;
        }
    }
    std::vector<fs::path> files1;
    for (const auto& e : fs::directory_iterator(dir1)) {
        files1.push_back(e.path().filename());
    }
    ASSERT_FALSE(files1.empty());
    std::size_t files4 = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir4)) {
        ++files4;
    }
    EXPECT_EQ(files1.size(), files4);
    for (const fs::path& f : files1) {
        ASSERT_TRUE(fs::exists(dir4 / f)) << f;
        EXPECT_EQ(slurp(dir1 / f), slurp(dir4 / f)) << f;
    }
}

TEST(DiffCampaign, WatchdogKillsHangingDiffJobAndRetries) {
    // Satellite: a deliberately hanging diff job is killed by the watchdog,
    // retried exactly the configured number of times, then recorded failed.
    SimJob job;
    job.name = "diff.hang";
    job.body = [](const campaign::JobContext& ctx) {
        const scen::Scenario sc = stream_scenario(3, /*max_sessions=*/1);
        diff::DiffOptions opt;
        opt.cancel = ctx.cancel_flag();
        // Loop forever unless cancelled; the wall-clock cap keeps a broken
        // watchdog from hanging the whole test run.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds{20};
        while (!ctx.cancelled() &&
               std::chrono::steady_clock::now() < give_up) {
            (void)diff::run_diff(sc, opt);
        }
        campaign::JobReport rep;
        rep.pass = false;
        rep.verdict = "hung";
        return rep;
    };

    CampaignConfig cc;
    cc.jobs = 1;
    cc.timeout = std::chrono::milliseconds{20};
    cc.retries = 2;
    const CampaignResult res = CampaignRunner(cc).run({job});
    ASSERT_EQ(res.records.size(), 1u);
    const JobRecord& r = res.records[0];
    EXPECT_EQ(r.status, JobStatus::kTimeout);
    EXPECT_EQ(r.attempts, 3u);  // 1 initial + 2 retries
    EXPECT_FALSE(r.passed());
}

// ---------------------------------------------------------------------------
// Resumable progress and the --state file

namespace {

std::vector<std::string> verdict_lines(const DiffProgress& p) {
    std::vector<std::string> lines;
    for (const auto& [index, d] : p.done) lines.push_back(d.verdict_line);
    return lines;
}

}  // namespace

TEST(SvcExec, DiffResumeFromCheckpointByteIdentical) {
    DiffCampaignConfig cfg;
    cfg.seed = 9;
    cfg.count = 4;
    CampaignConfig rc;
    rc.jobs = 2;
    const std::string path = (fresh_dir("diff_resume") / "state").string();

    DiffProgress full;
    std::string err;
    ASSERT_TRUE(campaign::run_diff_remaining(cfg, rc, full, path, &err))
        << err;
    ASSERT_EQ(full.done.size(), 4u);
    DiffProgress reread;
    ASSERT_EQ(campaign::resume_diff(reread, cfg, path, &err),
              StateRead::kLoaded)
        << err;
    EXPECT_EQ(verdict_lines(reread), verdict_lines(full));

    // Killed with scenarios 0 and 2 done: only 1 and 3 rerun, under their
    // batch indices, and the merged verdict lines are identical.
    DiffProgress partial = full;
    partial.done.erase(1);
    partial.done.erase(3);
    ASSERT_TRUE(campaign::write_state_file(path, partial.save(cfg), &err))
        << err;
    DiffProgress resumed;
    ASSERT_EQ(campaign::resume_diff(resumed, cfg, path, &err),
              StateRead::kLoaded)
        << err;
    EXPECT_EQ(resumed.done.size(), 2u);
    std::vector<std::size_t> reran;
    CampaignConfig counting = rc;
    counting.on_record = [&](const JobRecord& r) { reran.push_back(r.index); };
    ASSERT_TRUE(
        campaign::run_diff_remaining(cfg, counting, resumed, path, &err))
        << err;
    std::sort(reran.begin(), reran.end());
    EXPECT_EQ(reran, (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(verdict_lines(resumed), verdict_lines(full));
    for (const auto& [index, d] : full.done) {
        EXPECT_EQ(resumed.done.at(index).passed, d.passed) << index;
        EXPECT_EQ(resumed.done.at(index).metrics, d.metrics) << index;
    }

    // Progress of a differently parameterised batch is rejected, never
    // silently restarted.
    DiffCampaignConfig other = cfg;
    other.seed = 10;
    DiffProgress cross;
    EXPECT_EQ(campaign::resume_diff(cross, other, path, &err),
              StateRead::kRejected);
    EXPECT_NE(err.find("config hash mismatch"), std::string::npos) << err;
}

TEST(DiffStateFile, FinishedStateRunsNothingAndReemitsVerdicts) {
    DiffCampaignConfig cfg;
    cfg.seed = 4;
    cfg.count = 2;
    CampaignConfig rc;
    rc.jobs = 2;
    const std::string path = (fresh_dir("diff_finished") / "state").string();
    DiffProgress first;
    std::string err;
    ASSERT_TRUE(campaign::run_diff_remaining(cfg, rc, first, path, &err))
        << err;
    const std::string bytes = slurp(path);

    DiffProgress again;
    ASSERT_EQ(campaign::resume_diff(again, cfg, path, &err),
              StateRead::kLoaded)
        << err;
    unsigned ran = 0;
    rc.on_record = [&](const JobRecord&) { ++ran; };
    ASSERT_TRUE(campaign::run_diff_remaining(cfg, rc, again, path, &err));
    EXPECT_EQ(ran, 0u);
    EXPECT_EQ(verdict_lines(again), verdict_lines(first));
    EXPECT_EQ(slurp(path), bytes);
}

TEST(DiffStateFile, ConfigHashCoversEveryVerdictShapingField) {
    const DiffCampaignConfig base;
    const std::uint64_t h = campaign::diff_config_hash(base);
    DiffCampaignConfig c = base;
    c.repro_dir = "elsewhere";  // where reproducers go, not what they say
    EXPECT_EQ(campaign::diff_config_hash(c), h);

    std::vector<DiffCampaignConfig> changed(5, base);
    changed[0].seed = 2;
    changed[1].count = 21;
    changed[2].inject = diff::DiffFault::kIsolationMissing;
    changed[3].min_sessions = 2;
    changed[4].max_sessions = 4;
    for (std::size_t i = 0; i < changed.size(); ++i) {
        EXPECT_NE(campaign::diff_config_hash(changed[i]), h) << i;
    }
}

TEST(DiffStateFile, RestoreRejectsAScenarioOutsideTheBatch) {
    DiffCampaignConfig cfg;
    cfg.count = 4;
    DiffProgress lying;
    lying.done[4].verdict_line = "{}";
    DiffProgress restored;
    std::string err;
    EXPECT_FALSE(restored.restore(lying.save(cfg), cfg, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(restored.restore("not a checkpoint", cfg, &err));
}
