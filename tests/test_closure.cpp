// The coverage-closure loop: determinism across worker interleavings,
// saturation/stop conditions, and the acceptance property — with the same
// seed and the same scenario budget, the coverage-biased arm hits strictly
// more goal bins than the pure-random control arm. Also the loop's
// save/restore and the crash-safe `--state` file that carries it.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaigns.hpp"
#include "campaign/closure.hpp"
#include "campaign/state_file.hpp"

namespace {

using namespace autovision;
using campaign::CampaignConfig;
using campaign::ClosureConfig;
using campaign::ClosureLoop;
using campaign::ClosureResult;
using campaign::StateRead;

namespace fs = std::filesystem;

scen::ScenarioConstraints streams_only() {
    scen::ScenarioConstraints c;
    c.w_system = 0;
    c.w_fault = 0;
    return c;
}

std::string json_of(const cover::Coverage& cov) {
    std::ostringstream os;
    cov.write_json(os);
    return os.str();
}

TEST(Closure, MergedCoverageIsDeterministicAcrossWorkerCounts) {
    // Same closure run on one worker and on four: per-job shards complete
    // in different orders, but the merge is elementwise addition over a
    // fixed shape, so the merged coverage must be byte-identical.
    ClosureConfig cc;
    cc.base = streams_only();
    cc.seed = 11;
    cc.batch_size = 6;
    cc.max_batches = 2;
    cc.target_percent = 101.0;  // never early-stop on target
    cc.saturation_batches = 99;

    CampaignConfig serial;
    serial.jobs = 1;
    CampaignConfig pooled;
    pooled.jobs = 4;

    const ClosureResult a = campaign::run_closure(cc, serial);
    const ClosureResult b = campaign::run_closure(cc, pooled);
    EXPECT_EQ(a.scenarios_run, b.scenarios_run);
    EXPECT_TRUE(a.merged == b.merged);
    EXPECT_EQ(json_of(a.merged), json_of(b.merged));
}

TEST(Closure, StopsWhenTheLoopSaturates) {
    // A generator that can only emit one shape (clean single-session
    // streams of one fixed bucket) stops finding new bins immediately.
    scen::ScenarioConstraints c = streams_only();
    c.w_corrupt.fill(0);
    c.w_corrupt[0] = 1;  // clean sessions only
    c.min_sessions = 1;
    c.max_sessions = 1;
    c.w_payload = {1, 0, 0};
    c.w_gap = {1, 0, 0};
    c.w_type1_header = 0;
    c.w_capture = 0;
    c.w_restore = 0;
    c.w_dcr = {1, 0, 0};
    c.w_toggle_module = 1;
    c.w_repeat_module = 0;

    ClosureConfig cc;
    cc.base = c;
    cc.bias = false;
    cc.seed = 5;
    cc.batch_size = 4;
    cc.max_batches = 6;
    cc.target_percent = 101.0;
    cc.saturation_batches = 2;

    CampaignConfig rc;
    rc.jobs = 2;
    const ClosureResult r = campaign::run_closure(cc, rc);
    EXPECT_TRUE(r.saturated);
    EXPECT_FALSE(r.reached_target);
    EXPECT_LT(r.batches.size(), cc.max_batches)
        << "saturation must stop the loop before the batch budget";
}

TEST(Closure, RecordsCarryMergeableCoverageShards) {
    ClosureConfig cc;
    cc.base = streams_only();
    cc.seed = 3;
    cc.batch_size = 4;
    cc.max_batches = 1;
    cc.target_percent = 101.0;

    CampaignConfig rc;
    rc.jobs = 2;
    const ClosureResult r = campaign::run_closure(cc, rc);
    ASSERT_EQ(r.records.size(), 4u);

    cover::Coverage manual = cover::make_model();
    for (const campaign::JobRecord& rec : r.records) {
        ASSERT_TRUE(rec.report.coverage.same_shape(manual));
        manual += rec.report.coverage;
    }
    EXPECT_TRUE(manual == r.merged)
        << "the merged model must equal the sum of the per-job shards";
}

TEST(Closure, RegionScenariosCloseTheRrmCrossBins) {
    // A regions-only campaign must execute through the rrm harness and
    // land hits in the region x engine x policy cross — the bins no other
    // scenario kind can reach.
    scen::ScenarioConstraints c;
    c.w_stream = 0;
    c.w_system = 0;
    c.w_fault = 0;
    c.w_regions = 1;

    ClosureConfig cc;
    cc.base = c;
    cc.seed = 21;
    cc.batch_size = 4;
    cc.max_batches = 1;
    cc.target_percent = 101.0;

    CampaignConfig rc;
    rc.jobs = 2;
    const ClosureResult r = campaign::run_closure(cc, rc);
    ASSERT_EQ(r.records.size(), 4u);
    for (const campaign::JobRecord& rec : r.records) {
        EXPECT_TRUE(rec.passed())
            << rec.name << ": " << rec.report.verdict;
    }

    const cover::Covergroup* cross = r.merged.find("rrm.cross");
    ASSERT_NE(cross, nullptr);
    std::size_t hit = 0;
    for (const cover::Bin& b : cross->bins()) {
        if (b.hits > 0) ++hit;
    }
    EXPECT_GT(hit, 0u) << "no region/engine/policy cell was reached";
    const cover::Covergroup* arb = r.merged.find("rrm.arb");
    ASSERT_NE(arb, nullptr);
    EXPECT_GT(arb->goal_hit(), 0u);
}

TEST(Closure, BiasedArmBeatsEqualBudgetPureRandom) {
    // The acceptance property. Both arms share the campaign seed, so batch
    // b / index i runs from the same scenario seed in both; only the
    // weight tables differ from batch 1 on. Stream-only keeps the runtime
    // in seconds.
    ClosureConfig biased;
    biased.base = streams_only();
    biased.seed = 7;
    biased.batch_size = 8;
    biased.max_batches = 3;
    biased.target_percent = 101.0;  // run the full budget on both arms
    biased.saturation_batches = 99;
    biased.bias = true;

    ClosureConfig control = biased;
    control.bias = false;

    CampaignConfig rc;
    rc.jobs = 4;

    const ClosureResult b = campaign::run_closure(biased, rc);
    const ClosureResult r = campaign::run_closure(control, rc);
    ASSERT_EQ(b.scenarios_run, r.scenarios_run) << "arms must spend the "
                                                   "same scenario budget";
    EXPECT_GT(b.merged.goal_hit(), r.merged.goal_hit())
        << "coverage feedback must hit strictly more goal bins than "
           "pure random at equal budget (biased "
        << b.merged.percent() << "% vs random " << r.merged.percent()
        << "%)";
}

TEST(Closure, ConfigHashSeesEveryBitOfTheTarget) {
    // The hash folds target_percent's bit pattern: a scaled integer cast
    // collided 95.0 with 95.0004 (and was UB for out-of-range values).
    ClosureConfig a;
    a.target_percent = 95.0;
    ClosureConfig b = a;
    b.target_percent = 95.0004;
    EXPECT_NE(campaign::closure_config_hash(a),
              campaign::closure_config_hash(b));
    EXPECT_EQ(campaign::closure_config_hash(a),
              campaign::closure_config_hash(ClosureConfig(a)));
}

// --- closure loop save/restore ---------------------------------------------

ClosureConfig tiny_closure() {
    ClosureConfig cc;
    cc.seed = 5;
    cc.batch_size = 3;
    cc.max_batches = 3;
    cc.target_percent = 101.0;  // never stops on target
    return cc;
}

std::string cover_json(const ClosureLoop& loop) {
    std::ostringstream os;
    loop.merged().write_json(os);
    return os.str();
}

// A loop saved after batch 1 and restored into a fresh instance must
// finish with byte-identical verdicts, coverage, and batch summaries —
// the in-process version of the kill -9 smoke.
TEST(SvcClosureLoop, SaveRestoreByteIdenticalToUninterrupted) {
    CampaignConfig rc;
    rc.jobs = 2;

    ClosureLoop straight(tiny_closure());
    while (!straight.done()) straight.run_batch(rc);

    ClosureLoop first(tiny_closure());
    ASSERT_FALSE(first.done());
    first.run_batch(rc);
    std::ostringstream blob;
    ASSERT_TRUE(first.save(blob));

    ClosureLoop resumed(tiny_closure());
    std::istringstream is(blob.str());
    std::string err;
    ASSERT_TRUE(resumed.restore(is, &err)) << err;
    EXPECT_EQ(resumed.next_batch(), 1u);
    while (!resumed.done()) resumed.run_batch(rc);

    EXPECT_EQ(resumed.verdicts(), straight.verdicts());
    EXPECT_EQ(cover_json(resumed), cover_json(straight));
    ASSERT_EQ(resumed.batches().size(), straight.batches().size());
    for (std::size_t i = 0; i < straight.batches().size(); ++i) {
        EXPECT_EQ(resumed.batches()[i].goal_hit,
                  straight.batches()[i].goal_hit)
            << "batch " << i;
        EXPECT_EQ(resumed.batches()[i].percent,
                  straight.batches()[i].percent)
            << "batch " << i;
    }
    EXPECT_EQ(resumed.scenarios_run(), straight.scenarios_run());
}

TEST(SvcClosureLoop, RestoreRejectsMismatchedConfig) {
    CampaignConfig rc;
    rc.jobs = 2;
    ClosureLoop loop(tiny_closure());
    loop.run_batch(rc);
    std::ostringstream blob;
    ASSERT_TRUE(loop.save(blob));

    ClosureConfig other = tiny_closure();
    other.seed = 6;  // a different campaign
    ClosureLoop wrong(other);
    std::istringstream is(blob.str());
    std::string err;
    EXPECT_FALSE(wrong.restore(is, &err));
    EXPECT_FALSE(err.empty());

    ClosureLoop garbage(tiny_closure());
    std::istringstream bad("not a checkpoint");
    EXPECT_FALSE(garbage.restore(bad, &err));
}

// --- the --state file ------------------------------------------------------

/// Cold boots keep a fresh loop cheap enough to build once per mutation.
ClosureConfig state_closure() {
    ClosureConfig cc = tiny_closure();
    cc.batch_size = 2;
    cc.max_batches = 2;
    cc.warm_start = false;
    return cc;
}

fs::path fresh_dir(const std::string& leaf) {
    const fs::path d = fs::path(::testing::TempDir()) / ("closure_" + leaf);
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

std::string read_file(const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void write_file(const fs::path& p, const std::string& bytes) {
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A finished state_closure() campaign's state file, as bytes.
std::string finished_state(const fs::path& dir) {
    CampaignConfig rc;
    rc.jobs = 2;
    ClosureLoop loop(state_closure());
    std::string err;
    EXPECT_TRUE(campaign::run_closure_batches(loop, rc, (dir / "done").string(),
                                              &err))
        << err;
    return read_file(dir / "done");
}

/// `bytes` as a state file must be rejected with a reason, leave a fresh
/// loop unresumed, and stay byte-for-byte on disk.
void expect_rejected(const fs::path& path, const std::string& bytes,
                     const std::string& what) {
    write_file(path, bytes);
    ClosureLoop loop(state_closure());
    std::string err;
    EXPECT_EQ(campaign::resume_closure(loop, path.string(), &err),
              StateRead::kRejected)
        << what;
    EXPECT_FALSE(err.empty()) << what;
    EXPECT_EQ(loop.next_batch(), 0u) << what;
    EXPECT_EQ(read_file(path), bytes) << what;
}

// The crash-safety contract, exhaustively: a state file cut at any byte
// offset is never resumed.
TEST(ClosureStateFile, TruncatedAtEveryByteOffsetIsRejected) {
    const fs::path dir = fresh_dir("state_trunc");
    const std::string full = finished_state(dir);
    ASSERT_GT(full.size(), 16u);
    EXPECT_FALSE(fs::exists(dir / "done.tmp"));
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        expect_rejected(dir / "cut", full.substr(0, cut),
                        "cut at " + std::to_string(cut));
    }
    // Trailing bytes are no more a valid frame than missing ones.
    expect_rejected(dir / "cut", full + '\0', "one trailing byte");
}

// Header (magic, length, checksum) and payload bytes alike: one flipped
// byte anywhere must fail the frame check.
TEST(ClosureStateFile, SingleByteFlipInHeaderOrPayloadIsRejected) {
    const fs::path dir = fresh_dir("state_flip");
    const std::string full = finished_state(dir);
    for (std::size_t at = 0; at < full.size(); ++at) {
        std::string bad = full;
        bad[at] = static_cast<char>(bad[at] ^ 0x20);
        expect_rejected(dir / "flip", bad,
                        "flip at " + std::to_string(at));
    }
}

TEST(ClosureStateFile, StateOfAnotherCampaignIsRejected) {
    const fs::path dir = fresh_dir("state_foreign");
    const std::string full = finished_state(dir);

    ClosureConfig other = state_closure();
    other.seed = 6;
    write_file(dir / "foreign", full);
    ClosureLoop loop(other);
    std::string err;
    EXPECT_EQ(campaign::resume_closure(loop, (dir / "foreign").string(), &err),
              StateRead::kRejected);
    EXPECT_NE(err.find("config hash mismatch"), std::string::npos) << err;
    EXPECT_EQ(loop.next_batch(), 0u);
    EXPECT_EQ(read_file(dir / "foreign"), full);

    // A diff campaign's progress is a valid frame, but not a closure state.
    campaign::DiffCampaignConfig dc;
    campaign::DiffProgress progress;
    std::string diff_err;
    ASSERT_TRUE(campaign::write_state_file((dir / "diff").string(),
                                           progress.save(dc), &diff_err))
        << diff_err;
    ClosureLoop other_kind(state_closure());
    EXPECT_EQ(campaign::resume_closure(other_kind, (dir / "diff").string(),
                                       &err),
              StateRead::kRejected);
}

TEST(ClosureStateFile, MissingFileIsAFreshStart) {
    const fs::path dir = fresh_dir("state_missing");
    ClosureLoop loop(state_closure());
    std::string err;
    EXPECT_EQ(campaign::resume_closure(loop, (dir / "none").string(), &err),
              StateRead::kAbsent);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(loop.next_batch(), 0u);
    EXPECT_FALSE(fs::exists(dir / "none"));
}

// A length field past the payload bound is refused before anything is
// allocated for it, whatever follows.
TEST(ClosureStateFile, ShortOrOversizedFrameIsRejected) {
    const fs::path dir = fresh_dir("state_oversized");
    const std::string full = finished_state(dir);
    expect_rejected(dir / "bad", "", "empty file");
    expect_rejected(dir / "bad", full.substr(0, 15), "15-byte header");
    for (const std::uint32_t len : {campaign::kMaxStatePayload + 1,
                                    std::uint32_t{0xFFFF'FFFF}}) {
        std::string bad = full;
        for (int i = 0; i < 4; ++i) {
            bad[4 + i] = static_cast<char>(len >> (24 - 8 * i));
        }
        expect_rejected(dir / "bad", bad, "length " + std::to_string(len));
    }
}

// Kill after batch 1, resume from the file: the same bytes as one
// uninterrupted run. Resuming the finished file again runs no scenario
// and re-emits the same artifacts.
TEST(ClosureStateFile, ResumeAndFinishedStateMatchUninterrupted) {
    const fs::path dir = fresh_dir("state_resume");
    CampaignConfig rc;
    rc.jobs = 2;
    ClosureLoop straight(state_closure());
    while (!straight.done()) straight.run_batch(rc);

    const std::string path = (dir / "state").string();
    std::string err;
    {
        ClosureLoop killed(state_closure());
        killed.run_batch(rc);
        std::ostringstream blob;
        ASSERT_TRUE(killed.save(blob));
        ASSERT_TRUE(campaign::write_state_file(path, blob.str(), &err)) << err;
    }
    {
        ClosureLoop resumed(state_closure());
        ASSERT_EQ(campaign::resume_closure(resumed, path, &err),
                  StateRead::kLoaded)
            << err;
        EXPECT_EQ(resumed.next_batch(), 1u);
        ASSERT_TRUE(campaign::run_closure_batches(resumed, rc, path, &err))
            << err;
        EXPECT_EQ(resumed.verdicts(), straight.verdicts());
        EXPECT_EQ(cover_json(resumed), cover_json(straight));
    }
    const std::string finished = read_file(path);

    ClosureLoop again(state_closure());
    ASSERT_EQ(campaign::resume_closure(again, path, &err), StateRead::kLoaded)
        << err;
    EXPECT_TRUE(again.done());
    std::atomic<unsigned> ran{0};
    CampaignConfig counting = rc;
    counting.on_record = [&](const campaign::JobRecord&) { ++ran; };
    ASSERT_TRUE(campaign::run_closure_batches(again, counting, path, &err));
    EXPECT_EQ(ran.load(), 0u);
    EXPECT_EQ(again.verdicts(), straight.verdicts());
    EXPECT_EQ(cover_json(again), cover_json(straight));
    EXPECT_EQ(read_file(path), finished);
}

}  // namespace
