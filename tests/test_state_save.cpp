// State saving and restoration through the configuration port — the ReSim
// companion feature (Gong & Diessel, FPGA'12). A module's flip-flop state
// is captured with a GCAPTURE SimB before swap-out and reinstated with a
// GRESTORE-bearing configuration SimB at swap-in, so a preempted job
// resumes exactly where it stopped.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>

#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "engines/census_engine.hpp"
#include "engines/matching_engine.hpp"
#include "kernel/kernel.hpp"
#include "kernel/snapshot.hpp"
#include "recon/rr_boundary.hpp"
#include "resim/icap_artifact.hpp"
#include "resim/portal.hpp"
#include "resim/simb.hpp"
#include "rrm/engine_library.hpp"
#include "scen/rng.hpp"
#include "video/census.hpp"
#include "video/synth.hpp"

namespace autovision {
namespace {

using rtlsim::Clock;
using rtlsim::Logic;
using rtlsim::NS;
using rtlsim::ResetGen;
using rtlsim::Scheduler;
using rtlsim::Word;

constexpr rtlsim::Time kClk = 10 * NS;
constexpr std::uint32_t kIn = 0x1'0000;
constexpr std::uint32_t kOut = 0x2'0000;

struct StateTb {
    Scheduler sch;
    Clock clk{sch, "clk", kClk};
    ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem;
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{1, 16, 100000}};
    rtlsim::Signal<Logic> done_line{sch, "done", Logic::L0};
    EngineRegs cie_regs{sch, "cie_regs", clk.out, 0x60};
    EngineRegs me_regs{sch, "me_regs", clk.out, 0x68};
    CensusEngine cie{sch, "cie", clk.out, rst.out, cie_regs};
    MatchingEngine me{sch, "me", clk.out, rst.out, me_regs};
    RrBoundary rr{sch, "rr", plb.master(0), done_line};
    resim::ExtendedPortal portal{sch, "portal"};
    resim::IcapArtifact icap{sch, "icap", portal};

    StateTb() {
        plb.attach_slave(mem);
        rr.add_module(cie);
        rr.add_module(me);
        portal.map_module(1, 1, rr, 0);
        portal.map_module(1, 2, rr, 1);
        portal.initial_configuration(1, 1);
    }

    void run_cycles(unsigned n) { sch.run_until(sch.now() + n * kClk); }

    void write_simb(const std::vector<std::uint32_t>& ws) {
        for (std::uint32_t w : ws) icap.icap_write(Word{w});
    }

    void start_cie(unsigned w, unsigned h) {
        cie_regs.dcr_write(0x62, Word{kIn});
        cie_regs.dcr_write(0x63, Word{kOut});
        cie_regs.dcr_write(0x65, Word{(w << 16) | h});
        run_cycles(5);
        cie_regs.dcr_write(0x60, Word{1});
        run_cycles(5);
    }
};

TEST(StateSave, CaptureRefusedWhileDmaInFlight) {
    StateTb tb;
    video::SyntheticScene scene(video::SceneConfig::standard(32, 24, 2));
    tb.mem.load_bytes(kIn, scene.frame(0).pixels());
    tb.start_cie(32, 24);
    ASSERT_TRUE(tb.cie.busy());

    bool saw_refusal = false;
    bool saw_success = false;
    for (int i = 0; i < 50 && !(saw_refusal && saw_success); ++i) {
        tb.run_cycles(1);
        const auto st = tb.cie.rm_save_state();
        if (st.empty()) {
            saw_refusal = true;  // DMA in flight: quiescence rule enforced
        } else {
            saw_success = true;
        }
    }
    EXPECT_TRUE(saw_refusal) << "the quiescence check never triggered";
    EXPECT_TRUE(saw_success) << "no capturable cycle found";
    EXPECT_TRUE(tb.sch.has_diag_from("cie"));
}

TEST(StateSave, MidJobMigrationIsBitExact) {
    const unsigned w = 32;
    const unsigned h = 24;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h, 6));
    const video::Frame in = scene.frame(0);

    StateTb tb;
    tb.mem.load_bytes(kIn, in.pixels());
    tb.start_cie(w, h);
    tb.run_cycles(200);  // mid-frame
    ASSERT_TRUE(tb.cie.busy());

    // Capture the CIE (retry until a quiescent cycle is hit).
    resim::SimB cap;
    cap.rr_id = 1;
    cap.module_id = 1;
    for (int i = 0; i < 20 && tb.portal.captures() == 0; ++i) {
        tb.write_simb(cap.build_capture());
        tb.run_cycles(1);
    }
    ASSERT_EQ(tb.portal.captures(), 1u);
    ASSERT_TRUE(tb.portal.has_saved_state(1, 1));

    // Preempt: swap the ME in; the CIE job disappears with the module.
    resim::SimB to_me;
    to_me.rr_id = 1;
    to_me.module_id = 2;
    tb.write_simb(to_me.build());
    ASSERT_TRUE(tb.me.rm_active());
    tb.run_cycles(300);  // the region does other work for a while
    EXPECT_FALSE(tb.cie.busy());

    // Resume: configuration SimB with GRESTORE brings the CIE back with
    // its captured state, and the job runs to completion.
    resim::SimB back;
    back.rr_id = 1;
    back.module_id = 1;
    back.restore_state = true;
    tb.write_simb(back.build());
    ASSERT_TRUE(tb.cie.rm_active());
    EXPECT_TRUE(tb.cie.busy()) << "restored mid-job";
    EXPECT_EQ(tb.portal.restores(), 1u);

    for (int i = 0; i < 300 && !tb.cie_regs.done(); ++i) tb.run_cycles(64);
    ASSERT_TRUE(tb.cie_regs.done());

    const video::Frame want = video::census_transform(in);
    for (unsigned i = 0; i < want.size(); ++i) {
        ASSERT_EQ(tb.mem.peek_u8(kOut + i), want.pixels()[i])
            << "pixel " << i << " corrupted by the migration";
    }
}

TEST(StateSave, RestoreWithoutCaptureIsReported) {
    StateTb tb;
    tb.run_cycles(5);
    resim::SimB b;
    b.rr_id = 1;
    b.module_id = 2;
    b.restore_state = true;
    tb.write_simb(b.build());
    EXPECT_TRUE(tb.me.rm_active()) << "configuration itself still happens";
    EXPECT_EQ(tb.portal.restores(), 0u);
    bool found = false;
    for (const auto& d : tb.sch.diagnostics()) {
        if (d.message.find("without a previously captured") !=
            std::string::npos) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(StateSave, CaptureOfNonResidentModuleIsReported) {
    StateTb tb;
    tb.run_cycles(5);
    resim::SimB cap;
    cap.rr_id = 1;
    cap.module_id = 2;  // the ME is not resident (CIE is)
    tb.write_simb(cap.build_capture());
    EXPECT_EQ(tb.portal.captures(), 0u);
    bool found = false;
    for (const auto& d : tb.sch.diagnostics()) {
        if (d.message.find("not resident") != std::string::npos) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(StateSave, CorruptImageIsRejectedAtomically) {
    StateTb tb;
    tb.run_cycles(5);
    // Hand the module a garbage state image directly.
    std::vector<std::uint8_t> junk{1, 2, 3, 4, 5};
    EXPECT_FALSE(tb.cie.rm_restore_state(junk));
    EXPECT_FALSE(tb.cie.busy()) << "engine falls back to the initial state";
    // A truncated-but-magic-valid image must also be rejected.
    auto st = tb.cie.rm_save_state();
    ASSERT_FALSE(st.empty());
    st.resize(st.size() / 2);
    EXPECT_FALSE(tb.cie.rm_restore_state(st));
}

TEST(StateSave, RoundTripThroughSerializer) {
    // The byte primitives state images and checkpoint sections share.
    rtlsim::SnapWriter w;
    w.u32(0xDEADBEEF);
    w.i32(-42);
    w.bool8(true);
    const std::vector<std::uint8_t> bs{9, 8, 7};
    w.bytes(bs);
    const std::vector<std::uint32_t> ws{1, 2, 3, 4};
    w.words(ws);
    const auto img = w.take();

    rtlsim::SnapReader r(img);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_TRUE(r.bool8());
    EXPECT_EQ(r.bytes(), bs);
    EXPECT_EQ(r.words(), ws);
    EXPECT_TRUE(r.ok());

    rtlsim::SnapReader trunc(std::span<const std::uint8_t>(img.data(), 3));
    (void)trunc.u32();
    EXPECT_FALSE(trunc.ok_so_far());

    // A length prefix that claims more than the image holds fails cleanly.
    rtlsim::SnapReader short_words(
        std::span<const std::uint8_t>(img.data(), img.size() - 1));
    (void)short_words.u32();
    (void)short_words.i32();
    (void)short_words.bool8();
    EXPECT_EQ(short_words.bytes(), bs);
    EXPECT_TRUE(short_words.words().empty());
    EXPECT_FALSE(short_words.ok_so_far());

    // Trailing bytes make ok() false even when every read succeeded.
    rtlsim::SnapReader trailing(img);
    (void)trailing.u32();
    EXPECT_TRUE(trailing.ok_so_far());
    EXPECT_FALSE(trailing.ok());
}

// ---------------------------------------------------------------------------
// One state image per engine: GRESTORE and checkpoints share the job image
// and its validator. These run every library engine through both paths.

using rrm::EngineKind;

constexpr std::uint32_t kIn2 = 0x1'8000;
constexpr unsigned kW = 16;
constexpr unsigned kH = 8;
// ME: search 2, step 4, margin 2 -> a 3x1 grid on 16x8.
constexpr std::uint32_t kMeParam = 2u | (4u << 8) | (2u << 16);

/// One region holding the whole engine library behind a ReSim portal, all
/// engines sharing one EngineRegs block (rrm::make_engine's contract).
struct LibraryTb {
    Scheduler sch;
    Clock clk{sch, "clk", kClk};
    ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem{Memory::Config{0, 1u << 20, 4}};
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{1, 16, 100000}};
    rtlsim::Signal<Logic> done_line{sch, "done", Logic::L0};
    EngineRegs regs{sch, "regs", clk.out, 0x60};
    std::vector<std::unique_ptr<EngineBase>> engines;
    RrBoundary rr{sch, "rr", plb.master(0), done_line};
    resim::ExtendedPortal portal{sch, "portal"};
    resim::IcapArtifact icap{sch, "icap", portal};

    explicit LibraryTb(EngineKind first) {
        plb.attach_slave(mem);
        for (const rrm::EngineInfo& info : rrm::engine_library()) {
            engines.push_back(rrm::make_engine(info.kind, sch, info.id,
                                               clk.out, rst.out, regs));
            rr.add_module(*engines.back());
            portal.map_module(1, static_cast<std::uint8_t>(info.kind), rr,
                              static_cast<unsigned>(engines.size() - 1));
        }
        portal.initial_configuration(1, static_cast<std::uint8_t>(first));
        video::SyntheticScene scene(video::SceneConfig::standard(kW, kH, 4));
        mem.load_bytes(kIn, scene.frame(1).pixels());
        mem.load_bytes(kIn2, scene.frame(0).pixels());
    }

    EngineBase& engine(EngineKind k) {
        return *engines[static_cast<std::size_t>(k) - 1];
    }
    void run_cycles(unsigned n) { sch.run_until(sch.now() + n * kClk); }
    void write_simb(const std::vector<std::uint32_t>& ws) {
        for (std::uint32_t w : ws) icap.icap_write(Word{w});
    }
    void swap_to(EngineKind k, bool restore = false) {
        resim::SimB b;
        b.module_id = static_cast<std::uint8_t>(k);
        b.restore_state = restore;
        write_simb(b.build());
    }
    void capture(EngineKind k) {
        resim::SimB b;
        b.module_id = static_cast<std::uint8_t>(k);
        write_simb(b.build_capture());
    }
    void start_job() {
        regs.dcr_write(0x62, Word{kIn});
        regs.dcr_write(0x63, Word{kOut});
        regs.dcr_write(0x64, Word{kIn2});
        regs.dcr_write(0x65, Word{(kW << 16) | kH});
        regs.dcr_write(0x66, Word{kMeParam});
        run_cycles(5);
        regs.dcr_write(0x60, Word{1});
        run_cycles(5);
    }
    /// Run until `k` has completed `jobs` jobs; false on timeout.
    bool run_until_jobs(EngineKind k, std::uint64_t jobs) {
        for (int i = 0; i < 200 && engine(k).jobs_completed() < jobs; ++i) {
            run_cycles(16);
        }
        return engine(k).jobs_completed() >= jobs;
    }
};

EngineKind other_than(EngineKind k) {
    return static_cast<EngineKind>(static_cast<unsigned>(k) % 4 + 1);
}

std::vector<std::uint8_t> ckpt_image(const EngineBase& e) {
    rtlsim::SnapWriter w;
    e.ckpt_save(w);
    return w.take();
}

bool ckpt_restore_image(EngineBase& e, const std::vector<std::uint8_t>& img) {
    rtlsim::SnapReader r(img);
    return e.ckpt_restore(r);
}

TEST(StateSave, GrestoreOfACapturedIdleEngineIsAccepted) {
    // Regression: after a job, a swap-out and a swap-in, reset_job has
    // cleared the buffers but the geometry keeps the last job's values.
    // The capture validator used to accept empty buffers only with a zero
    // geometry, so GRESTORE rejected the module's own image.
    for (const rrm::EngineInfo& info : rrm::engine_library()) {
        SCOPED_TRACE(info.id);
        const EngineKind k = info.kind;
        LibraryTb tb(k);
        tb.start_job();
        ASSERT_TRUE(tb.run_until_jobs(k, 1));

        tb.swap_to(other_than(k));
        tb.swap_to(k);
        tb.capture(k);
        ASSERT_EQ(tb.portal.captures(), 1u);
        tb.swap_to(other_than(k));
        tb.swap_to(k, /*restore=*/true);
        EXPECT_EQ(tb.portal.restores(), 1u);
        for (const auto& d : tb.sch.diagnostics()) {
            ADD_FAILURE() << d.message;
        }

        // The restored engine takes the next job normally.
        tb.start_job();
        EXPECT_TRUE(tb.run_until_jobs(k, 2));
    }
}

/// Offset of an index field inside each engine's job image: the CIE/Sobel
/// column x_, the flow column x_, the ME grid column gx_.
std::size_t index_field_offset(EngineKind k) {
    switch (k) {
        case EngineKind::kCensus:
        case EngineKind::kSobel:
            return 23;  // w h src dst | phase dma write | y | x
        case EngineKind::kFlow:
            return 27;  // w h src src2 dst | phase dma write | y | x
        case EngineKind::kMatching:
            return 43;  // 10 x u32 | phase dma load_done | gx
        default:
            return 0;
    }
}

void put_u32(std::vector<std::uint8_t>& img, std::size_t at, std::uint32_t v) {
    img[at + 0] = static_cast<std::uint8_t>(v >> 24);
    img[at + 1] = static_cast<std::uint8_t>(v >> 16);
    img[at + 2] = static_cast<std::uint8_t>(v >> 8);
    img[at + 3] = static_cast<std::uint8_t>(v);
}

TEST(StateSave, IndexPastGeometryIsRejectedByBothPaths) {
    // Regression: the checkpoint validator lacked the index checks of the
    // capture validator, so a CIE job image with x_ = 4096 on a 16-pixel
    // row was accepted and work_cycle read cur_[x_] out of bounds.
    for (const rrm::EngineInfo& info : rrm::engine_library()) {
        SCOPED_TRACE(info.id);
        const EngineKind k = info.kind;
        LibraryTb tb(k);
        EngineBase& e = tb.engine(k);
        tb.start_job();
        tb.run_cycles(40);
        std::vector<std::uint8_t> cap;
        for (int i = 0; i < 64 && cap.empty(); ++i) {
            tb.run_cycles(1);
            cap = e.rm_save_state();
        }
        ASSERT_FALSE(cap.empty());
        ASSERT_TRUE(e.busy()) << "captured mid-job";
        const std::vector<std::uint8_t> ck = ckpt_image(e);

        // Both paths carry the same job image. GRESTORE frames it with the
        // magic and running_; checkpoints with the DMA FSM (u8 state, two
        // flags, five u32) and the residency/statistics (two flags, two
        // u64, one u32).
        constexpr std::size_t kCapHead = 4 + 1;
        constexpr std::size_t kCkptHead = (3 + 5 * 4) + (2 + 2 * 8 + 4);
        ASSERT_GT(ck.size(), kCkptHead);
        EXPECT_TRUE(std::equal(cap.begin() + kCapHead, cap.end(),
                               ck.begin() + kCkptHead, ck.end()));

        const std::size_t off = index_field_offset(k);
        std::vector<std::uint8_t> bad_cap = cap;
        std::vector<std::uint8_t> bad_ck = ck;
        put_u32(bad_cap, kCapHead + off, 4096);
        put_u32(bad_ck, kCkptHead + off, 4096);
        EXPECT_FALSE(ckpt_restore_image(e, bad_ck));
        EXPECT_FALSE(e.rm_restore_state(bad_cap));
        EXPECT_FALSE(e.busy()) << "a rejected GRESTORE leaves the engine idle";

        // The untouched images are accepted and the job still completes.
        ASSERT_TRUE(ckpt_restore_image(e, ck));
        ASSERT_TRUE(e.rm_restore_state(cap));
        EXPECT_TRUE(e.busy());
        EXPECT_TRUE(tb.run_until_jobs(k, 1));
    }
}

/// Where in a job an image is taken.
enum class Point { kMidBurst, kQuiescent, kBetweenJobs };

/// A library testbench brought deterministically to `p` for engine `k`.
/// `cycles` picks the mid-job save cycle (found once by probing).
std::unique_ptr<LibraryTb> prepare(EngineKind k, Point p, unsigned cycles) {
    auto tb = std::make_unique<LibraryTb>(k);
    tb->start_job();
    if (p == Point::kBetweenJobs) {
        EXPECT_TRUE(tb->run_until_jobs(k, 1));
        tb->swap_to(other_than(k));
        tb->swap_to(k);
    } else {
        tb->run_cycles(cycles);
    }
    return tb;
}

/// A mid-job save cycle after 40 for `k`: the first with a DMA burst open
/// (capture refused), or the fourth in a row with the DMA idle, when the
/// datapath is computing rather than about to issue the next burst.
unsigned probe_cycle(EngineKind k, bool burst_open) {
    LibraryTb tb(k);
    tb.start_job();
    tb.run_cycles(40);
    unsigned idle = 0;
    for (unsigned c = 41; c < 400; ++c) {
        tb.run_cycles(1);
        const bool open = tb.engine(k).rm_save_state().empty();
        if (burst_open && open) return c;
        idle = open ? 0 : idle + 1;
        if (!burst_open && idle == 4) return c;
    }
    ADD_FAILURE() << "no save point found";
    return 41;
}

TEST(StateSave, DmaWordIndexAtTheEndOfAReadStaysInBounds) {
    // A checkpoint may put the DMA word index at the end of its transfer
    // while the bus still owes beats of the open burst; under ASan a beat
    // that lands past the engine's line buffer fails here.
    const EngineKind k = EngineKind::kCensus;
    LibraryTb tb(k);
    tb.start_job();  // the row-0 fetch is open
    std::vector<std::uint8_t> img = ckpt_image(tb.engine(k));
    // DmaMaster fields: u8 state, reading, failed, then u32 addr,
    // remaining, total (byte 11), idx (byte 15), burst beats.
    ASSERT_NE(img[0], 0) << "a burst is open";
    ASSERT_EQ(img[1], 1) << "the open burst is a read";
    std::copy(img.begin() + 11, img.begin() + 15, img.begin() + 15);
    ASSERT_TRUE(ckpt_restore_image(tb.engine(k), img));
    tb.run_cycles(100);
}

/// Bytes of each engine's job image before its first buffer: the
/// registers, phase flags and indices.
std::size_t job_scalar_bytes(EngineKind k) {
    switch (k) {
        case EngineKind::kCensus:
        case EngineKind::kSobel:
            return 31;
        case EngineKind::kFlow:
            return 35;
        case EngineKind::kMatching:
            return 67;
        default:
            return 0;
    }
}

/// One seeded mutant of `img`. Field overwrites land in the first
/// `fields_end` bytes (frame, scalars and the first buffer length), where
/// a wrong value changes what the datapath indexes.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& img,
                                 std::size_t fields_end, scen::Rng& rng) {
    std::vector<std::uint8_t> m = img;
    const auto pos = [&] {
        return static_cast<std::size_t>(rng.below(m.size()));
    };
    switch (rng.below(8)) {
        case 0:
        case 1:  // flip one to four bits anywhere
            for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
                m[pos()] ^= static_cast<std::uint8_t>(1u << rng.below(8));
            }
            break;
        case 2:  // truncate
            m.resize(pos());
            break;
        case 3:  // trailing garbage
            for (std::uint64_t n = 1 + rng.below(8); n > 0; --n) {
                m.push_back(static_cast<std::uint8_t>(rng.next()));
            }
            break;
        default: {  // overwrite a field with a boundary value
            static constexpr std::uint32_t kVals[] = {
                0, 1, 3, 4, kW - 1, kW, kW + 1, 0x1000, 0x7FFF'FFFF,
                0xFFFF'FFFF};
            const std::uint32_t v = kVals[rng.below(std::size(kVals))];
            put_u32(m, rng.below(std::min(fields_end, m.size()) - 3), v);
            break;
        }
    }
    return m;
}

TEST(StateSave, MutatedImagesAreRejectedOrRunSafely) {
    // Seeded mutation over both image kinds of every engine: each mutant
    // is rejected, or accepted and then simulated for a bounded number of
    // cycles. Run under ASan/UBSan, an accepted image that indexes past a
    // buffer fails here.
    constexpr int kMutants = 96;
    constexpr unsigned kRunCycles = 150;
    scen::Rng rng(0x5AFE'57A7'0000'0015ull);
    for (const rrm::EngineInfo& info : rrm::engine_library()) {
        SCOPED_TRACE(info.id);
        const EngineKind k = info.kind;
        const unsigned burst = probe_cycle(k, true);
        const unsigned quiet = probe_cycle(k, false);
        struct Case {
            Point point;
            unsigned cycles;
            bool capture;  // GRESTORE image (else checkpoint image)
        };
        const Case cases[] = {
            {Point::kMidBurst, burst, false},
            {Point::kQuiescent, quiet, false},
            {Point::kQuiescent, quiet, true},
            {Point::kBetweenJobs, 0, false},
            {Point::kBetweenJobs, 0, true},
        };
        for (const Case& c : cases) {
            SCOPED_TRACE(static_cast<int>(c.point) * 2 + (c.capture ? 1 : 0));
            const std::size_t fields_end =
                (c.capture ? 5 : 45) + job_scalar_bytes(k) + 4;
            const std::vector<std::uint8_t> base = [&] {
                auto tb = prepare(k, c.point, c.cycles);
                return c.capture ? tb->engine(k).rm_save_state()
                                 : ckpt_image(tb->engine(k));
            }();
            ASSERT_FALSE(base.empty());
            unsigned rejected = 0;
            for (int i = -1; i < kMutants; ++i) {
                // i == -1 is the unmutated control.
                const std::vector<std::uint8_t> img =
                    i < 0 ? base : mutate(base, fields_end, rng);
                auto tb = prepare(k, c.point, c.cycles);
                EngineBase& e = tb->engine(k);
                const bool ok = c.capture ? e.rm_restore_state(img)
                                          : ckpt_restore_image(e, img);
                if (i < 0) {
                    ASSERT_TRUE(ok) << "unmutated image rejected";
                }
                if (!ok) {
                    ++rejected;
                    // A rejected GRESTORE comes up in the initial state; a
                    // rejected checkpoint discards the whole system.
                    if (c.capture) {
                        EXPECT_FALSE(e.busy());
                    } else {
                        continue;
                    }
                }
                tb->run_cycles(kRunCycles);
            }
            EXPECT_GT(rejected, 0u) << "no mutant was rejected";
        }
    }
}

}  // namespace
}  // namespace autovision
