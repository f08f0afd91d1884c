#include "shrink.hpp"

#include <algorithm>
#include <utility>

namespace autovision::diff {

using scen::Corrupt;
using scen::StreamSession;

namespace {

/// Smallest payload each mutation kind can carry (mirrors the generator's
/// per-kind clamps in scen::make_session).
[[nodiscard]] std::uint32_t min_payload(Corrupt c) {
    switch (c) {
        case Corrupt::kHeaderOnly:
        case Corrupt::kZeroPayload:
            return 0;
        case Corrupt::kTruncate:
            return 4;
        case Corrupt::kReorder:
        case Corrupt::kStrayType2:
        case Corrupt::kXWord:
            return 2;
        default:
            return 1;
    }
}

/// The divergence classes (kind + attributed side) a report's genuine
/// findings fall into; sorted so set membership is a binary search.
using Sig = std::vector<std::pair<DivergenceKind, Side>>;

[[nodiscard]] Sig signature_of(const DiffReport& rep) {
    Sig sig;
    for (const Divergence& d : rep.divergences) {
        if (d.genuine) sig.emplace_back(d.kind, d.side);
    }
    std::sort(sig.begin(), sig.end());
    sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
    return sig;
}

[[nodiscard]] bool matches(const DiffReport& rep, const Sig& baseline) {
    for (const Divergence& d : rep.divergences) {
        if (d.genuine && std::binary_search(baseline.begin(), baseline.end(),
                                            std::make_pair(d.kind, d.side))) {
            return true;
        }
    }
    return false;
}

}  // namespace

scen::Scenario normalize(scen::Scenario s) {
    std::uint8_t resident = 1;  // initial configuration: CIE
    bool captured[3] = {false, false, false};
    for (StreamSession& ss : s.sessions) {
        ss.rr_id = 1;
        if (ss.module_id != 1 && ss.module_id != 2) ss.module_id = 2;
        ss.word_gap = std::max(1u, ss.word_gap);
        // 0x7FF is the widest count a short-form type-1 FDRI header can
        // express; the generator never exceeds it either.
        ss.payload_words = std::min<std::uint32_t>(ss.payload_words, 0x7FF);
        switch (ss.corrupt) {
            case Corrupt::kHeaderOnly:
            case Corrupt::kZeroPayload:
                ss.payload_words = 0;
                ss.type2_header = true;
                break;
            case Corrupt::kReorder:
            case Corrupt::kStrayType2:
                ss.type2_header = true;
                ss.payload_words =
                    std::max<std::uint32_t>(ss.payload_words, 2);
                break;
            case Corrupt::kTruncate:
                ss.payload_words =
                    std::max<std::uint32_t>(ss.payload_words, 4);
                ss.corrupt_pos = std::clamp<std::uint32_t>(
                    ss.corrupt_pos, 1, ss.payload_words - 1);
                break;
            case Corrupt::kBitFlip:
                ss.payload_words =
                    std::max<std::uint32_t>(ss.payload_words, 1);
                ss.corrupt_pos =
                    std::min(ss.corrupt_pos, ss.payload_words - 1);
                ss.corrupt_bit &= 31;
                break;
            case Corrupt::kXWord:
                ss.payload_words =
                    std::max<std::uint32_t>(ss.payload_words, 2);
                ss.corrupt_pos =
                    std::min(ss.corrupt_pos, ss.payload_words - 1);
                break;
            default:
                ss.payload_words =
                    std::max<std::uint32_t>(ss.payload_words, 1);
                break;
        }
        if (ss.capture_first) {
            ss.capture_module = resident;
            captured[resident] = true;
        }
        if (ss.restore_state &&
            (ss.corrupt != Corrupt::kNone || !captured[ss.module_id])) {
            ss.restore_state = false;
        }
        if (scen::swap_expected(ss.corrupt)) resident = ss.module_id;
    }
    return s;
}

ShrinkResult shrink(const scen::Scenario& input, const ShrinkOptions& opt) {
    ShrinkResult r;
    r.original_words = simb_word_count(input);

    scen::Scenario cur = normalize(input);
    DiffOutcome cur_out = run_diff(cur, opt.diff);
    r.runs = 1;
    const Sig sig = signature_of(cur_out.report);
    if (sig.empty()) {
        r.minimal = input;
        r.minimal_words = r.original_words;
        r.outcome = std::move(cur_out);
        return r;
    }
    r.diverged = true;

    const auto cancelled = [&opt] {
        return opt.diff.cancel != nullptr &&
               opt.diff.cancel->load(std::memory_order_relaxed);
    };
    // Accept an edit only while a genuine divergence of the baseline class
    // survives it — reductions must not trade the original finding for an
    // unrelated one.
    const auto try_candidate = [&](scen::Scenario cand) {
        if (r.runs >= opt.max_runs || cancelled()) return false;
        cand = normalize(std::move(cand));
        DiffOutcome out = run_diff(cand, opt.diff);
        ++r.runs;
        if (out.report.cancelled || !matches(out.report, sig)) return false;
        cur = std::move(cand);
        cur_out = std::move(out);
        return true;
    };

    // Stage 1: drop whole sessions, back to front, to fixpoint.
    bool changed = true;
    while (changed && cur.sessions.size() > 1) {
        changed = false;
        for (std::size_t i = cur.sessions.size(); i-- > 0;) {
            scen::Scenario cand = cur;
            cand.sessions.erase(cand.sessions.begin() +
                                static_cast<std::ptrdiff_t>(i));
            if (try_candidate(std::move(cand))) {
                changed = true;
                break;
            }
        }
    }

    // Stage 2: drop per-session packets and pacing.
    for (std::size_t i = 0; i < cur.sessions.size(); ++i) {
        const auto drop = [&](auto edit) {
            scen::Scenario cand = cur;
            edit(cand.sessions[i]);
            (void)try_candidate(std::move(cand));
        };
        if (cur.sessions[i].capture_first) {
            drop([](StreamSession& ss) { ss.capture_first = false; });
        }
        if (cur.sessions[i].restore_state) {
            drop([](StreamSession& ss) { ss.restore_state = false; });
        }
        if (cur.sessions[i].dcr != scen::DcrTraffic::kNone) {
            drop([](StreamSession& ss) { ss.dcr = scen::DcrTraffic::kNone; });
        }
        if (cur.sessions[i].corrupt != Corrupt::kNone) {
            drop([](StreamSession& ss) { ss.corrupt = Corrupt::kNone; });
        }
        if (cur.sessions[i].word_gap > 1) {
            drop([](StreamSession& ss) { ss.word_gap = 1; });
        }
    }

    // Stage 3: shrink payloads — jump straight to the minimum, otherwise
    // descend geometrically with a linear tail.
    for (std::size_t i = 0; i < cur.sessions.size(); ++i) {
        const std::uint32_t floor = min_payload(cur.sessions[i].corrupt);
        if (cur.sessions[i].payload_words > floor) {
            scen::Scenario cand = cur;
            cand.sessions[i].payload_words = floor;
            (void)try_candidate(std::move(cand));
        }
        while (cur.sessions[i].payload_words > floor) {
            scen::Scenario cand = cur;
            cand.sessions[i].payload_words =
                std::max(floor, cur.sessions[i].payload_words / 2);
            if (!try_candidate(std::move(cand))) break;
        }
        while (cur.sessions[i].payload_words > floor) {
            scen::Scenario cand = cur;
            cand.sessions[i].payload_words -= 1;
            if (!try_candidate(std::move(cand))) break;
        }
    }

    r.minimal = cur;
    r.minimal_words = simb_word_count(cur);
    r.outcome = std::move(cur_out);
    return r;
}

}  // namespace autovision::diff
