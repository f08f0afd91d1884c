#include "edge_engine.hpp"

#include <algorithm>
#include <cstdlib>

namespace autovision {

using rtlsim::LVec;

EdgeEngine::EdgeEngine(rtlsim::Scheduler& sch, const std::string& name,
                       rtlsim::Signal<rtlsim::Logic>& clk,
                       rtlsim::Signal<rtlsim::Logic>& rst, EngineRegs& regs,
                       unsigned burst_limit)
    : EngineBase(sch, name, clk, rst, regs, burst_limit) {}

void EdgeEngine::reset_job() {
    phase_ = Phase::LoadFirst;
    dma_issued_ = false;
    write_issued_ = false;
    y_ = 0;
    x_ = 0;
    prev_.clear();
    cur_.clear();
    next_.clear();
    out_row_.clear();
}

bool EdgeEngine::begin_job() {
    w_ = regs_.width();
    h_ = regs_.height();
    src_ = regs_.src();
    dst_ = regs_.dst();
    if (w_ == 0 || h_ == 0 || (w_ % 4) != 0) return false;
    reset_job();
    prev_.assign(w_, 0);
    cur_.assign(w_, 0);
    next_.assign(w_, 0);
    out_row_.assign(w_ / 4, 0);
    return true;
}

void EdgeEngine::save_job(rtlsim::SnapWriter& w) const {
    w.u32(w_);
    w.u32(h_);
    w.u32(src_);
    w.u32(dst_);
    w.u8(static_cast<std::uint8_t>(phase_));
    w.bool8(dma_issued_);
    w.bool8(write_issued_);
    w.u32(y_);
    w.u32(x_);
    w.bytes(prev_);
    w.bytes(cur_);
    w.bytes(next_);
    w.words(out_row_);
}

bool EdgeEngine::restore_job(rtlsim::SnapReader& r) {
    w_ = r.u32();
    h_ = r.u32();
    src_ = r.u32();
    dst_ = r.u32();
    const std::uint8_t ph = r.u8();
    if (ph > static_cast<std::uint8_t>(Phase::WriteRow)) return false;
    phase_ = static_cast<Phase>(ph);
    dma_issued_ = r.bool8();
    write_issued_ = r.bool8();
    y_ = r.u32();
    x_ = r.u32();
    prev_ = r.bytes();
    cur_ = r.bytes();
    next_ = r.bytes();
    out_row_ = r.words();
    if (!r.ok_so_far()) return false;
    if (dma_issued_ != dma_.busy()) return false;
    // Same validation and phase-to-target mapping as the CIE (structural
    // sibling; see CensusEngine::restore_job).
    if (prev_.empty() && cur_.empty() && next_.empty() && out_row_.empty()) {
        return !busy() && phase_ == Phase::LoadFirst && !dma_issued_ &&
               !write_issued_ && y_ == 0 && x_ == 0;
    }
    if (w_ == 0 || w_ % 4 != 0 || h_ == 0 || prev_.size() != w_ ||
        cur_.size() != w_ || next_.size() != w_ ||
        out_row_.size() != w_ / 4 || y_ > h_ || x_ > w_ ||
        (phase_ == Phase::Compute && x_ == w_)) {
        return false;
    }
    if (!dma_issued_) return true;
    const auto done = [this] { dma_issued_ = false; };
    switch (phase_) {
        case Phase::LoadNext:
            return rearm_read(cur_, done);
        case Phase::Compute:
            return rearm_read(next_, done);
        case Phase::WriteRow:
            return write_issued_ && rearm_write(out_row_, done);
        default:
            return false;
    }
}

void EdgeEngine::issue_row_read(unsigned row, std::vector<std::uint8_t>& dest) {
    dma_issued_ = true;
    dma_.start_read(src_ + row * w_, w_ / 4, byte_sink(dest),
                    [this] { dma_issued_ = false; });
}

void EdgeEngine::issue_row_write() {
    dma_issued_ = true;
    dma_.start_write(dst_ + y_ * w_, w_ / 4, word_source(out_row_),
                     [this] { dma_issued_ = false; });
}

int EdgeEngine::sample(const std::vector<std::uint8_t>& row, int x) const {
    return row[static_cast<std::size_t>(
        std::clamp(x, 0, static_cast<int>(w_) - 1))];
}

std::uint8_t EdgeEngine::magnitude(unsigned x) const {
    // Independent Sobel implementation over the three line buffers.
    const int xi = static_cast<int>(x);
    const int gx = (sample(prev_, xi + 1) + 2 * sample(cur_, xi + 1) +
                    sample(next_, xi + 1)) -
                   (sample(prev_, xi - 1) + 2 * sample(cur_, xi - 1) +
                    sample(next_, xi - 1));
    const int gy = (sample(next_, xi - 1) + 2 * sample(next_, xi) +
                    sample(next_, xi + 1)) -
                   (sample(prev_, xi - 1) + 2 * sample(prev_, xi) +
                    sample(prev_, xi + 1));
    const int mag = std::abs(gx) + std::abs(gy);
    return static_cast<std::uint8_t>(mag > 255 ? 255 : mag);
}

bool EdgeEngine::work_cycle() {
    if (dma_issued_) return false;

    switch (phase_) {
        case Phase::LoadFirst:
            issue_row_read(0, cur_);
            phase_ = Phase::LoadNext;
            return false;

        case Phase::LoadNext: {
            if (y_ == 0) prev_ = cur_;  // top edge: vertical clamp
            const unsigned next_row = std::min(y_ + 1, h_ - 1);
            if (next_row == y_) {
                next_ = cur_;
                phase_ = Phase::Compute;
                x_ = 0;
                return false;
            }
            issue_row_read(next_row, next_);
            phase_ = Phase::Compute;
            x_ = 0;
            return false;
        }

        case Phase::Compute: {
            const std::uint8_t m = magnitude(x_);
            stream_out.write(LVec<8>{m});  // streaming engine: per-pixel tap
            const unsigned shift = (3 - (x_ % 4)) * 8;
            out_row_[x_ / 4] =
                (out_row_[x_ / 4] & ~(0xFFu << shift)) |
                (static_cast<std::uint32_t>(m) << shift);
            if (++x_ == w_) phase_ = Phase::WriteRow;
            return false;
        }

        case Phase::WriteRow:
            if (!write_issued_) {
                write_issued_ = true;
                issue_row_write();
                return false;
            }
            write_issued_ = false;
            ++y_;
            if (y_ == h_) return true;
            prev_.swap(cur_);
            cur_.swap(next_);
            phase_ = Phase::LoadNext;
            return false;
    }
    return false;
}

}  // namespace autovision
