#include "flow_engine.hpp"

namespace autovision {

using rtlsim::LVec;

FlowEngine::FlowEngine(rtlsim::Scheduler& sch, const std::string& name,
                       rtlsim::Signal<rtlsim::Logic>& clk,
                       rtlsim::Signal<rtlsim::Logic>& rst, EngineRegs& regs,
                       unsigned burst_limit)
    : EngineBase(sch, name, clk, rst, regs, burst_limit) {}

void FlowEngine::reset_job() {
    phase_ = Phase::LoadCur;
    dma_issued_ = false;
    write_issued_ = false;
    y_ = 0;
    x_ = 0;
    cur_.clear();
    prev_.clear();
    out_row_.clear();
}

bool FlowEngine::begin_job() {
    w_ = regs_.width();
    h_ = regs_.height();
    src_ = regs_.src();
    src2_ = regs_.src2();
    dst_ = regs_.dst();
    if (w_ == 0 || h_ == 0 || (w_ % 4) != 0) return false;
    reset_job();
    cur_.assign(w_, 0);
    prev_.assign(w_, 0);
    out_row_.assign(w_ / 4, 0);
    return true;
}

void FlowEngine::save_job(rtlsim::SnapWriter& w) const {
    w.u32(w_);
    w.u32(h_);
    w.u32(src_);
    w.u32(src2_);
    w.u32(dst_);
    w.u8(static_cast<std::uint8_t>(phase_));
    w.bool8(dma_issued_);
    w.bool8(write_issued_);
    w.u32(y_);
    w.u32(x_);
    w.bytes(cur_);
    w.bytes(prev_);
    w.words(out_row_);
}

bool FlowEngine::restore_job(rtlsim::SnapReader& r) {
    w_ = r.u32();
    h_ = r.u32();
    src_ = r.u32();
    src2_ = r.u32();
    dst_ = r.u32();
    const std::uint8_t ph = r.u8();
    if (ph > static_cast<std::uint8_t>(Phase::WriteRow)) return false;
    phase_ = static_cast<Phase>(ph);
    dma_issued_ = r.bool8();
    write_issued_ = r.bool8();
    y_ = r.u32();
    x_ = r.u32();
    cur_ = r.bytes();
    prev_ = r.bytes();
    out_row_ = r.words();
    if (!r.ok_so_far()) return false;
    if (dma_issued_ != dma_.busy()) return false;
    // Same validation and phase-to-target mapping as the CIE/EDGE
    // (structural siblings; see CensusEngine::restore_job).
    if (cur_.empty() && prev_.empty() && out_row_.empty()) {
        return !busy() && phase_ == Phase::LoadCur && !dma_issued_ &&
               !write_issued_ && y_ == 0 && x_ == 0;
    }
    if (w_ == 0 || w_ % 4 != 0 || h_ == 0 || cur_.size() != w_ ||
        prev_.size() != w_ || out_row_.size() != w_ / 4 || y_ > h_ ||
        x_ > w_ || (phase_ == Phase::Compute && x_ == w_)) {
        return false;
    }
    if (!dma_issued_) return true;
    const auto done = [this] { dma_issued_ = false; };
    switch (phase_) {
        case Phase::LoadPrev:
            return rearm_read(cur_, done);
        case Phase::Compute:
            return rearm_read(prev_, done);
        case Phase::WriteRow:
            return write_issued_ && rearm_write(out_row_, done);
        default:
            return false;
    }
}

void FlowEngine::issue_row_read(std::uint32_t base,
                                std::vector<std::uint8_t>& dest) {
    dma_issued_ = true;
    dma_.start_read(base + y_ * w_, w_ / 4, byte_sink(dest),
                    [this] { dma_issued_ = false; });
}

void FlowEngine::issue_row_write() {
    dma_issued_ = true;
    dma_.start_write(dst_ + y_ * w_, w_ / 4, word_source(out_row_),
                     [this] { dma_issued_ = false; });
}

bool FlowEngine::work_cycle() {
    if (dma_issued_) return false;

    switch (phase_) {
        case Phase::LoadCur:
            issue_row_read(src_, cur_);
            phase_ = Phase::LoadPrev;
            return false;

        case Phase::LoadPrev:
            issue_row_read(src2_, prev_);
            phase_ = Phase::Compute;
            x_ = 0;
            return false;

        case Phase::Compute: {
            const int d = static_cast<int>(cur_[x_]) - static_cast<int>(prev_[x_]);
            const auto m = static_cast<std::uint8_t>(d < 0 ? -d : d);
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
            phase_ = Phase::LoadCur;
            return false;
    }
    return false;
}

}  // namespace autovision
