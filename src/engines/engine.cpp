#include "engine.hpp"

namespace autovision {

using rtlsim::Logic;
using rtlsim::is1;

EngineBase::EngineBase(rtlsim::Scheduler& sch, const std::string& name,
                       rtlsim::Signal<Logic>& clk, rtlsim::Signal<Logic>& rst,
                       EngineRegs& regs, unsigned burst_limit)
    : Module(sch, name),
      pins(sch, full_name() + ".pins"),
      done_irq(sch, full_name() + ".done_irq", Logic::L0),
      stream_out(sch, full_name() + ".stream", rtlsim::LVec<8>{0}),
      regs_(regs),
      dma_(pins, burst_limit) {
    sync_proc("datapath", [this] { on_clock(); }, {rtlsim::posedge(clk)});
    (void)rst;  // engines use the soft reset pulse; hard reset comes via
                // rm_activate (post-configuration state)
}

void EngineBase::rm_activate() {
    active_ = true;
    running_ = false;
    dma_.reset();
    reset_job();
    pins.idle();
    done_irq.write(Logic::L0);
}

void EngineBase::rm_deactivate() {
    active_ = false;
    running_ = false;
    dma_.reset();
    pins.idle();
    done_irq.write(Logic::L0);
}

namespace {
constexpr std::uint32_t kStateMagic = 0x5AFE'57A7;
}  // namespace

std::vector<std::uint8_t> EngineBase::rm_save_state() {
    if (dma_.busy()) {
        report("state capture refused: DMA transaction in flight"
               " (module not quiescent)");
        return {};
    }
    rtlsim::SnapWriter w;
    w.u32(kStateMagic);
    w.bool8(running_);
    save_job(w);
    return w.take();
}

bool EngineBase::rm_restore_state(std::span<const std::uint8_t> state) {
    rtlsim::SnapReader r(state);
    const bool magic_ok = r.u32() == kStateMagic;
    running_ = r.bool8();
    if (!magic_ok || !restore_job(r) || !r.ok()) {
        // Reject atomically: come up in the initial state instead.
        dma_.reset();
        reset_job();
        running_ = false;
        return false;
    }
    regs_.set_busy(running_);
    return true;
}

void EngineBase::ckpt_save(rtlsim::SnapWriter& w) const {
    dma_.ckpt_save(w);
    w.bool8(active_);
    w.bool8(running_);
    w.u64(jobs_);
    w.u64(busy_cycles_);
    w.u32(x_reports_);
    save_job(w);
}

bool EngineBase::ckpt_restore(rtlsim::SnapReader& r) {
    if (!dma_.ckpt_restore(r)) return false;
    active_ = r.bool8();
    running_ = r.bool8();
    jobs_ = r.u64();
    busy_cycles_ = r.u64();
    x_reports_ = r.u32();
    return restore_job(r) && r.ok_so_far();
}

bool EngineBase::rearm_read(std::vector<std::uint8_t>& dest,
                            std::function<void()> on_done) {
    if (!dma_.reading() || dma_.words_total() > dest.size() / 4) return false;
    dma_.ckpt_rearm(byte_sink(dest), {}, std::move(on_done));
    return true;
}

bool EngineBase::rearm_write(const std::vector<std::uint32_t>& src,
                             std::function<void()> on_done) {
    if (dma_.reading() || dma_.words_total() > src.size()) return false;
    dma_.ckpt_rearm({}, word_source(src), std::move(on_done));
    return true;
}

void EngineBase::report_x_input() {
    if (x_reports_ < 5) {
        ++x_reports_;
        report("X in input data stream");
    }
}

void EngineBase::on_clock() {
    if (!active_) return;  // swapped out: flip-flops are not even configured

    dma_.step();
    done_irq.write(Logic::L0);

    if (is1(regs_.reset_pulse.read())) {
        running_ = false;
        dma_.reset();
        reset_job();
        regs_.set_busy(false);
        return;
    }

    if (!running_) {
        if (is1(regs_.start_pulse.read())) {
            if (begin_job()) {
                running_ = true;
                regs_.set_busy(true);
            } else {
                report("rejected start: bad configuration");
            }
        }
        return;
    }

    ++busy_cycles_;
    if (work_cycle()) {
        running_ = false;
        ++jobs_;
        regs_.set_done();
        done_irq.write(Logic::L1);
    }
}

}  // namespace autovision
