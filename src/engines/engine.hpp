// Common machinery of the reconfigurable video engines.
//
// An engine is an RrModuleIf living in the reconfigurable region. Its pins
// (a private PlbMasterPort bundle plus the done-interrupt line) are muxed
// onto the region boundary by the Extended Portal (ReSim) or the
// Engine_Wrapper (Virtual Multiplexing). Control and status flow through an
// EngineRegs block in the static region: the engine samples one-cycle
// start/reset pulses, so commands issued while the engine is swapped out or
// mid-reconfiguration are physically lost (the bug.dpr.6b mechanism).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bus/plb.hpp"
#include "engine_regs.hpp"
#include "kernel/kernel.hpp"
#include "recon/rr_module.hpp"

namespace autovision {

class EngineBase : public rtlsim::Module, public RrModuleIf {
public:
    /// Engine-side pins; the region mux connects them to the bus.
    PlbMasterPort pins;
    /// One-cycle completion pulse towards the interrupt controller.
    rtlsim::Signal<rtlsim::Logic> done_irq;
    /// Streaming datapath tap: per-pixel engines (CIE) toggle this every
    /// compute cycle, block engines (ME) only per result. It reproduces the
    /// signal-activity asymmetry behind Table II's elapsed-time inversion.
    rtlsim::Signal<rtlsim::LVec<8>> stream_out;

    EngineBase(rtlsim::Scheduler& sch, const std::string& name,
               rtlsim::Signal<rtlsim::Logic>& clk,
               rtlsim::Signal<rtlsim::Logic>& rst, EngineRegs& regs,
               unsigned burst_limit = 16);

    // --- RrModuleIf -----------------------------------------------------
    void rm_activate() override;
    void rm_deactivate() override;
    [[nodiscard]] bool rm_active() const override { return active_; }

    /// State capture (GCAPTURE): magic, running flag, then the job image
    /// save_job writes. Refuses while a DMA transaction is in flight — the
    /// module must be quiesced before readback, a design rule the portal
    /// checks.
    [[nodiscard]] std::vector<std::uint8_t> rm_save_state() override;
    /// GRESTORE: validates the image with restore_job; a rejected image
    /// leaves the engine in its post-configuration initial state.
    [[nodiscard]] bool rm_restore_state(
        std::span<const std::uint8_t> state) override;

    [[nodiscard]] bool busy() const { return running_; }
    [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_; }
    [[nodiscard]] std::uint64_t busy_cycles() const { return busy_cycles_; }

    // --- checkpoint ------------------------------------------------------
    /// Full-fidelity snapshot: DMA FSM + residency/job bookkeeping + the
    /// same job image as rm_save_state, legal mid-burst (unlike
    /// rm_save_state, which refuses while the DMA is in flight). The
    /// derived class re-arms the DMA data closures from its restored phase
    /// flags.
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);

protected:
    /// Latch configuration from the registers; return false on a bad
    /// configuration (reported by the base).
    virtual bool begin_job() = 0;

    /// Advance the datapath by one clock; return true when the job is done.
    virtual bool work_cycle() = 0;

    /// Reset job-level state to the post-configuration initial state.
    virtual void reset_job() = 0;

    /// The job image: the derived datapath state, the one serializer
    /// behind both GCAPTURE/GRESTORE and checkpoints. restore_job runs
    /// after the DMA FSM and running_ are restored, re-installs the DMA
    /// closures (rearm_read/rearm_write) when a burst was open at save
    /// time, and returns false on any image the datapath could not run
    /// without an out-of-range access.
    virtual void save_job(rtlsim::SnapWriter& w) const = 0;
    [[nodiscard]] virtual bool restore_job(rtlsim::SnapReader& r) = 0;

    /// DMA read sink: word i lands big-endian in dest[4i..4i+3]. Every
    /// engine read installs it, at start_read and at checkpoint re-arm.
    auto byte_sink(std::vector<std::uint8_t>& dest) {
        return [this, &dest](std::uint32_t i, rtlsim::Word w) {
            if (w.has_unknown()) report_x_input();
            const auto v = static_cast<std::uint32_t>(w.to_u64());
            dest[4 * i + 0] = static_cast<std::uint8_t>(v >> 24);
            dest[4 * i + 1] = static_cast<std::uint8_t>(v >> 16);
            dest[4 * i + 2] = static_cast<std::uint8_t>(v >> 8);
            dest[4 * i + 3] = static_cast<std::uint8_t>(v);
        };
    }
    /// DMA write source: word i of `src`.
    static auto word_source(const std::vector<std::uint32_t>& src) {
        return [&src](std::uint32_t i) { return rtlsim::Word{src[i]}; };
    }

    /// Re-install the closures of a burst open at save time; false when
    /// the restored transfer runs the other way or past the buffer.
    [[nodiscard]] bool rearm_read(std::vector<std::uint8_t>& dest,
                                  std::function<void()> on_done);
    [[nodiscard]] bool rearm_write(const std::vector<std::uint32_t>& src,
                                   std::function<void()> on_done);

    /// Capped diagnostic for X encountered in input data.
    void report_x_input();

    EngineRegs& regs_;
    DmaMaster dma_;

private:
    void on_clock();

    bool active_ = false;
    bool running_ = false;
    std::uint64_t jobs_ = 0;
    std::uint64_t busy_cycles_ = 0;
    unsigned x_reports_ = 0;
};

}  // namespace autovision
