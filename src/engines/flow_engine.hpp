// Flow Engine — RTL model.
//
// The fourth swappable engine of the demonstrator family: a temporal-
// difference motion-energy stage, the cheapest motion cue in the library.
// Structurally the two-input sibling of the Edge Engine — a streaming
// datapath that reads one row from the *current* frame (SRC) and one from
// the *previous* frame (SRC2) per output row and emits the saturated
// absolute difference, one pixel per clock. Exercising a second DMA source
// stream makes it the engine that stresses per-region bus arbitration the
// hardest of the streaming family.
//
// Independent implementation, cross-checked against
// video::flow_energy_transform.
#pragma once

#include <vector>

#include "engine.hpp"

namespace autovision {

class FlowEngine final : public EngineBase {
public:
    FlowEngine(rtlsim::Scheduler& sch, const std::string& name,
               rtlsim::Signal<rtlsim::Logic>& clk,
               rtlsim::Signal<rtlsim::Logic>& rst, EngineRegs& regs,
               unsigned burst_limit = 16);

protected:
    bool begin_job() override;
    bool work_cycle() override;
    void reset_job() override;
    void save_job(rtlsim::SnapWriter& w) const override;
    bool restore_job(rtlsim::SnapReader& r) override;

private:
    enum class Phase { LoadCur, LoadPrev, Compute, WriteRow };

    void issue_row_read(std::uint32_t base, std::vector<std::uint8_t>& dest);
    void issue_row_write();

    unsigned w_ = 0;
    unsigned h_ = 0;
    std::uint32_t src_ = 0;   ///< current frame
    std::uint32_t src2_ = 0;  ///< previous frame
    std::uint32_t dst_ = 0;

    Phase phase_ = Phase::LoadCur;
    bool dma_issued_ = false;
    bool write_issued_ = false;
    unsigned y_ = 0;
    unsigned x_ = 0;
    std::vector<std::uint8_t> cur_;
    std::vector<std::uint8_t> prev_;
    std::vector<std::uint32_t> out_row_;
};

}  // namespace autovision
