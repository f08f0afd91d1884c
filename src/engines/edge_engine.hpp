// Edge Detection Engine — RTL model.
//
// The third swappable engine of the demonstrator family: the AutoVision
// system exchanged its detection engines as driving conditions changed
// (highway / tunnel / urban), and an edge engine is the classic tunnel-mode
// processing step. Structurally a sibling of the Census Image Engine — a
// streaming datapath over three row buffers, one pixel per clock — but with
// a Sobel magnitude core, so it demonstrates that the reconfiguration
// machinery (portal, SimBs, isolation, state save) is engine-agnostic.
//
// Independent implementation, cross-checked against video::sobel_transform.
#pragma once

#include <vector>

#include "engine.hpp"

namespace autovision {

class EdgeEngine final : public EngineBase {
public:
    EdgeEngine(rtlsim::Scheduler& sch, const std::string& name,
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
    enum class Phase { LoadFirst, LoadNext, Compute, WriteRow };

    void issue_row_read(unsigned row, std::vector<std::uint8_t>& dest);
    void issue_row_write();
    [[nodiscard]] std::uint8_t magnitude(unsigned x) const;
    [[nodiscard]] int sample(const std::vector<std::uint8_t>& row, int x) const;

    unsigned w_ = 0;
    unsigned h_ = 0;
    std::uint32_t src_ = 0;
    std::uint32_t dst_ = 0;

    Phase phase_ = Phase::LoadFirst;
    bool dma_issued_ = false;
    bool write_issued_ = false;
    unsigned y_ = 0;
    unsigned x_ = 0;
    std::vector<std::uint8_t> prev_;
    std::vector<std::uint8_t> cur_;
    std::vector<std::uint8_t> next_;
    std::vector<std::uint32_t> out_row_;
};

}  // namespace autovision
