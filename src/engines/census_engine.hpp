// Census Image Engine (CIE) — RTL model.
//
// A streaming engine: three row line-buffers, one census signature computed
// per clock, rows fetched and written back by DMA bursts. The per-pixel
// datapath makes the CIE the most signal-active block in the system, which
// is why it dominates simulation elapsed time in Table II.
//
// The census computation here is an independent implementation; the
// scoreboard cross-checks it against video::census_transform.
#pragma once

#include <vector>

#include "engine.hpp"

namespace autovision {

class CensusEngine final : public EngineBase {
public:
    CensusEngine(rtlsim::Scheduler& sch, const std::string& name,
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
    [[nodiscard]] std::uint8_t signature(unsigned x) const;
    [[nodiscard]] std::uint8_t sample(const std::vector<std::uint8_t>& row,
                                      int x) const;

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
