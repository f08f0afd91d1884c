// Matching Engine (ME) — RTL model.
//
// A block engine: both census images are DMA-loaded into internal block RAM,
// then one search candidate is evaluated per clock (the 3x3 patch comparator
// is fully parallel in hardware), and the motion field is written back in
// one burst sequence. Far fewer boundary-signal toggles than the CIE, which
// is the Table II asymmetry.
//
// Algorithm, scan order and tie-break replicate video::match_census exactly
// but are implemented independently so the scoreboard cross-check is real.
#pragma once

#include <vector>

#include "engine.hpp"

namespace autovision {

class MatchingEngine final : public EngineBase {
public:
    MatchingEngine(rtlsim::Scheduler& sch, const std::string& name,
                   rtlsim::Signal<rtlsim::Logic>& clk,
                   rtlsim::Signal<rtlsim::Logic>& rst, EngineRegs& regs,
                   unsigned burst_limit = 16);

    /// Motion-vector output tap (one toggle per grid point).
    rtlsim::Signal<rtlsim::LVec<32>> mv_out;

protected:
    bool begin_job() override;
    bool work_cycle() override;
    void reset_job() override;
    void save_job(rtlsim::SnapWriter& w) const override;
    bool restore_job(rtlsim::SnapReader& r) override;

private:
    enum class Phase { LoadPrev, LoadCur, Compute, Write };

    void issue_frame_read(std::uint32_t addr, std::vector<std::uint8_t>& dest);
    /// Grid points along an axis of `extent` pixels for margin_/step_.
    [[nodiscard]] unsigned grid_points(unsigned extent) const;
    [[nodiscard]] std::uint8_t sample(const std::vector<std::uint8_t>& img,
                                      int x, int y) const;
    [[nodiscard]] unsigned cost(unsigned x, unsigned y, int dx, int dy) const;

    unsigned w_ = 0;
    unsigned h_ = 0;
    std::uint32_t cur_addr_ = 0;
    std::uint32_t prev_addr_ = 0;
    std::uint32_t dst_ = 0;
    int search_ = 4;
    unsigned step_ = 4;
    unsigned margin_ = 8;
    unsigned gw_ = 0;
    unsigned gh_ = 0;

    Phase phase_ = Phase::LoadPrev;
    bool dma_issued_ = false;
    bool load_done_ = false;
    unsigned gx_ = 0;
    unsigned gy_ = 0;
    unsigned cand_ = 0;
    int best_dx_ = 0;
    int best_dy_ = 0;
    unsigned best_cost_ = ~0u;
    std::vector<std::uint8_t> prev_;
    std::vector<std::uint8_t> cur_;
    std::vector<std::uint32_t> out_;
};

}  // namespace autovision
