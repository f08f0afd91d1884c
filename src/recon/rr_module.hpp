// Interface of a reconfigurable (swappable) module.
//
// The Extended Portal (ReSim) and the Engine_Wrapper (Virtual Multiplexing)
// both manage a set of modules mapped to one reconfigurable region and
// connect exactly one of them at a time (a multi-region system elaborates
// one such manager per region). Activation corresponds to the end
// of bitstream configuration: the module comes up in its post-configuration
// initial state (all state reset), never with leftovers from its previous
// residency.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace autovision {

class RrModuleIf {
public:
    virtual ~RrModuleIf() = default;

    /// Swap in: connect to the region's boundary and reset to the
    /// post-configuration initial state.
    virtual void rm_activate() = 0;

    /// Swap out: disconnect from the boundary; the module must stop driving
    /// its pins.
    virtual void rm_deactivate() = 0;

    [[nodiscard]] virtual bool rm_active() const = 0;

    // --- state saving/restoration (GCAPTURE / GRESTORE) ------------------
    /// Serialize the module's architectural state, as a configuration
    /// readback would, into a module-private image (the portal only stores
    /// and replays the bytes; engines write it with rtlsim::SnapWriter and
    /// share the job image with their checkpoint section). Returns empty
    /// when the module cannot be captured (default: stateless; engines
    /// refuse while a bus transaction is in flight — the quiescence design
    /// rule).
    [[nodiscard]] virtual std::vector<std::uint8_t> rm_save_state() {
        return {};
    }

    /// Reinstate previously captured state; returns false when the image
    /// does not match the module (a verification failure, not a crash).
    /// Every image the module accepts is one it can run from.
    [[nodiscard]] virtual bool rm_restore_state(
        std::span<const std::uint8_t> state) {
        (void)state;
        return false;
    }
};

}  // namespace autovision
