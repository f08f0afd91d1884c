// campaign: the crash-safe state file behind `campaign_runner --state`.
//
// A state file holds exactly one framed record:
//
//   u32  magic "AVST" (0x41565354, big-endian)
//   u32  payload length (<= kMaxStatePayload)
//   u64  FNV-1a 64 of the payload (rtlsim::snap_hash64)
//   ...  payload: a ClosureLoop::save blob or a DiffProgress::save blob
//
// write_state_file replaces the file atomically: it writes FILE.tmp,
// fdatasyncs it, renames it over FILE and fsyncs the directory, so a
// kill -9 at any instant leaves either the previous record or the new one.
// read_state_file accepts exactly one intact frame and nothing else: a
// short file, a wrong magic or length, trailing bytes or a checksum
// mismatch is rejected with a reason, and the file is never modified.
#pragma once

#include <cstdint>
#include <string>

namespace autovision::campaign {

inline constexpr std::uint32_t kStateMagic = 0x41565354;  // "AVST"
/// Keeps a corrupt length field from driving a giant allocation; real
/// payloads (merged coverage + verdict lines) are tens of KiB.
inline constexpr std::uint32_t kMaxStatePayload = 64u << 20;

enum class StateRead {
    kAbsent,    ///< no file: start fresh
    kLoaded,    ///< one intact frame; *payload holds it
    kRejected,  ///< unreadable or corrupt; *err says why
};

[[nodiscard]] StateRead read_state_file(const std::string& path,
                                        std::string* payload,
                                        std::string* err);

/// Atomically replace `path` with one frame around `payload`. False (with
/// *err set) on any I/O failure; `path` then still holds its old record.
[[nodiscard]] bool write_state_file(const std::string& path,
                                    const std::string& payload,
                                    std::string* err);

}  // namespace autovision::campaign
