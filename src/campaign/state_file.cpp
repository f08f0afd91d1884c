#include "state_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "kernel/snapshot.hpp"

namespace autovision::campaign {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

bool sys_fail(const std::string& what, std::string* err) {
    if (err != nullptr) *err = what + ": " + std::strerror(errno);
    return false;
}

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
    while (n != 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

std::string parent_dir(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos) return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

StateRead read_state_file(const std::string& path, std::string* payload,
                          std::string* err) {
    const auto reject = [&](const std::string& why) {
        if (err != nullptr) *err = path + ": " + why;
        return StateRead::kRejected;
    };
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno == ENOENT) return StateRead::kAbsent;
        return reject(std::strerror(errno));
    }
    std::string bytes;
    char chunk[1 << 14];
    ssize_t n = 0;
    while ((n = ::read(fd, chunk, sizeof chunk)) != 0) {
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 || bytes.size() > kHeaderBytes + kMaxStatePayload) break;
        bytes.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (n < 0) return reject("read error");

    if (bytes.size() < kHeaderBytes) return reject("truncated header");
    rtlsim::SnapReader r(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), kHeaderBytes));
    const std::uint32_t magic = r.u32();
    const std::uint32_t len = r.u32();
    const std::uint64_t sum = r.u64();
    if (magic != kStateMagic) return reject("not a campaign state file");
    if (len > kMaxStatePayload || bytes.size() - kHeaderBytes != len) {
        return reject("payload length " + std::to_string(len) +
                      " does not match the file size");
    }
    const std::string_view body(bytes.data() + kHeaderBytes, len);
    if (rtlsim::snap_hash64(body) != sum) return reject("checksum mismatch");
    *payload = std::string(body);
    return StateRead::kLoaded;
}

bool write_state_file(const std::string& path, const std::string& payload,
                      std::string* err) {
    if (payload.size() > kMaxStatePayload) {
        if (err != nullptr) *err = path + ": state payload too large";
        return false;
    }
    rtlsim::SnapWriter w;
    w.u32(kStateMagic);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u64(rtlsim::snap_hash64(payload));
    std::vector<std::uint8_t> frame = w.take();
    frame.insert(frame.end(), payload.begin(), payload.end());

    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return sys_fail(tmp, err);
    const bool written =
        write_all(fd, frame.data(), frame.size()) && ::fdatasync(fd) == 0;
    if (!written) {
        const bool failed = sys_fail(tmp, err);
        ::close(fd);
        return failed;
    }
    if (::close(fd) != 0) return sys_fail(tmp, err);
    // Durability point: after the rename and the directory fsync, a crash
    // can no longer bring back the previous record.
    if (::rename(tmp.c_str(), path.c_str()) != 0) return sys_fail(path, err);
    const std::string dir = parent_dir(path);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0) return sys_fail(dir, err);
    const bool synced = ::fsync(dfd) == 0 || sys_fail(dir, err);
    ::close(dfd);
    return synced;
}

}  // namespace autovision::campaign
