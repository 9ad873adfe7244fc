/**
 * @file
 * Structured I/O failure reporting.
 *
 * IoError is the one way an artifact read or write fails: the trace
 * store, binio and every artifact loader throw it with the failing
 * path, the byte offset where a format problem was found, and errno
 * for system errors. Library callers can report it and keep going;
 * the scifinder tool prints its fields and exits with status 3.
 */

#ifndef SCIFINDER_SUPPORT_IOERROR_HH
#define SCIFINDER_SUPPORT_IOERROR_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace scif::support {

/** An I/O or artifact-format failure with path and errno context. */
class IoError : public std::runtime_error
{
  public:
    /** offset() value when the failure has no file position. */
    static constexpr uint64_t noOffset = ~uint64_t(0);

    /**
     * @param path the file the operation failed on.
     * @param detail human-readable description (should mention the
     *        path for standalone display).
     * @param errnum the errno of the failing call, or 0 when the
     *        failure is a format problem rather than a system error.
     * @param offset the file offset the failure was detected at, or
     *        noOffset when no position is meaningful (e.g. open()).
     */
    IoError(std::string path, const std::string &detail,
            int errnum = 0, uint64_t offset = noOffset)
        : std::runtime_error(render(detail, errnum, offset)),
          path_(std::move(path)), errnum_(errnum), offset_(offset)
    {}

    /** @return the path of the file the operation failed on. */
    const std::string &path() const { return path_; }

    /** @return the errno of the failing call (0 = format error). */
    int errnum() const { return errnum_; }

    /** @return true when the failure carries a file position. */
    bool hasOffset() const { return offset_ != noOffset; }

    /** @return the file offset of the failure (valid if hasOffset). */
    uint64_t offset() const { return offset_; }

  private:
    static std::string
    render(const std::string &detail, int errnum, uint64_t offset)
    {
        std::string out = detail;
        if (offset != noOffset)
            out += " (at offset " + std::to_string(offset) + ")";
        if (errnum != 0)
            out += std::string(": ") + std::strerror(errnum);
        return out;
    }

    std::string path_;
    int errnum_;
    uint64_t offset_;
};

} // namespace scif::support

#endif // SCIFINDER_SUPPORT_IOERROR_HH
