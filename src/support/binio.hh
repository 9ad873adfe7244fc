/**
 * @file
 * Minimal binary artifact I/O.
 *
 * The invariant models, SCI databases and index sets the staged
 * pipeline passes between phases are streams of fixed-width
 * little-endian integers and length-prefixed strings behind a
 * (magic, version) header. These helpers centralize the encoding and
 * the failure policy: any short read/write, bad magic, unsupported
 * version or field a loader rejects throws a support::IoError with
 * the path, the byte offset where the failure was found, and errno
 * for system errors — artifacts are either valid or rejected, never
 * silently misparsed.
 */

#ifndef SCIFINDER_SUPPORT_BINIO_HH
#define SCIFINDER_SUPPORT_BINIO_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace scif::support {

/** Sequential writer for one binary artifact file. */
class BinWriter
{
  public:
    /** Open @p path and emit the (magic, version) header. */
    BinWriter(const std::string &path, uint32_t magic, uint32_t version);

    /** Closes best-effort if close() was not called; never throws. */
    ~BinWriter();

    BinWriter(const BinWriter &) = delete;
    BinWriter &operator=(const BinWriter &) = delete;

    void u8(uint8_t v);
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);

    /** Length-prefixed (u32) byte string. */
    void str(const std::string &s);

    void bytes(const void *data, size_t size);

    /** Flush and close; throws if any buffered write failed. */
    void close();

  private:
    [[noreturn]] void fail(const std::string &detail, int errnum,
                           bool atPosition);

    std::FILE *file_ = nullptr;
    std::string path_;
};

/** Sequential reader for one binary artifact file. */
class BinReader
{
  public:
    /**
     * Open @p path and validate the header: a wrong magic or an
     * unsupported version is a failure. @p what names the artifact
     * kind in error messages ("invariant model", ...).
     */
    BinReader(const std::string &path, uint32_t magic,
              uint32_t version, const char *what);
    ~BinReader();

    BinReader(const BinReader &) = delete;
    BinReader &operator=(const BinReader &) = delete;

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();

    /** Length-prefixed string; lengths above @p maxLen mean the file
     *  is corrupt. */
    std::string str(size_t maxLen = 1 << 20);

    void bytes(void *data, size_t size);

    /** @return true if the read cursor is at end of file. */
    bool atEof();

    /** The artifact must end exactly here; trailing garbage is
     *  corruption. */
    void expectEof();

    /**
     * Reject the @p fieldBytes-byte field just read: throws IoError
     * "<what> '<path>' is corrupt (<why>)" at the field's offset.
     */
    [[noreturn]] void corrupt(size_t fieldBytes, const std::string &why);

  private:
    /** Throw @p detail at the offset @p back bytes before the cursor. */
    [[noreturn]] void fail(const std::string &detail, size_t back);

    std::FILE *file_ = nullptr;
    std::string path_;
    const char *what_;
};

} // namespace scif::support

#endif // SCIFINDER_SUPPORT_BINIO_HH
