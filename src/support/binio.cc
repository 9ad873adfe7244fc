#include "binio.hh"

#include <cerrno>

#include "support/ioerror.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace scif::support {

void
BinWriter::fail(const std::string &detail, int errnum, bool atPosition)
{
    uint64_t offset = IoError::noOffset;
    if (atPosition) {
        long pos = std::ftell(file_);
        if (pos >= 0)
            offset = uint64_t(pos);
    }
    throw IoError(path_, detail, errnum, offset);
}

BinWriter::BinWriter(const std::string &path, uint32_t magic,
                     uint32_t version)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        fail("cannot open '" + path + "' for writing", errno, false);
    try {
        u32(magic);
        u32(version);
    } catch (...) {
        // The destructor will not run for a throwing constructor.
        std::fclose(file_);
        file_ = nullptr;
        throw;
    }
}

BinWriter::~BinWriter()
{
    // Unwinding past an unclosed writer: close best-effort, never
    // throw from a destructor. Callers that keep the file call close().
    if (file_)
        std::fclose(file_);
}

void
BinWriter::bytes(const void *data, size_t size)
{
    SCIF_ASSERT(file_);
    if (size != 0 && std::fwrite(data, 1, size, file_) != size)
        fail("write to '" + path_ + "' failed", errno, true);
}

void
BinWriter::u8(uint8_t v)
{
    bytes(&v, sizeof(v));
}

void
BinWriter::u16(uint16_t v)
{
    bytes(&v, sizeof(v));
}

void
BinWriter::u32(uint32_t v)
{
    bytes(&v, sizeof(v));
}

void
BinWriter::u64(uint64_t v)
{
    bytes(&v, sizeof(v));
}

void
BinWriter::str(const std::string &s)
{
    u32(uint32_t(s.size()));
    bytes(s.data(), s.size());
}

void
BinWriter::close()
{
    SCIF_ASSERT(file_);
    bool ok = std::fclose(file_) == 0;
    int errnum = errno;
    file_ = nullptr;
    if (!ok)
        fail("closing '" + path_ + "' failed", errnum, false);
}

void
BinReader::fail(const std::string &detail, size_t back)
{
    long pos = std::ftell(file_);
    uint64_t offset = pos >= 0 && uint64_t(pos) >= back
                          ? uint64_t(pos) - back
                          : IoError::noOffset;
    throw IoError(path_, detail, 0, offset);
}

void
BinReader::corrupt(size_t fieldBytes, const std::string &why)
{
    fail(std::string(what_) + " '" + path_ + "' is corrupt (" + why + ")",
         fieldBytes);
}

BinReader::BinReader(const std::string &path, uint32_t magic,
                     uint32_t version, const char *what)
    : path_(path), what_(what)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_) {
        throw IoError(path, format("cannot open %s '%s'", what,
                                   path.c_str()),
                      errno);
    }
    try {
        if (u32() != magic) {
            fail("'" + path + "' is not a " + what + " artifact",
                 sizeof(magic));
        }
        uint32_t got = u32();
        if (got != version) {
            fail(format("%s '%s' has version %u, this build reads %u",
                        what, path.c_str(), got, version),
                 sizeof(got));
        }
    } catch (...) {
        // The destructor will not run for a throwing constructor.
        std::fclose(file_);
        file_ = nullptr;
        throw;
    }
}

BinReader::~BinReader()
{
    if (file_)
        std::fclose(file_);
}

void
BinReader::bytes(void *data, size_t size)
{
    SCIF_ASSERT(file_);
    if (size == 0)
        return;
    size_t got = std::fread(data, 1, size, file_);
    if (got != size) {
        fail(std::string(what_) + " '" + path_ +
                 "' is truncated or corrupt",
             got);
    }
}

uint8_t
BinReader::u8()
{
    uint8_t v;
    bytes(&v, sizeof(v));
    return v;
}

uint16_t
BinReader::u16()
{
    uint16_t v;
    bytes(&v, sizeof(v));
    return v;
}

uint32_t
BinReader::u32()
{
    uint32_t v;
    bytes(&v, sizeof(v));
    return v;
}

uint64_t
BinReader::u64()
{
    uint64_t v;
    bytes(&v, sizeof(v));
    return v;
}

std::string
BinReader::str(size_t maxLen)
{
    uint32_t len = u32();
    if (len > maxLen)
        corrupt(sizeof(len), format("string length %u", len));
    std::string s(len, '\0');
    bytes(s.data(), len);
    return s;
}

bool
BinReader::atEof()
{
    SCIF_ASSERT(file_);
    int c = std::fgetc(file_);
    if (c == EOF)
        return true;
    std::ungetc(c, file_);
    return false;
}

void
BinReader::expectEof()
{
    if (!atEof()) {
        fail(std::string(what_) + " '" + path_ + "' has trailing garbage",
             0);
    }
}

} // namespace scif::support
