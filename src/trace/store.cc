#include "store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "support/compress.hh"
#include "support/ioerror.hh"
#include "support/logging.hh"
#include "support/threadpool.hh"
#include "trace/codec.hh"

namespace scif::trace {

namespace {

constexpr uint32_t setMagic = 0x32544353;    // "SCT2"
constexpr uint32_t footerMagic = 0x46544353; // "SCTF"
constexpr uint32_t setVersion = 2;

constexpr size_t headerBytes = 16;
constexpr size_t trailerBytes = 12;
constexpr size_t maxStreams = size_t(1) << 20;
constexpr size_t maxNameLen = 4096;
constexpr size_t maxChunksPerStream = size_t(1) << 28;

uint64_t
fnv1a64(const uint8_t *data, size_t n)
{
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    const uint8_t *p = reinterpret_cast<const uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(v));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    const uint8_t *p = reinterpret_cast<const uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(v));
}

/** Bounds-checked sequential parser over an in-memory byte range. */
struct ByteCursor
{
    const uint8_t *data;
    size_t len;
    size_t pos = 0;

    bool
    bytes(void *dst, size_t n)
    {
        if (n > len - pos)
            return false;
        std::memcpy(dst, data + pos, n);
        pos += n;
        return true;
    }

    bool
    u32(uint32_t &v)
    {
        return bytes(&v, sizeof(v));
    }

    bool
    u64(uint64_t &v)
    {
        return bytes(&v, sizeof(v));
    }
};

/** Loose upper bound on the encoded payload size of @p records. */
uint64_t
maxEncodedBytes(uint64_t records)
{
    return records * (10 + 5 * (2 * uint64_t(numVars) + 1)) +
           records / 8 + 16;
}

} // namespace

// ---------------------------------------------------------------------
// TraceSetWriter

TraceSetWriter::TraceSetWriter(const std::string &path,
                               uint32_t chunkRecords)
    : path_(path), chunkRecords_(chunkRecords)
{
    SCIF_ASSERT(chunkRecords_ > 0);
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        throw support::IoError(
            path, "cannot open '" + path + "' for writing", errno);
    }
    std::vector<uint8_t> header;
    putU32(header, setMagic);
    putU32(header, setVersion);
    putU32(header, numVars);
    putU32(header, chunkRecords_);
    writeBlob(header.data(), header.size());
    offset_ = headerBytes;
}

TraceSetWriter::~TraceSetWriter()
{
    // Best effort only: a file closed without close() has no footer
    // and is rejected by the reader.
    if (file_)
        std::fclose(file_);
}

void
TraceSetWriter::writeBlob(const void *data, size_t size)
{
    SCIF_ASSERT(file_);
    if (size != 0 && std::fwrite(data, 1, size, file_) != size) {
        int errnum = errno;
        std::fclose(file_);
        file_ = nullptr;
        throw support::IoError(
            path_, "write to '" + path_ + "' failed", errnum);
    }
}

void
TraceSetWriter::beginStream(const std::string &name)
{
    SCIF_ASSERT(!inStream_);
    streams_.push_back(StreamInfo{name, 0, {}});
    inStream_ = true;
}

void
TraceSetWriter::record(const Record &rec)
{
    SCIF_ASSERT(inStream_);
    pointIds_.push_back(rec.point.id());
    fused_.push_back(uint8_t(rec.fused));
    indexes_.push_back(rec.index);
    vals_.insert(vals_.end(), rec.pre.begin(), rec.pre.end());
    vals_.insert(vals_.end(), rec.post.begin(), rec.post.end());
    if (pointIds_.size() >= chunkRecords_)
        sealChunk();
}

void
TraceSetWriter::sealChunk()
{
    size_t n = pointIds_.size();
    if (n == 0)
        return;

    resident_.set(n * (sizeof(uint16_t) + sizeof(uint8_t) +
                       sizeof(uint64_t)) +
                  vals_.size() * sizeof(uint32_t));

    std::vector<uint8_t> enc;
    enc.reserve(n * (2 * numVars + 4));

    std::vector<uint32_t> wide(n);
    for (size_t i = 0; i < n; ++i)
        wide[i] = pointIds_[i];
    encodeDeltaU32(enc, wide.data(), n);

    size_t bitBytes = (n + 7) / 8;
    size_t bitBase = enc.size();
    enc.resize(bitBase + bitBytes, 0);
    for (size_t i = 0; i < n; ++i) {
        if (fused_[i])
            enc[bitBase + i / 8] |= uint8_t(1u << (i % 8));
    }

    encodeDeltaU64(enc, indexes_.data(), n);

    const size_t stride = 2 * numVars;
    for (size_t var = 0; var < numVars; ++var)
        encodeDeltaU32(enc, vals_.data() + var, n, stride);
    for (size_t var = 0; var < numVars; ++var)
        encodeDeltaU32(enc, vals_.data() + numVars + var, n, stride);

    std::vector<uint8_t> stored =
        support::lzCompress(enc.data(), enc.size());
    resident_.grow(enc.size() + stored.size());

    ChunkRef ref;
    ref.offset = offset_;
    ref.storedBytes = stored.size();
    ref.encodedBytes = enc.size();
    ref.checksum = fnv1a64(enc.data(), enc.size());
    ref.records = uint32_t(n);

    writeBlob(stored.data(), stored.size());
    offset_ += stored.size();

    streams_.back().chunks.push_back(ref);
    streams_.back().records += n;

    pointIds_.clear();
    fused_.clear();
    indexes_.clear();
    vals_.clear();
    resident_.set(0);
}

void
TraceSetWriter::endStream()
{
    SCIF_ASSERT(inStream_);
    sealChunk();
    inStream_ = false;
}

void
TraceSetWriter::appendRawChunk(const std::vector<uint8_t> &stored,
                               const ChunkRef &ref)
{
    SCIF_ASSERT(inStream_ && pointIds_.empty());
    SCIF_ASSERT(stored.size() == ref.storedBytes);
    ChunkRef placed = ref;
    placed.offset = offset_;
    writeBlob(stored.data(), stored.size());
    offset_ += stored.size();
    streams_.back().chunks.push_back(placed);
    streams_.back().records += ref.records;
}

void
TraceSetWriter::close()
{
    SCIF_ASSERT(file_ && !inStream_);

    std::vector<uint8_t> footer;
    putU64(footer, streams_.size());
    for (const auto &s : streams_) {
        putU32(footer, uint32_t(s.name.size()));
        footer.insert(footer.end(), s.name.begin(), s.name.end());
        putU64(footer, s.records);
        putU64(footer, s.chunks.size());
        for (const auto &c : s.chunks) {
            putU64(footer, c.offset);
            putU64(footer, c.storedBytes);
            putU64(footer, c.encodedBytes);
            putU64(footer, c.checksum);
            putU32(footer, c.records);
        }
    }
    uint64_t footerOffset = offset_;
    putU64(footer, footerOffset);
    putU32(footer, footerMagic);

    writeBlob(footer.data(), footer.size());
    bool ok = std::fclose(file_) == 0;
    int errnum = errno;
    file_ = nullptr;
    if (!ok) {
        throw support::IoError(
            path_, "closing '" + path_ + "' failed", errnum);
    }
}

uint64_t
TraceSetWriter::totalRecords() const
{
    uint64_t total = 0;
    for (const auto &s : streams_)
        total += s.records;
    return total;
}

// ---------------------------------------------------------------------
// TraceSetReader

void
TraceSetReader::corrupt(const std::string &why, uint64_t offset) const
{
    throw support::IoError(path_,
                           "trace set '" + path_ + "' " + why, 0,
                           offset);
}

namespace {

void
preadFully(int fd, const std::string &path, void *dst, size_t n,
           uint64_t offset)
{
    uint8_t *p = static_cast<uint8_t *>(dst);
    while (n > 0) {
        ssize_t got = ::pread(fd, p, n, off_t(offset));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            throw support::IoError(
                path, "read from '" + path + "' failed", errno);
        }
        if (got == 0) {
            throw support::IoError(
                path, "trace set '" + path + "' is truncated or corrupt",
                0, offset);
        }
        p += got;
        n -= size_t(got);
        offset += uint64_t(got);
    }
}

} // namespace

TraceSetReader::TraceSetReader(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
        throw support::IoError(
            path, "cannot open trace set '" + path + "'", errno);
    }
    try {
        struct stat st;
        if (::fstat(fd_, &st) != 0) {
            throw support::IoError(
                path, "cannot stat trace set '" + path + "'", errno);
        }
        fileSize_ = uint64_t(st.st_size);

        // The magic comes first, so a file of another kind is named
        // as such however short it is.
        uint32_t head[4] = {};
        preadFully(fd_, path_, head,
                   size_t(std::min<uint64_t>(fileSize_, sizeof(head))), 0);
        if (fileSize_ >= sizeof(head[0]) && head[0] != setMagic) {
            throw support::IoError(
                path, "'" + path + "' is not a trace set artifact", 0, 0);
        }
        if (fileSize_ < headerBytes + 8 + trailerBytes)
            corrupt("is truncated or corrupt", fileSize_);
        if (head[1] != setVersion) {
            corrupt("has version " + std::to_string(head[1]) +
                        ", this build reads " +
                        std::to_string(setVersion),
                    4);
        }
        if (head[2] != numVars) {
            corrupt("has " + std::to_string(head[2]) +
                        " vars, this build has " +
                        std::to_string(numVars),
                    8);
        }
        chunkRecords_ = head[3];
        if (chunkRecords_ == 0)
            corrupt("is truncated or corrupt", 12);

        uint8_t trailer[trailerBytes];
        preadFully(fd_, path_, trailer, sizeof(trailer),
                   fileSize_ - trailerBytes);
        uint64_t footerOffset;
        uint32_t footMagic;
        std::memcpy(&footerOffset, trailer, 8);
        std::memcpy(&footMagic, trailer + 8, 4);
        if (footMagic != footerMagic)
            corrupt("is truncated or corrupt (bad trailer magic)",
                    fileSize_ - trailerBytes + 8);
        if (footerOffset < headerBytes ||
            footerOffset > fileSize_ - trailerBytes - 8)
            corrupt("is truncated or corrupt (bad footer offset)",
                    fileSize_ - trailerBytes);

        size_t footerLen =
            size_t(fileSize_ - trailerBytes - footerOffset);
        std::vector<uint8_t> footer(footerLen);
        preadFully(fd_, path_, footer.data(), footerLen, footerOffset);

        // Directory parse failures report the absolute file offset
        // of the bad footer field, so a corrupted artifact can be
        // located with a hex dump.
        ByteCursor cur{footer.data(), footerLen};
        auto at = [&] { return footerOffset + cur.pos; };
        uint64_t streamCount;
        if (!cur.u64(streamCount) || streamCount > maxStreams)
            corrupt("is truncated or corrupt (bad stream count)",
                    at());
        streams_.resize(size_t(streamCount));
        for (auto &s : streams_) {
            uint32_t nameLen;
            if (!cur.u32(nameLen) || nameLen > maxNameLen)
                corrupt("is truncated or corrupt (bad stream name)",
                        at());
            s.name.resize(nameLen);
            if (!cur.bytes(s.name.data(), nameLen))
                corrupt("is truncated or corrupt (bad stream name)",
                        at());
            uint64_t chunkCount;
            if (!cur.u64(s.records) || !cur.u64(chunkCount) ||
                chunkCount > maxChunksPerStream)
                corrupt("is truncated or corrupt (bad chunk count)",
                        at());
            s.chunks.resize(size_t(chunkCount));
            uint64_t total = 0;
            for (auto &c : s.chunks) {
                uint64_t entry = at();
                if (!cur.u64(c.offset) || !cur.u64(c.storedBytes) ||
                    !cur.u64(c.encodedBytes) || !cur.u64(c.checksum) ||
                    !cur.u32(c.records))
                    corrupt("is truncated or corrupt (bad chunk "
                            "directory entry)",
                            entry);
                if (c.records == 0 || c.storedBytes == 0 ||
                    c.offset < headerBytes ||
                    c.offset > footerOffset ||
                    c.storedBytes > footerOffset - c.offset ||
                    c.encodedBytes > maxEncodedBytes(c.records))
                    corrupt("is truncated or corrupt (bad chunk "
                            "directory entry)",
                            entry);
                total += c.records;
            }
            if (total != s.records)
                corrupt("is truncated or corrupt (stream/chunk "
                        "record mismatch)",
                        at());
        }
        if (cur.pos != footerLen)
            corrupt("is truncated or corrupt (trailing footer "
                    "bytes)",
                    at());
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }
}

TraceSetReader::~TraceSetReader()
{
    if (fd_ >= 0)
        ::close(fd_);
}

uint64_t
TraceSetReader::totalRecords() const
{
    uint64_t total = 0;
    for (const auto &s : streams_)
        total += s.records;
    return total;
}

size_t
TraceSetReader::findStream(const std::string &name) const
{
    for (size_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i].name == name)
            return i;
    }
    return npos;
}

std::vector<uint8_t>
TraceSetReader::readRawChunk(size_t stream, size_t chunk) const
{
    SCIF_ASSERT(stream < streams_.size() &&
                chunk < streams_[stream].chunks.size());
    const ChunkRef &ref = streams_[stream].chunks[chunk];
    std::vector<uint8_t> stored(size_t(ref.storedBytes));
    preadFully(fd_, path_, stored.data(), stored.size(), ref.offset);
    return stored;
}

void
TraceSetReader::readChunk(size_t stream, size_t chunk,
                          TraceBuffer &out) const
{
    const ChunkRef &ref = streams_[stream].chunks[chunk];
    std::vector<uint8_t> stored = readRawChunk(stream, chunk);

    std::vector<uint8_t> enc(size_t(ref.encodedBytes));
    if (!support::lzDecompress(stored.data(), stored.size(),
                               enc.data(), enc.size()))
        corrupt("is truncated or corrupt (chunk failed to "
                "decompress)",
                ref.offset);
    if (fnv1a64(enc.data(), enc.size()) != ref.checksum)
        corrupt("is truncated or corrupt (chunk checksum "
                "mismatch)",
                ref.offset);

    size_t n = ref.records;
    size_t pos = 0;
    std::vector<Record> recs(n);
    std::vector<uint32_t> col(n);

    if (!decodeDeltaU32(enc.data(), enc.size(), pos, col.data(), n))
        corrupt("is truncated or corrupt (bad chunk payload)",
                ref.offset);
    for (size_t i = 0; i < n; ++i) {
        if (col[i] > UINT16_MAX || !Point::validId(uint16_t(col[i])))
            corrupt("is truncated or corrupt (bad chunk "
                    "payload)",
                    ref.offset);
        recs[i].point = Point::fromId(uint16_t(col[i]));
    }

    size_t bitBytes = (n + 7) / 8;
    if (bitBytes > enc.size() - pos)
        corrupt("is truncated or corrupt (bad chunk payload)",
                ref.offset);
    for (size_t i = 0; i < n; ++i)
        recs[i].fused = (enc[pos + i / 8] >> (i % 8)) & 1;
    pos += bitBytes;

    std::vector<uint64_t> idx(n);
    if (!decodeDeltaU64(enc.data(), enc.size(), pos, idx.data(), n))
        corrupt("is truncated or corrupt (bad chunk payload)",
                ref.offset);
    for (size_t i = 0; i < n; ++i)
        recs[i].index = idx[i];

    for (size_t var = 0; var < numVars; ++var) {
        if (!decodeDeltaU32(enc.data(), enc.size(), pos, col.data(), n))
            corrupt("is truncated or corrupt (bad chunk "
                    "payload)",
                    ref.offset);
        for (size_t i = 0; i < n; ++i)
            recs[i].pre[var] = col[i];
    }
    for (size_t var = 0; var < numVars; ++var) {
        if (!decodeDeltaU32(enc.data(), enc.size(), pos, col.data(), n))
            corrupt("is truncated or corrupt (bad chunk "
                    "payload)",
                    ref.offset);
        for (size_t i = 0; i < n; ++i)
            recs[i].post[var] = col[i];
    }
    if (pos != enc.size())
        corrupt("is truncated or corrupt (bad chunk payload)",
                ref.offset);

    out.reserve(out.size() + n);
    for (const auto &rec : recs)
        out.record(rec);
}

std::vector<NamedTrace>
TraceSetReader::readAll(support::ThreadPool *pool) const
{
    struct Job
    {
        size_t stream;
        size_t chunk;
    };
    std::vector<Job> jobs;
    for (size_t s = 0; s < streams_.size(); ++s) {
        for (size_t c = 0; c < streams_[s].chunks.size(); ++c)
            jobs.push_back({s, c});
    }

    auto buffers =
        support::parallelMap(pool, jobs, [&](const Job &j) {
            TraceBuffer b;
            readChunk(j.stream, j.chunk, b);
            return b;
        });

    support::ResidentTracker resident;
    resident.set(totalRecords() * sizeof(Record));

    std::vector<NamedTrace> out(streams_.size());
    size_t k = 0;
    for (size_t s = 0; s < streams_.size(); ++s) {
        out[s].name = streams_[s].name;
        out[s].trace.reserve(size_t(streams_[s].records));
        for (size_t c = 0; c < streams_[s].chunks.size(); ++c)
            out[s].trace.append(buffers[k++]);
    }
    return out;
}

// ---------------------------------------------------------------------
// ChunkCursor

bool
ChunkCursor::nextChunk(TraceBuffer &out)
{
    const auto &chunks = reader_.streams()[stream_].chunks;
    if (chunk_ >= chunks.size())
        return false;
    out.clear();
    reader_.readChunk(stream_, chunk_, out);
    ++chunk_;
    return true;
}

bool
ChunkCursor::next(Record &rec)
{
    while (!buffered_ || pos_ >= buffer_.size()) {
        if (!nextChunk(buffer_))
            return false;
        buffered_ = true;
        pos_ = 0;
    }
    rec = buffer_.records()[pos_++];
    return true;
}

// ---------------------------------------------------------------------
// save / merge / parallel build

void
saveTraceSet(const std::string &path,
             const std::vector<NamedTrace> &traces,
             uint32_t chunkRecords)
{
    TraceSetWriter out(path, chunkRecords);
    for (const auto &nt : traces) {
        out.beginStream(nt.name);
        for (const auto &rec : nt.trace.records())
            out.record(rec);
        out.endStream();
    }
    out.close();
}

void
mergeTraceSets(const std::string &outPath,
               const std::vector<std::string> &inputs,
               uint32_t chunkRecords)
{
    TraceSetWriter out(outPath, chunkRecords);
    std::unordered_set<std::string> seen;
    for (const auto &input : inputs) {
        TraceSetReader reader(input);
        for (size_t s = 0; s < reader.streams().size(); ++s) {
            const StreamInfo &info = reader.streams()[s];
            if (!seen.insert(info.name).second) {
                throw support::IoError(
                    input, "duplicate stream '" + info.name + "' in '" +
                               input + "'");
            }
            out.beginStream(info.name);
            for (size_t c = 0; c < info.chunks.size(); ++c)
                out.appendRawChunk(reader.readRawChunk(s, c),
                                   info.chunks[c]);
            out.endStream();
        }
    }
    out.close();
}

std::vector<uint64_t>
buildTraceSetParallel(
    const std::string &path, uint32_t chunkRecords,
    const std::vector<std::string> &names,
    const std::function<void(size_t, TraceSink &)> &produce,
    support::ThreadPool *pool)
{
    std::vector<uint64_t> counts(names.size());

    if (!pool || names.size() <= 1) {
        TraceSetWriter out(path, chunkRecords);
        for (size_t i = 0; i < names.size(); ++i) {
            out.beginStream(names[i]);
            produce(i, out);
            out.endStream();
            counts[i] = out.streams()[i].records;
        }
        out.close();
        return counts;
    }

    std::vector<std::string> temps(names.size());
    for (size_t i = 0; i < names.size(); ++i)
        temps[i] = path + ".tmp" + std::to_string(i);

    support::parallelFor(pool, names.size(), [&](size_t i) {
        TraceSetWriter out(temps[i], chunkRecords);
        out.beginStream(names[i]);
        produce(i, out);
        out.endStream();
        out.close();
    });

    // Raw-merge in stream order: the chunk bytes are identical to
    // what a serial single-writer run would have produced, so the
    // merged file is byte-identical too.
    TraceSetWriter out(path, chunkRecords);
    for (size_t i = 0; i < names.size(); ++i) {
        TraceSetReader reader(temps[i]);
        const StreamInfo &info = reader.streams()[0];
        out.beginStream(names[i]);
        for (size_t c = 0; c < info.chunks.size(); ++c)
            out.appendRawChunk(reader.readRawChunk(0, c),
                               info.chunks[c]);
        out.endStream();
        counts[i] = info.records;
    }
    out.close();
    for (const auto &temp : temps)
        std::remove(temp.c_str());
    return counts;
}

} // namespace scif::trace
