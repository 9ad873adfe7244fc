/**
 * @file
 * Tests for the chunked compressed trace-set store (SCT2): the
 * varint/delta codec, the LZ compressor, chunk-boundary round trips,
 * corruption rejection, stream lookup and merging, parallel-read
 * determinism, and the streaming consumers (invariant generation,
 * violation scans, the full pipeline) whose outputs must be identical
 * to the in-memory paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>

#include "core/scifinder.hh"
#include "invgen/invgen.hh"
#include "sci/identify.hh"
#include "support/compress.hh"
#include "support/ioerror.hh"
#include "support/threadpool.hh"
#include "trace/codec.hh"
#include "trace/store.hh"
#include "workloads/workloads.hh"

namespace scif {
namespace {

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::path(::testing::TempDir()) / name)
        .string();
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

/** Deterministic synthetic record: realistic column shapes. */
trace::Record
makeRecord(uint64_t i)
{
    trace::Record rec;
    rec.point = trace::Point::insn(isa::Mnemonic(i % 7));
    rec.index = i;
    rec.fused = (i % 5) == 0;
    for (uint16_t v = 0; v < trace::numVars; ++v) {
        rec.pre[v] = uint32_t(0x1000 + 4 * i + v);
        rec.post[v] = uint32_t(0x1000 + 4 * (i + 1) + v);
    }
    return rec;
}

std::vector<trace::NamedTrace>
syntheticSet(const std::vector<size_t> &counts)
{
    std::vector<trace::NamedTrace> out;
    uint64_t seq = 0;
    for (size_t s = 0; s < counts.size(); ++s) {
        trace::NamedTrace nt;
        nt.name = "stream-" + std::to_string(s);
        for (size_t i = 0; i < counts[s]; ++i)
            nt.trace.record(makeRecord(seq++));
        out.push_back(std::move(nt));
    }
    return out;
}

void
expectSameRecords(const std::vector<trace::NamedTrace> &a,
                  const std::vector<trace::NamedTrace> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].name, b[s].name);
        ASSERT_EQ(a[s].trace.size(), b[s].trace.size());
        for (size_t i = 0; i < a[s].trace.size(); ++i) {
            const auto &ra = a[s].trace.records()[i];
            const auto &rb = b[s].trace.records()[i];
            ASSERT_EQ(ra.point.id(), rb.point.id());
            ASSERT_EQ(ra.index, rb.index);
            ASSERT_EQ(ra.fused, rb.fused);
            ASSERT_EQ(ra.pre, rb.pre);
            ASSERT_EQ(ra.post, rb.post);
        }
    }
}

TEST(Codec, VarintRoundTrip)
{
    std::vector<uint8_t> buf;
    std::vector<uint64_t> values = {0,       1,          127,
                                    128,     16383,      16384,
                                    1 << 20, UINT32_MAX, UINT64_MAX};
    for (uint64_t v : values)
        trace::putVarint(buf, v);
    size_t pos = 0;
    for (uint64_t v : values) {
        uint64_t got = 0;
        ASSERT_TRUE(
            trace::getVarint(buf.data(), buf.size(), pos, got));
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(pos, buf.size());
}

TEST(Codec, ZigzagRoundTrip)
{
    for (int64_t v : {int64_t(0), int64_t(-1), int64_t(1),
                      int64_t(INT32_MIN), int64_t(INT32_MAX),
                      int64_t(INT64_MIN), int64_t(INT64_MAX)}) {
        EXPECT_EQ(trace::unzigzag64(trace::zigzag64(v)), v);
    }
    for (int32_t v :
         {0, -1, 1, INT32_MIN, INT32_MAX, 42, -12345}) {
        EXPECT_EQ(trace::unzigzag32(trace::zigzag32(v)), v);
    }
}

TEST(Codec, DeltaColumnRoundTrip)
{
    std::vector<uint32_t> col = {100, 104, 108, 4,          0,
                                 100, 0,   1,   UINT32_MAX, 7};
    std::vector<uint8_t> buf;
    trace::encodeDeltaU32(buf, col.data(), col.size(), 1);
    std::vector<uint32_t> out(col.size());
    size_t pos = 0;
    ASSERT_TRUE(trace::decodeDeltaU32(buf.data(), buf.size(), pos,
                                      out.data(), out.size()));
    EXPECT_EQ(out, col);
    EXPECT_EQ(pos, buf.size());
}

TEST(Compress, RoundTrip)
{
    std::mt19937 rng(1234);
    std::vector<std::vector<uint8_t>> inputs;
    inputs.push_back({});                            // empty
    inputs.push_back(std::vector<uint8_t>(10000, 0)); // all zero
    std::vector<uint8_t> text;
    for (int i = 0; i < 500; ++i)
        for (char c : std::string("the quick brown fox "))
            text.push_back(uint8_t(c));
    inputs.push_back(text); // repetitive
    std::vector<uint8_t> random(8192);
    for (auto &b : random)
        b = uint8_t(rng());
    inputs.push_back(random); // incompressible
    std::vector<uint8_t> small = {1, 2, 3};
    inputs.push_back(small); // below the match threshold

    for (const auto &input : inputs) {
        auto packed = support::lzCompress(input.data(), input.size());
        std::vector<uint8_t> out(input.size());
        ASSERT_TRUE(support::lzDecompress(packed.data(), packed.size(),
                                          out.data(), out.size()));
        EXPECT_EQ(out, input);
    }

    // The compressible inputs must actually shrink.
    auto zeros = support::lzCompress(inputs[1].data(),
                                     inputs[1].size());
    EXPECT_LT(zeros.size(), inputs[1].size() / 10);
}

TEST(TraceStoreV2, ChunkBoundaryRoundTrip)
{
    // Chunk size 7 against streams of 0, 1, 6, 7, 8, 14, and 20
    // records: partial, exact-multiple, and empty chunks all round
    // trip.
    auto traces = syntheticSet({0, 1, 6, 7, 8, 14, 20});
    std::string path = tmpPath("boundary.v2");
    trace::saveTraceSet(path, traces, 7);

    trace::TraceSetReader reader(path);
    EXPECT_EQ(reader.chunkRecords(), 7u);
    ASSERT_EQ(reader.streams().size(), traces.size());
    EXPECT_EQ(reader.streams()[0].chunks.size(), 0u);
    EXPECT_EQ(reader.streams()[3].chunks.size(), 1u);
    EXPECT_EQ(reader.streams()[4].chunks.size(), 2u);
    EXPECT_EQ(reader.totalRecords(), 56u);

    expectSameRecords(reader.readAll(nullptr), traces);
}

TEST(TraceStoreV2, EmptySet)
{
    std::string path = tmpPath("empty.v2");
    trace::saveTraceSet(path, {}, 4);
    trace::TraceSetReader reader(path);
    EXPECT_EQ(reader.streams().size(), 0u);
    EXPECT_TRUE(reader.readAll(nullptr).empty());
}

TEST(TraceStoreV2, ParallelReadDeterminism)
{
    auto traces = syntheticSet({100, 3, 250, 0, 57});
    std::string path = tmpPath("parallel.v2");
    trace::saveTraceSet(path, traces, 16);

    trace::TraceSetReader reader(path);
    auto serial = reader.readAll(nullptr);
    support::ThreadPool pool(4);
    auto parallel = reader.readAll(&pool);
    expectSameRecords(serial, parallel);
    expectSameRecords(serial, traces);
}

TEST(TraceStoreV2, ParallelBuildByteIdentical)
{
    auto traces = syntheticSet({90, 33, 120, 7});
    std::vector<std::string> names;
    for (const auto &nt : traces)
        names.push_back(nt.name);
    auto produce = [&](size_t i, trace::TraceSink &sink) {
        for (const auto &rec : traces[i].trace.records())
            sink.record(rec);
    };

    std::string serialPath = tmpPath("build-serial.v2");
    auto serialCounts = trace::buildTraceSetParallel(
        serialPath, 16, names, produce, nullptr);

    support::ThreadPool pool(4);
    std::string poolPath = tmpPath("build-pool.v2");
    auto poolCounts = trace::buildTraceSetParallel(poolPath, 16, names,
                                                   produce, &pool);

    EXPECT_EQ(serialCounts, poolCounts);
    EXPECT_EQ(serialCounts,
              (std::vector<uint64_t>{90, 33, 120, 7}));
    EXPECT_EQ(readFile(serialPath), readFile(poolPath));
}

TEST(TraceStoreV2, FindStreamAndChunkCursor)
{
    auto traces = syntheticSet({13, 5});
    std::string path = tmpPath("cursor.v2");
    trace::saveTraceSet(path, traces, 4);

    trace::TraceSetReader reader(path);
    ASSERT_EQ(reader.streams().size(), 2u);
    EXPECT_EQ(reader.streams()[0].name, "stream-0");
    EXPECT_EQ(reader.streams()[0].records, 13u);
    EXPECT_EQ(reader.findStream("stream-0"), 0u);
    EXPECT_EQ(reader.findStream("stream-1"), 1u);
    EXPECT_EQ(reader.findStream("nope"), trace::TraceSetReader::npos);

    // Record at a time, across chunk boundaries (13 = 4 + 4 + 4 + 1).
    size_t n = 0;
    trace::Record rec;
    trace::ChunkCursor cur(reader, 0);
    while (cur.next(rec)) {
        ASSERT_LT(n, traces[0].trace.size());
        const auto &want = traces[0].trace.records()[n++];
        ASSERT_EQ(rec.index, want.index);
        ASSERT_EQ(rec.pre, want.pre);
        ASSERT_EQ(rec.post, want.post);
    }
    EXPECT_EQ(n, 13u);
    EXPECT_FALSE(cur.next(rec));

    // A chunk at a time: each call replaces the buffer.
    trace::ChunkCursor chunks(reader, 1);
    trace::TraceBuffer chunk;
    std::vector<size_t> sizes;
    while (chunks.nextChunk(chunk))
        sizes.push_back(chunk.size());
    EXPECT_EQ(sizes, (std::vector<size_t>{4, 1}));
    EXPECT_EQ(chunk.records().back().index,
              traces[1].trace.records().back().index);
}

TEST(TraceStoreV2, MergePreservesStreams)
{
    auto setA = syntheticSet({21, 9});
    auto setB = syntheticSet({4});
    setB[0].name = "other";
    std::string a = tmpPath("merge-a.v2");
    std::string b = tmpPath("merge-b.v2");
    trace::saveTraceSet(a, setA, 8);
    trace::saveTraceSet(b, setB, 3);

    std::string merged = tmpPath("merged.v2");
    trace::mergeTraceSets(merged, {a, b}, 8);
    trace::TraceSetReader reader(merged);
    auto all = reader.readAll(nullptr);
    ASSERT_EQ(all.size(), 3u);
    std::vector<trace::NamedTrace> want = std::move(setA);
    want.push_back(std::move(setB[0]));
    expectSameRecords(all, want);

    // Chunks are copied verbatim, keeping each input's chunking.
    trace::TraceSetReader readerB(b);
    ASSERT_EQ(reader.streams()[2].chunks.size(), 2u);
    for (size_t c = 0; c < 2; ++c)
        EXPECT_EQ(reader.readRawChunk(2, c), readerB.readRawChunk(0, c));

    // Duplicate stream names across inputs are an error.
    EXPECT_THROW(trace::mergeTraceSets(tmpPath("dup.v2"), {a, a}, 8),
                 support::IoError);
}

TEST(TraceStoreV2, CorruptionRejected)
{
    auto traces = syntheticSet({64});
    std::string path = tmpPath("corrupt.v2");
    trace::saveTraceSet(path, traces, 16);
    auto pristine = readFile(path);

    auto writeBytes = [&](const std::vector<uint8_t> &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  std::streamsize(bytes.size()));
    };

    // Truncation anywhere: mid-trailer, mid-footer, mid-chunk.
    for (size_t keep :
         {pristine.size() - 4, pristine.size() - 20, size_t(40),
          size_t(17), size_t(3)}) {
        auto cut = pristine;
        cut.resize(keep);
        writeBytes(cut);
        EXPECT_THROW(trace::TraceSetReader r(path), support::IoError)
            << "kept " << keep;
    }

    // Wrong magic.
    auto bad = pristine;
    bad[0] ^= 0xff;
    writeBytes(bad);
    EXPECT_THROW(trace::TraceSetReader r(path), support::IoError);

    // A flipped byte inside a chunk blob passes directory validation
    // but fails the chunk checksum on read.
    bad = pristine;
    bad[20] ^= 0x01;
    writeBytes(bad);
    {
        trace::TraceSetReader reader(path);
        trace::TraceBuffer out;
        EXPECT_THROW(reader.readChunk(0, 0, out), support::IoError);
    }

    // Trailing garbage after the trailer.
    bad = pristine;
    bad.push_back(0);
    writeBytes(bad);
    EXPECT_THROW(trace::TraceSetReader r(path), support::IoError);

    // Restore and make sure the pristine file still loads.
    writeBytes(pristine);
    trace::TraceSetReader reader(path);
    expectSameRecords(reader.readAll(nullptr), traces);
}

TEST(TraceStoreV2, WriterErrorsAreStructured)
{
    EXPECT_THROW(trace::TraceSetWriter w("/nonexistent-dir/x.v2"),
                 support::IoError);
    EXPECT_THROW(trace::TraceSetReader r(tmpPath("missing.v2")),
                 support::IoError);
}

TEST(Codec, EmptyAndSingleValueColumns)
{
    // A zero-length column encodes to zero bytes and decodes to
    // nothing; a one-value column is pure "first value" with no
    // deltas.
    std::vector<uint8_t> buf;
    trace::encodeDeltaU32(buf, nullptr, 0, 1);
    size_t pos = 0;
    ASSERT_TRUE(
        trace::decodeDeltaU32(buf.data(), buf.size(), pos, nullptr, 0));
    EXPECT_EQ(pos, buf.size());

    for (uint32_t v : {uint32_t(0), uint32_t(1), UINT32_MAX}) {
        std::vector<uint8_t> one;
        trace::encodeDeltaU32(one, &v, 1, 1);
        uint32_t out = ~v;
        pos = 0;
        ASSERT_TRUE(
            trace::decodeDeltaU32(one.data(), one.size(), pos, &out, 1));
        EXPECT_EQ(out, v);
        EXPECT_EQ(pos, one.size());
    }
}

TEST(Codec, MaxDeltaZigzagBoundaries)
{
    // Alternating 0 / UINT32_MAX exercises the widest possible
    // deltas in both directions; the zigzag/varint path must not
    // wrap or truncate them.
    std::vector<std::vector<uint32_t>> columns = {
        {0, UINT32_MAX, 0, UINT32_MAX, 0},
        {UINT32_MAX, 0, UINT32_MAX},
        {0x80000000u, 0x7fffffffu, 0x80000000u},
        {UINT32_MAX, UINT32_MAX, UINT32_MAX},
        {1, UINT32_MAX - 1, 2, UINT32_MAX - 2},
    };
    for (const auto &col : columns) {
        std::vector<uint8_t> buf;
        trace::encodeDeltaU32(buf, col.data(), col.size(), 1);
        std::vector<uint32_t> out(col.size());
        size_t pos = 0;
        ASSERT_TRUE(trace::decodeDeltaU32(buf.data(), buf.size(), pos,
                                          out.data(), out.size()));
        EXPECT_EQ(out, col);
        EXPECT_EQ(pos, buf.size());

        // Every truncation of the encoding must fail cleanly, never
        // read past the buffer or fabricate values.
        for (size_t keep = 0; keep < buf.size(); ++keep) {
            std::vector<uint32_t> partial(col.size());
            size_t p = 0;
            EXPECT_FALSE(trace::decodeDeltaU32(buf.data(), keep, p,
                                               partial.data(),
                                               partial.size()))
                << "kept " << keep << " of " << buf.size();
        }
    }
}

TEST(TraceStoreV2, SingleRecordChunksRoundTrip)
{
    // chunkRecords=1 makes every record its own chunk — the smallest
    // legal chunk — and an empty stream contributes no chunks at all.
    trace::TraceSetWriter writer(tmpPath("tiny.v2"), 1);
    writer.beginStream("empty");
    writer.endStream();
    writer.beginStream("ones");
    for (uint64_t i = 0; i < 5; ++i)
        writer.record(makeRecord(i));
    writer.endStream();
    writer.close();

    trace::TraceSetReader reader(tmpPath("tiny.v2"));
    ASSERT_EQ(reader.streams().size(), 2u);
    EXPECT_EQ(reader.streams()[0].chunks.size(), 0u);
    EXPECT_EQ(reader.streams()[0].records, 0u);
    ASSERT_EQ(reader.streams()[1].chunks.size(), 5u);
    for (const auto &ref : reader.streams()[1].chunks)
        EXPECT_EQ(ref.records, 1u);
    auto all = reader.readAll(nullptr);
    ASSERT_EQ(all.size(), 2u);
    ASSERT_EQ(all[1].trace.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(all[1].trace.records()[i].index, i);
}

TEST(TraceStoreV2, ExtremeDeltaRecordsRoundTrip)
{
    // Store-level companion to Codec.MaxDeltaZigzagBoundaries:
    // columns that alternate between 0 and UINT32_MAX and indexes
    // with huge jumps must survive the full encode/compress/decode
    // path.
    trace::NamedTrace nt;
    nt.name = "extremes";
    for (uint64_t i = 0; i < 100; ++i) {
        trace::Record rec = makeRecord(i);
        rec.index = i * 0x123456789abcull;
        for (uint16_t v = 0; v < trace::numVars; ++v) {
            rec.pre[v] = ((i + v) % 2) ? UINT32_MAX : 0;
            rec.post[v] = ((i + v) % 2) ? 0 : UINT32_MAX;
        }
        nt.trace.record(rec);
    }
    std::string path = tmpPath("extremes.v2");
    trace::saveTraceSet(path, {nt}, 16);
    trace::TraceSetReader reader(path);
    expectSameRecords(reader.readAll(nullptr), {nt});
}

TEST(TraceStoreV2, IncompressibleColumnsRoundTrip)
{
    // Uniform-random values leave nothing for delta coding or the LZ
    // stage to exploit; the store must fall through without inflating
    // pathologically and still round trip exactly.
    std::mt19937 rng(0xc0ffee);
    trace::NamedTrace nt;
    nt.name = "noise";
    for (uint64_t i = 0; i < 256; ++i) {
        trace::Record rec = makeRecord(i);
        for (uint16_t v = 0; v < trace::numVars; ++v) {
            rec.pre[v] = rng();
            rec.post[v] = rng();
        }
        nt.trace.record(rec);
    }
    std::string path = tmpPath("noise.v2");
    trace::saveTraceSet(path, {nt}, 64);
    trace::TraceSetReader reader(path);
    for (const auto &ref : reader.streams()[0].chunks) {
        // Random payloads cannot compress meaningfully: the stored
        // blob stays within a factor of two of the encoding either
        // way.
        EXPECT_GT(ref.storedBytes, ref.encodedBytes / 2);
        EXPECT_LT(ref.storedBytes, ref.encodedBytes * 2);
    }
    expectSameRecords(reader.readAll(nullptr), {nt});
}

TEST(TraceStoreV2, CorruptedFooterDirectoryRejected)
{
    auto traces = syntheticSet({40, 9});
    std::string path = tmpPath("footer.v2");
    trace::saveTraceSet(path, traces, 8);
    auto pristine = readFile(path);
    ASSERT_GT(pristine.size(), 12u);

    // The trailer is 12 bytes: footer offset (LE u64) + "SCTF".
    uint64_t footerOffset = 0;
    for (int i = 7; i >= 0; --i) {
        footerOffset = (footerOffset << 8) |
                       pristine[pristine.size() - 12 + size_t(i)];
    }
    ASSERT_LT(footerOffset, pristine.size() - 12);

    auto writeBytes = [&](const std::vector<uint8_t> &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  std::streamsize(bytes.size()));
    };

    // Clobbering any part of the directory must be rejected at open
    // with a structured error that points into the footer region.
    size_t footerBytes = pristine.size() - 12 - footerOffset;
    for (size_t at : {size_t(0), footerBytes / 2, footerBytes - 1}) {
        auto bad = pristine;
        bad[footerOffset + at] ^= 0xff;
        writeBytes(bad);
        try {
            trace::TraceSetReader reader(path);
            // A flip may land in a stream-name byte, which parses
            // fine but changes the name — then the directory is
            // intact and readable.
            continue;
        } catch (const support::IoError &e) {
            EXPECT_EQ(e.path(), path) << "flip at footer+" << at;
            if (e.hasOffset()) {
                EXPECT_GE(e.offset(), footerOffset)
                    << "flip at footer+" << at;
            }
        }
    }

    // A header version flip reports the exact field offset.
    auto bad = pristine;
    bad[4] ^= 0xff;
    writeBytes(bad);
    try {
        trace::TraceSetReader reader(path);
        FAIL() << "bad version accepted";
    } catch (const support::IoError &e) {
        EXPECT_EQ(e.path(), path);
        ASSERT_TRUE(e.hasOffset());
        EXPECT_EQ(e.offset(), 4u);
        EXPECT_NE(std::string(e.what()).find("at offset 4"),
                  std::string::npos);
    }

    // A bad trailer magic points at the magic's own offset.
    bad = pristine;
    bad[pristine.size() - 1] ^= 0xff;
    writeBytes(bad);
    try {
        trace::TraceSetReader reader(path);
        FAIL() << "bad trailer magic accepted";
    } catch (const support::IoError &e) {
        ASSERT_TRUE(e.hasOffset());
        EXPECT_EQ(e.offset(), uint64_t(pristine.size() - 4));
    }

    writeBytes(pristine);
    trace::TraceSetReader reader(path);
    expectSameRecords(reader.readAll(nullptr), traces);
}

/** Real workload traces: the paper's streams, not synthetic ones. */
std::vector<trace::NamedTrace>
workloadSet()
{
    std::vector<trace::NamedTrace> out;
    for (const char *name : {"basicmath", "gzip", "mcf"}) {
        out.push_back(trace::NamedTrace{
            name, workloads::run(workloads::byName(name))});
    }
    return out;
}

TEST(TraceStoreStreaming, GenerateMatchesBatch)
{
    auto traces = workloadSet();
    std::string path = tmpPath("gen.v2");
    trace::saveTraceSet(path, traces, 512); // force many chunks

    std::vector<const trace::TraceBuffer *> ptrs;
    for (const auto &nt : traces)
        ptrs.push_back(&nt.trace);
    invgen::GenStats batchStats;
    auto batch = invgen::generate(ptrs, {}, &batchStats);

    trace::TraceSetReader reader(path);
    invgen::GenStats streamStats;
    auto streamed =
        invgen::generateStreaming(reader, {}, &streamStats);
    EXPECT_EQ(streamed.keys(), batch.keys());
    EXPECT_EQ(streamStats.records, batchStats.records);
    EXPECT_EQ(streamStats.points, batchStats.points);
    EXPECT_EQ(streamStats.candidatesTried,
              batchStats.candidatesTried);

    // Chunk windows are folded in parallel too; the model must not
    // depend on the job count.
    support::ThreadPool pool(4);
    invgen::GenStats poolStats;
    auto pooled =
        invgen::generateStreaming(reader, {}, &poolStats, &pool);
    EXPECT_EQ(pooled.keys(), batch.keys());
    EXPECT_EQ(poolStats.candidatesTried, batchStats.candidatesTried);
}

TEST(TraceStoreStreaming, CorpusViolationsMatchInMemory)
{
    // Train on one workload, scan others: the streaming chunk scan
    // must report exactly the in-memory violation set.
    auto training = workloads::run(workloads::byName("basicmath"));
    auto model = invgen::generate({&training}, {}, nullptr, nullptr);

    std::vector<trace::TraceBuffer> corpus;
    std::vector<trace::NamedTrace> named;
    for (const char *name : {"gzip", "mcf", "quake"}) {
        corpus.push_back(workloads::run(workloads::byName(name)));
        named.push_back(trace::NamedTrace{name, corpus.back()});
    }
    std::string path = tmpPath("scan.v2");
    trace::saveTraceSet(path, named, 256);

    sci::CompiledModel compiled(model);
    auto inMemory = sci::corpusViolations(compiled, corpus, nullptr);
    EXPECT_FALSE(inMemory.empty());

    trace::TraceSetReader reader(path);
    EXPECT_EQ(sci::corpusViolations(compiled, reader, nullptr),
              inMemory);
    support::ThreadPool pool(4);
    EXPECT_EQ(sci::corpusViolations(compiled, reader, &pool),
              inMemory);
    // The interpreted oracle, one trace at a time.
    std::set<size_t> interpreted;
    for (const auto &trace : corpus) {
        for (size_t idx : sci::findViolations(
                 model, trace, sci::EvalMode::Interpreted))
            interpreted.insert(idx);
    }
    EXPECT_EQ(interpreted, inMemory);
}

TEST(TraceStoreStreaming, PipelineMatchesInMemory)
{
    // The persisted (out-of-core) pipeline must produce the same
    // model and identification results as the in-memory run, for any
    // chunk size and job count.
    core::PipelineConfig base;
    base.workloadNames = {"basicmath", "gzip"};
    base.bugIds = {"b1", "b4"};
    base.validationPrograms = 4;
    base.runInference = false;

    core::PipelineResult inMemory = core::runPipeline(base);

    core::PipelineConfig persisted = base;
    persisted.artifactDir = tmpPath("stream-artifacts");
    persisted.traceChunkRecords = 300; // force several chunks
    core::PipelineResult streamed = core::runPipeline(persisted);

    EXPECT_EQ(streamed.model.keys(), inMemory.model.keys());
    EXPECT_EQ(streamed.traceRecords, inMemory.traceRecords);
    EXPECT_EQ(streamed.validationViolations,
              inMemory.validationViolations);
    EXPECT_EQ(streamed.database.sciIndices(),
              inMemory.database.sciIndices());

    core::PipelineConfig parallel = persisted;
    parallel.artifactDir = tmpPath("stream-artifacts-jobs");
    parallel.jobs = 4;
    core::PipelineResult pooled = core::runPipeline(parallel);
    EXPECT_EQ(pooled.model.keys(), inMemory.model.keys());
    EXPECT_EQ(pooled.validationViolations,
              inMemory.validationViolations);

    // The persisted trace artifacts of the two runs are themselves
    // byte-identical, jobs or not.
    EXPECT_EQ(readFile(persisted.artifactDir + "/traces.bin"),
              readFile(parallel.artifactDir + "/traces.bin"));
    EXPECT_EQ(readFile(persisted.artifactDir + "/validation.bin"),
              readFile(parallel.artifactDir + "/validation.bin"));

    // Streaming stages record their resident-trace high water.
    bool sawGauge = false;
    for (const auto &stage : streamed.stages) {
        EXPECT_GT(stage.maxRssKb, 0u) << stage.name;
        if (stage.traceResidentPeak > 0)
            sawGauge = true;
    }
    EXPECT_TRUE(sawGauge);
}

TEST(TraceStoreStreaming, ValidationCorpusToStoreMatchesInMemory)
{
    auto inMemory = workloads::validationCorpus(3, 0x5eed, nullptr);
    std::string path = tmpPath("validation.v2");
    auto counts =
        workloads::validationCorpusToStore(path, 3, 0x5eed, nullptr);
    ASSERT_EQ(counts.size(), 3u);

    trace::TraceSetReader reader(path);
    auto stored = reader.readAll(nullptr);
    ASSERT_EQ(stored.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(stored[i].name,
                  "random-" + std::to_string(i));
        ASSERT_EQ(stored[i].trace.size(), inMemory[i].size());
        EXPECT_EQ(counts[i], inMemory[i].size());
        for (size_t r = 0; r < stored[i].trace.size(); ++r) {
            ASSERT_EQ(stored[i].trace.records()[r].pre,
                      inMemory[i].records()[r].pre);
        }
    }
}

} // namespace
} // namespace scif
