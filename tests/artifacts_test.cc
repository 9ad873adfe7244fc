/**
 * @file
 * Round-trip and corruption tests for the versioned binary artifacts
 * the staged pipeline writes between phases: trace sets, invariant
 * models, SCI databases, and violation index sets.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "core/artifacts.hh"
#include "invgen/invgen.hh"
#include "sci/identify.hh"
#include "support/ioerror.hh"
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

/** Shrink a file, cutting it mid-record. */
void
truncateFile(const std::string &path, uintmax_t keep)
{
    ASSERT_GT(std::filesystem::file_size(path), keep);
    std::filesystem::resize_file(path, keep);
}

/** Overwrite the bytes at @p offset with @p value. */
template <typename T>
void
patch(const std::string &path, std::streamoff offset, T value)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekp(offset);
    f.write(reinterpret_cast<const char *>(&value), sizeof(value));
    ASSERT_TRUE(f.good()) << path;
}

/**
 * @p load must throw support::IoError naming @p path with @p message
 * in its text; @return the error for further checks.
 */
template <typename Fn>
support::IoError
expectRejected(Fn &&load, const std::string &path, const char *message)
{
    try {
        load();
    } catch (const support::IoError &e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
            << e.what();
        EXPECT_EQ(e.path(), path);
        return e;
    }
    ADD_FAILURE() << "expected support::IoError (" << message << ")";
    return support::IoError(path, "not thrown");
}

std::vector<trace::NamedTrace>
smallTraceSet()
{
    std::vector<trace::NamedTrace> traces;
    for (const char *name : {"basicmath", "twolf"}) {
        traces.push_back(
            {name, workloads::run(workloads::byName(name))});
    }
    return traces;
}

TEST(Artifacts, TraceSetRoundTrip)
{
    auto traces = smallTraceSet();
    std::string path = tmpPath("traces.bin");
    trace::saveTraceSet(path, traces);
    auto loaded = trace::TraceSetReader(path).readAll(nullptr);

    ASSERT_EQ(loaded.size(), traces.size());
    for (size_t t = 0; t < traces.size(); ++t) {
        EXPECT_EQ(loaded[t].name, traces[t].name);
        const auto &a = traces[t].trace.records();
        const auto &b = loaded[t].trace.records();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].point.id(), b[i].point.id());
            EXPECT_EQ(a[i].index, b[i].index);
            EXPECT_EQ(a[i].fused, b[i].fused);
            EXPECT_EQ(a[i].pre, b[i].pre);
            EXPECT_EQ(a[i].post, b[i].post);
        }
    }
}

TEST(Artifacts, InvariantSetBinaryRoundTrip)
{
    auto buf = workloads::run(workloads::byName("basicmath"));
    auto model =
        invgen::generate({&buf}, invgen::Config(), nullptr, nullptr);
    ASSERT_GT(model.size(), 0u);

    std::string path = tmpPath("model.bin");
    model.saveBinary(path);
    auto loaded = invgen::InvariantSet::loadBinary(path);

    ASSERT_EQ(loaded.size(), model.size());
    EXPECT_EQ(loaded.keys(), model.keys());
    EXPECT_EQ(loaded.variableCount(), model.variableCount());
    // Insertion order is part of the contract: indices into all()
    // are the identifiers the SCI database stores.
    for (size_t i = 0; i < model.size(); ++i)
        EXPECT_EQ(loaded.all()[i].str(), model.all()[i].str());
}

TEST(Artifacts, SciDatabaseRoundTrip)
{
    sci::SciDatabase db;
    sci::IdentificationResult r1;
    r1.bugId = "b6";
    r1.trueSci = {3, 17};
    r1.falsePositives = {4};
    r1.notInvariant = {9, 10, 11};
    db.addResult(r1);
    sci::IdentificationResult r2;
    r2.bugId = "b10";
    r2.trueSci = {17, 42};
    r2.falsePositives = {};
    r2.notInvariant = {2};
    db.addResult(r2);

    std::string path = tmpPath("scidb.bin");
    db.saveBinary(path);
    auto loaded = sci::SciDatabase::loadBinary(path, 43);

    EXPECT_EQ(loaded.sciIndices(), db.sciIndices());
    EXPECT_EQ(loaded.nonSciIndices(), db.nonSciIndices());
    ASSERT_EQ(loaded.results().size(), db.results().size());
    for (size_t i = 0; i < db.results().size(); ++i) {
        EXPECT_EQ(loaded.results()[i].bugId, db.results()[i].bugId);
        EXPECT_EQ(loaded.results()[i].trueSci,
                  db.results()[i].trueSci);
        EXPECT_EQ(loaded.results()[i].falsePositives,
                  db.results()[i].falsePositives);
        EXPECT_EQ(loaded.results()[i].notInvariant,
                  db.results()[i].notInvariant);
    }
    EXPECT_EQ(loaded.provenance(17), db.provenance(17));
}

TEST(Artifacts, IndexSetRoundTrip)
{
    std::set<size_t> indices = {0, 5, 42, 1000000};
    std::string path = tmpPath("violations.bin");
    core::saveIndexSet(path, indices);
    EXPECT_EQ(core::loadIndexSet(path, 1000001), indices);

    core::saveIndexSet(path, {});
    EXPECT_TRUE(core::loadIndexSet(path, 0).empty());
}

// The ArtifactsDeathTest cases date from loaders that exited the
// process; the loaders now throw, and the suite keeps its name so the
// test ids stay stable.

TEST(ArtifactsDeathTest, TruncatedIndexSetRejected)
{
    std::string path = tmpPath("truncated.bin");
    core::saveIndexSet(path, {1, 2, 3});
    truncateFile(path, 12); // header survives, payload cut mid-u64
    auto e = expectRejected([&] { core::loadIndexSet(path, 4); }, path,
                            "truncated");
    // The offset names the u64 count that the cut split.
    EXPECT_TRUE(e.hasOffset());
    EXPECT_EQ(e.offset(), 8u);
}

TEST(Artifacts, TruncatedTraceSetRejected)
{
    // Trace-set loads report I/O failures as structured errors with
    // the path, cause and offset instead of aborting the process.
    auto traces = smallTraceSet();
    std::string path = tmpPath("truncated-traces.bin");
    trace::saveTraceSet(path, traces);
    truncateFile(path, std::filesystem::file_size(path) / 2);
    auto e = expectRejected([&] { trace::TraceSetReader reader(path); },
                            path, "truncated");
    EXPECT_TRUE(e.hasOffset());
}

TEST(ArtifactsDeathTest, TruncatedModelRejected)
{
    auto buf = workloads::run(workloads::byName("basicmath"));
    auto model =
        invgen::generate({&buf}, invgen::Config(), nullptr, nullptr);
    std::string path = tmpPath("truncated-model.bin");
    model.saveBinary(path);
    truncateFile(path, std::filesystem::file_size(path) - 3);
    auto e = expectRejected(
        [&] { invgen::InvariantSet::loadBinary(path); }, path,
        "truncated");
    EXPECT_TRUE(e.hasOffset());
}

TEST(ArtifactsDeathTest, WrongMagicRejected)
{
    std::string path = tmpPath("not-an-artifact.bin");
    std::ofstream(path) << "this is not a binary artifact at all";
    auto e = expectRejected(
        [&] { sci::SciDatabase::loadBinary(path, 1); }, path, "not a");
    EXPECT_EQ(e.offset(), 0u);
}

TEST(Artifacts, WrongKindRejected)
{
    // An index-set artifact is not a trace set: the magic mismatches,
    // and the reader says so before it judges the file's size.
    std::string path = tmpPath("kind-mismatch.bin");
    core::saveIndexSet(path, {1});
    expectRejected([&] { trace::TraceSetReader reader(path); }, path,
                   "not a");
}

TEST(Artifacts, SciDatabaseCountBeyondFileRejected)
{
    // One result whose first index list claims 2^32 entries: the file
    // ends first, and the loader says so without sizing 32 GiB.
    sci::SciDatabase db;
    sci::IdentificationResult r;
    r.bugId = "b6";
    db.addResult(r);
    std::string path = tmpPath("scidb-count.bin");
    db.saveBinary(path);
    // Header (8), result count (8), bug id (4 + 2), trueSci count.
    constexpr std::streamoff trueSciCountAt = 8 + 8 + 4 + 2;
    patch<uint16_t>(path, trueSciCountAt + 4, 1); // count = 1 << 32
    auto e = expectRejected(
        [&] { sci::SciDatabase::loadBinary(path, 1); }, path,
        "truncated");
    EXPECT_EQ(e.offset(), std::filesystem::file_size(path));
}

TEST(Artifacts, SciDatabaseIndexOutOfRangeRejected)
{
    // serve, infer and audit index the model with every SCI index; the
    // loader rejects one at or beyond the model's size at its offset.
    sci::SciDatabase db;
    sci::IdentificationResult r;
    r.bugId = "b1";
    r.trueSci = {3, 7};
    db.addResult(r);
    std::string path = tmpPath("scidb-index.bin");
    db.saveBinary(path);
    EXPECT_EQ(sci::SciDatabase::loadBinary(path, 8).sciIndices(),
              db.sciIndices());

    // Header (8), result count (8), bug id (4 + 2), trueSci count (8).
    constexpr std::streamoff firstSciAt = 8 + 8 + 4 + 2 + 8;
    auto e = expectRejected(
        [&] { sci::SciDatabase::loadBinary(path, 7); }, path,
        "index 7 is beyond the 7-invariant model");
    EXPECT_EQ(e.offset(), uint64_t(firstSciAt + 8));

    patch<uint64_t>(path, firstSciAt, 1000000000);
    e = expectRejected([&] { sci::SciDatabase::loadBinary(path, 8); },
                       path, "index 1000000000 is beyond");
    EXPECT_EQ(e.offset(), uint64_t(firstSciAt));
}

TEST(Artifacts, IndexSetIndexOutOfRangeRejected)
{
    std::string path = tmpPath("violations-index.bin");
    core::saveIndexSet(path, {2, 9});
    EXPECT_EQ(core::loadIndexSet(path, 10), (std::set<size_t>{2, 9}));

    // Header (8), count (8), then the indices in ascending order.
    constexpr std::streamoff firstAt = 8 + 8;
    auto e = expectRejected([&] { core::loadIndexSet(path, 9); }, path,
                            "index 9 is beyond the 9-invariant model");
    EXPECT_EQ(e.offset(), uint64_t(firstAt + 8));

    patch<uint64_t>(path, firstAt, 1000000000);
    e = expectRejected([&] { core::loadIndexSet(path, 10); }, path,
                       "index 1000000000 is beyond");
    EXPECT_EQ(e.offset(), uint64_t(firstAt));
}

TEST(ArtifactsDeathTest, TrailingGarbageRejected)
{
    std::string path = tmpPath("trailing.bin");
    core::saveIndexSet(path, {1, 2});
    auto size = std::filesystem::file_size(path);
    std::ofstream(path, std::ios::app | std::ios::binary) << "XX";
    auto e = expectRejected([&] { core::loadIndexSet(path, 3); }, path,
                            "trailing");
    EXPECT_EQ(e.offset(), size);
}

TEST(ArtifactsDeathTest, MissingFileRejected)
{
    std::string path = tmpPath("does-not-exist.bin");
    auto e = expectRejected([&] { core::loadIndexSet(path, 1); }, path,
                            "cannot open");
    EXPECT_EQ(e.errnum(), ENOENT);
    EXPECT_FALSE(e.hasOffset());
}

/**
 * A one-invariant model file. Its first invariant starts at byte 16
 * (after the 8-byte header and the u64 count) with the u16 point id;
 * the comparison byte follows, then the left operand, whose first
 * variable id sits 6 bytes in (after isConst and constVal).
 */
constexpr std::streamoff pointIdAt = 16;
constexpr std::streamoff lhsVarAt = 16 + 2 + 1 + 1 + 4;

std::string
oneInvariantModel(const std::string &name)
{
    invgen::InvariantSet model;
    model.add(expr::Invariant::parse("l.add -> GPR3 == 0"));
    std::string path = tmpPath(name);
    model.saveBinary(path);
    EXPECT_EQ(invgen::InvariantSet::loadBinary(path).size(), 1u);
    return path;
}

TEST(Artifacts, ModelVariableIdOutOfRangeRejected)
{
    // A variable id beyond the schema would index past every record's
    // value array; the loader rejects it and names where it sits.
    std::string path = oneInvariantModel("bad-var.bin");
    patch<uint16_t>(path, lhsVarAt, 0xffff);
    auto e = expectRejected(
        [&] { invgen::InvariantSet::loadBinary(path); }, path,
        "variable id 65535");
    EXPECT_EQ(e.offset(), uint64_t(lhsVarAt));

    patch<uint16_t>(path, lhsVarAt, trace::numVars);
    expectRejected([&] { invgen::InvariantSet::loadBinary(path); },
                   path, "variable id");
}

TEST(Artifacts, ModelPointIdOutOfRangeRejected)
{
    std::string path = oneInvariantModel("bad-point.bin");

    // A mnemonic that is neither an instruction nor the interrupt
    // slot.
    patch<uint16_t>(path, pointIdAt, 0xffff);
    auto e = expectRejected(
        [&] { invgen::InvariantSet::loadBinary(path); }, path,
        "point id 65535");
    EXPECT_EQ(e.offset(), uint64_t(pointIdAt));

    // A real mnemonic qualified by an undefined exception.
    uint16_t badException =
        uint16_t(trace::Point::insn(isa::Mnemonic::L_ADD).id() | 0x1f);
    patch<uint16_t>(path, pointIdAt, badException);
    e = expectRejected([&] { invgen::InvariantSet::loadBinary(path); },
                       path, "point id");
    EXPECT_EQ(e.offset(), uint64_t(pointIdAt));
}

} // namespace
} // namespace scif
