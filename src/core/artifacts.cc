#include "artifacts.hh"

#include <filesystem>

#include "support/binio.hh"
#include "support/ioerror.hh"
#include "support/strings.hh"

namespace scif::core {

namespace {

constexpr uint32_t indexMagic = 0x53434958; // "SCIX"
constexpr uint32_t indexVersion = 1;

} // namespace

void
ArtifactPaths::ensureDir() const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        throw support::IoError(
            dir_, "cannot create artifact directory '" + dir_ + "'",
            ec.value());
    }
}

bool
ArtifactPaths::exists(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::exists(path, ec);
}

void
requireArtifact(const std::string &path, const char *producer)
{
    if (!ArtifactPaths::exists(path)) {
        throw MissingArtifact("missing artifact " + path +
                              " (run 'scifinder " + producer +
                              "' first)");
    }
}

void
saveIndexSet(const std::string &path, const std::set<size_t> &indices)
{
    support::BinWriter out(path, indexMagic, indexVersion);
    out.u64(indices.size());
    for (size_t idx : indices)
        out.u64(idx);
    out.close();
}

std::set<size_t>
loadIndexSet(const std::string &path, size_t modelSize)
{
    support::BinReader in(path, indexMagic, indexVersion,
                          "index set");
    std::set<size_t> out;
    uint64_t count = in.u64();
    if (count > (1ull << 32)) {
        in.corrupt(sizeof(count),
                   format("%llu entries", (unsigned long long)count));
    }
    for (uint64_t i = 0; i < count; ++i) {
        uint64_t idx = in.u64();
        if (idx >= modelSize) {
            in.corrupt(sizeof(idx),
                       format("index %llu is beyond the %zu-invariant "
                              "model",
                              (unsigned long long)idx, modelSize));
        }
        out.insert(size_t(idx));
    }
    in.expectEof();
    return out;
}

} // namespace scif::core
