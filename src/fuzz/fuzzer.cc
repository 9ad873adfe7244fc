#include "fuzzer.hh"

#include <algorithm>
#include <cerrno>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/ioerror.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace scif::fuzz {

namespace {

namespace fs = std::filesystem;

/** What one corpus program leaves behind. Its source and image die
 *  with its task, so a long campaign holds only these. */
struct Outcome
{
    Repro repro;               ///< repro.divergence set if it diverged
    uint64_t killMask = 0;     ///< with mutation coverage
    std::exception_ptr error;  ///< the I/O failure that stopped it
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw support::IoError(path, "cannot read '" + path + "'", errno);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (out)
        out << text;
    out.close();
    if (!out)
        throw support::IoError(path, "cannot write '" + path + "'", errno);
}

void
makeDir(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        throw support::IoError(dir, "cannot create directory '" + dir + "'",
                               ec.value());
    }
}

/** The *.s programs of a replay directory, in name order. */
std::vector<std::string>
replayPaths(const std::string &dir)
{
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".s")
            paths.push_back(entry.path().string());
    }
    if (ec) {
        throw support::IoError(
            dir, "cannot read replay directory '" + dir + "'", ec.value());
    }
    if (paths.empty()) {
        throw support::IoError(
            dir, "replay directory '" + dir + "' contains no .s programs");
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

bool
FuzzResult::ok() const
{
    if (!repros.empty())
        return false;
    if (coverageRan && !coverage.allTable1Killed())
        return false;
    return true;
}

std::string
FuzzResult::render() const
{
    std::string out;
    out += "differential fuzz report\n";
    out += "========================\n";
    out += format("programs: %u\n", programs);
    out += format("divergences: %zu\n", repros.size());
    for (const Repro &r : repros) {
        out += format("  [%04u] %s: step %llu, %s\n", r.index,
                      r.name.c_str(),
                      (unsigned long long)r.divergence.step,
                      r.divergence.what.c_str());
    }
    if (coverageRan) {
        out += "\n";
        out += coverage.render();
    }
    out += format("\nverdict: %s\n", ok() ? "PASS" : "FAIL");
    return out;
}

FuzzResult
runFuzz(const FuzzConfig &config, support::ThreadPool *pool)
{
    const bool replay = !config.replayDir.empty();
    std::vector<std::string> paths;
    if (replay)
        paths = replayPaths(config.replayDir);
    const size_t count = replay ? paths.size() : config.count;

    std::string corpusDir;
    if (!config.artifactDir.empty() && !replay) {
        corpusDir = config.artifactDir + "/corpus";
        makeDir(corpusDir);
    }

    DiffConfig dc;
    dc.mutations = config.mutations;
    dc.memBytes = config.gen.memBytes;
    dc.maxInsns = config.maxInsns;
    dc.maxSteps = config.maxInsns * 2;

    MutCovConfig mc;
    mc.memBytes = config.gen.memBytes;
    mc.maxInsns = config.maxInsns;

    // Task i takes program i from source to outcome: generate it from
    // (seed, i) or read replay file i, save it, co-simulate, shrink a
    // divergence and score its kills. Nothing a task does depends on
    // another, so the outcomes are the same for any pool width.
    std::vector<Outcome> outcomes(count);
    support::parallelFor(pool, count, [&](size_t i) {
        Outcome &out = outcomes[i];
        try {
            GeneratedProgram gen;
            std::string name, source;
            if (replay) {
                name = fs::path(paths[i]).stem().string();
                source = readFile(paths[i]);
            } else {
                gen = generate(config.gen, config.seed, uint32_t(i));
                name = gen.name;
                source = gen.source();
            }
            if (!corpusDir.empty()) {
                writeFile(format("%s/prog_%04zu.s", corpusDir.c_str(), i),
                          source);
            }
            assembler::Result assembled = assembler::assemble(source);
            if (!assembled.ok) {
                std::string errors = join(assembled.errors, "; ");
                if (!replay) {
                    panic("generated program '%s' does not assemble: %s",
                          name.c_str(), errors.c_str());
                }
                throw support::IoError(
                    paths[i],
                    "'" + paths[i] + "' does not assemble: " + errors);
            }

            Divergence divergence = diffProgram(assembled.program, dc);
            if (divergence) {
                out.repro.index = uint32_t(i);
                out.repro.name = name;
                if (replay) {
                    out.repro.divergence = divergence;
                    out.repro.source = source;
                } else {
                    ShrinkResult minimal = shrink(gen, dc);
                    out.repro.divergence = minimal.divergence;
                    out.repro.source = minimal.source;
                }
            }
            if (config.mutationCoverage)
                out.killMask = killMask(assembled.program, mc);
        } catch (...) {
            out.error = std::current_exception();
        }
    });

    // The lowest-index failure is reported, whichever task hit its
    // failure first.
    FuzzResult result;
    result.programs = uint32_t(count);
    std::vector<uint64_t> masks;
    masks.reserve(count);
    for (Outcome &out : outcomes) {
        if (out.error)
            std::rethrow_exception(out.error);
        if (out.repro.divergence)
            result.repros.push_back(std::move(out.repro));
        masks.push_back(out.killMask);
    }
    if (config.mutationCoverage) {
        result.coverage = tallyCoverage(masks);
        result.coverageRan = true;
    }

    if (!config.artifactDir.empty()) {
        const std::string &dir = config.artifactDir;
        makeDir(dir);
        writeFile(dir + "/fuzz_report.txt", result.render());
        for (const Repro &r : result.repros) {
            writeFile(format("%s/repro_%04u.s", dir.c_str(), r.index),
                      r.source);
        }
        if (result.coverageRan) {
            writeFile(dir + "/mutation_coverage.txt",
                      result.coverage.render());
            std::string survivors;
            for (const std::string &id : result.coverage.survivors())
                survivors += id + "\n";
            writeFile(dir + "/surviving_mutants.txt", survivors);
        }
    }

    return result;
}

} // namespace scif::fuzz
