/**
 * @file
 * The scifinder command-line tool: the library's functionality as a
 * standalone program.
 *
 * The pipeline phases are separate subcommands over a shared artifact
 * directory, so any phase can be re-run alone from its predecessors'
 * persisted outputs. Each one fills a core::PipelineConfig, calls the
 * phase function that owns the phase's artifacts (core/scifinder.hh)
 * and prints what it found:
 *
 *   scifinder run       [--artifact-dir D] ...  all phases
 *   scifinder generate  --artifact-dir D ...    phase 1
 *   scifinder optimize  --artifact-dir D        phase 2
 *   scifinder identify  --artifact-dir D ...    phase 3
 *   scifinder infer     --artifact-dir D ...    phase 4
 *
 * plus the analyses (analyze, audit), the checking service (serve),
 * the simulator fuzzer (fuzz), the trace-set toolbelt (trace), the
 * catalogs (workloads, bugs, errata, properties), exec, and the
 * in-memory `identify bug...` mode, which runs phases 1-3 without
 * artifacts.
 *
 * Two tables below, flags[] and commands[], say which flags each
 * command reads. The parser, the usage text and every per-command
 * usage line come from them, so a flag that a command does not read
 * is a usage error rather than silently ignored.
 *
 * Exit status: 0 on success, 1 for a negative result (traces differ,
 * an assertion fired, an unsound audit) or a missing artifact, 2 on
 * usage errors, and 3 when reading or writing a file fails or an
 * artifact is corrupt.
 */

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "bugs/classification.hh"
#include "core/artifacts.hh"
#include "core/scifinder.hh"
#include "fuzz/fleet.hh"
#include "fuzz/fuzzer.hh"
#include "monitor/overhead.hh"
#include "monitor/service.hh"
#include "sci/audit.hh"
#include "support/ioerror.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/threadpool.hh"
#include "trace/store.hh"

namespace {

using namespace scif;

/** What follows a flag on the command line. */
enum class Kind { Switch, Number, Text };

/** The most threads a thread-count flag may ask for; 0 still means
 *  one per core. */
constexpr uint64_t maxThreads = 256;

constexpr uint64_t u32Max = UINT32_MAX;
constexpr uint64_t u64Max = UINT64_MAX;
constexpr uint64_t sizeMax = SIZE_MAX;

/**
 * One flag and the commands that read it. A name may have one row per
 * meaning (fuzz --count counts programs, trace extract --count
 * records); a command reads the row that lists it.
 */
struct Flag
{
    const char *name;
    const char *commands; ///< the commands that read it, comma-separated
    Kind kind;
    const char *value;    ///< placeholder for the value in usage lines
    uint64_t min, max;    ///< accepted range of a Number
    const char *help;
};

const Flag flags[] = {
    {"--artifact-dir",
     "run,generate,optimize,identify,infer,analyze,audit,fuzz,serve",
     Kind::Text, "D", 0, 0,
     "artifact directory (fuzz: corpus and reports)"},
    {"--jobs", "run,generate,identify,infer,analyze,audit,fuzz,serve",
     Kind::Number, "N", 0, maxThreads,
     "worker threads, 0 = all cores (default 1)"},
    {"--validation", "run,identify", Kind::Number, "N", 0, sizeMax,
     "validation corpus programs (default 24)"},
    {"--chunk-records",
     "run,generate,identify,trace capture,trace extract,trace merge",
     Kind::Number, "N", 1, u32Max,
     "records per trace-set chunk (default 4096)"},
    {"--no-inference", "run", Kind::Switch, nullptr, 0, 0,
     "stop after phase 3"},
    {"--interpreted-sim", "run,generate,identify,trace capture",
     Kind::Switch, nullptr, 0, 0,
     "simulate on the interpreted front end, the oracle of the "
     "predecoded one (same artifacts)"},
    {"--json", "analyze", Kind::Switch, nullptr, 0, 0,
     "print the report as JSON on stdout"},
    {"--audit-traces", "analyze", Kind::Switch, nullptr, 0, 0,
     "also scan the training traces for violations"},
    {"--seed", "fuzz,serve", Kind::Number, "S", 0, u64Max,
     "seed of the generated programs (default 1)"},
    {"--count", "fuzz", Kind::Number, "N", 0, u32Max,
     "fuzz: programs to generate (default 256)"},
    {"--mutation-coverage", "fuzz", Kind::Switch, nullptr, 0, 0,
     "also score mutation kills; fail unless all are killed"},
    {"--replay", "fuzz", Kind::Text, "D", 0, 0,
     "replay the *.s programs of D instead of generating"},
    {"--fleet", "fuzz", Kind::Number, "N", 0, maxThreads,
     "run N work-stealing shards, 0 = all cores (same artifacts "
     "for any N; not with --replay)"},
    {"--grain", "fuzz", Kind::Number, "N", 1, u32Max,
     "seeds a fleet shard claims at a time (default 16)"},
    {"--shards", "serve", Kind::Number, "N", 0, maxThreads,
     "checker shards, 0 = all cores (default 1)"},
    {"--queue-batches", "serve", Kind::Number, "N", 1, sizeMax,
     "per-shard queue bound in batches (default 64)"},
    {"--batch-records", "serve", Kind::Number, "N", 1, sizeMax,
     "records per batch (default 256)"},
    {"--stats", "serve", Kind::Switch, nullptr, 0, 0,
     "print service telemetry"},
    {"--workloads", "serve", Kind::Switch, nullptr, 0, 0,
     "one session per training workload"},
    {"--fuzz", "serve", Kind::Number, "N", 0, u32Max,
     "N sessions of generated programs"},
    {"--stream", "trace dump,trace extract", Kind::Text, "S", 0, 0,
     "the stream to read (dump: every stream by default)"},
    {"--limit", "trace dump", Kind::Number, "N", 0, sizeMax,
     "records per stream (default 16)"},
    {"--vars", "trace dump", Kind::Text, "A,B", 0, 0,
     "variables to print (default PC,INSN,OPA,OPB,OPDEST)"},
    {"--points", "trace count", Kind::Switch, nullptr, 0, 0,
     "per-point histogram instead of stream totals"},
    {"--from", "trace extract", Kind::Number, "N", 0, sizeMax,
     "first record to copy (default 0)"},
    {"--count", "trace extract", Kind::Number, "N", 0, sizeMax,
     "trace extract: records to copy (default all)"},
};

struct Args;

/** One command: what it takes and the function that runs it. */
struct Command
{
    const char *name;       ///< one word, or "trace <sub>"
    const char *operands;   ///< operand synopsis ("" = none)
    size_t minOperands, maxOperands;
    const char *required;   ///< a flag it cannot run without, or null
    const char *summary;
    int (*run)(const Args &);
};

/** @return true if @p cmd reads @p flag. */
bool
reads(const Command &cmd, const Flag &flag)
{
    for (const auto &name : split(flag.commands, ','))
        if (name == cmd.name)
            return true;
    return false;
}

/** A command line parsed against the flag table. */
struct Args
{
    const Command *cmd = nullptr;
    std::vector<std::string> operands;
    /** The flags given, with their values ("" for a switch). */
    std::map<std::string, std::string> values;
    /** The Number flags given, parsed. */
    std::map<std::string, uint64_t> numbers;

    bool has(const std::string &flag) const
    {
        return values.contains(flag);
    }

    std::string
    text(const std::string &flag) const
    {
        auto it = values.find(flag);
        return it == values.end() ? std::string() : it->second;
    }

    uint64_t
    number(const std::string &flag, uint64_t fallback) const
    {
        auto it = numbers.find(flag);
        return it == numbers.end() ? fallback : it->second;
    }
};

/** A flag as usage lines show it: "--jobs N". */
std::string
flagWord(const Flag &flag)
{
    std::string word = flag.name;
    if (flag.kind != Kind::Switch) {
        word += ' ';
        word += flag.value;
    }
    return word;
}

/** The words of @p cmd's usage line: its name, flags and operands. */
std::vector<std::string>
synopsis(const Command &cmd)
{
    std::vector<std::string> words = {cmd.name};
    for (const Flag &flag : flags) {
        if (!reads(cmd, flag))
            continue;
        std::string word = flagWord(flag);
        bool required =
            cmd.required && std::strcmp(cmd.required, flag.name) == 0;
        words.push_back(required ? word : format("[%s]", word.c_str()));
    }
    if (*cmd.operands)
        words.push_back(cmd.operands);
    return words;
}

/** Print @p words after @p lead, wrapped at 78 columns with the
 *  continuation lines indented by @p indent. */
void
printWrapped(const std::string &lead,
             const std::vector<std::string> &words, int indent)
{
    std::fputs(lead.c_str(), stderr);
    size_t column = lead.size();
    for (size_t i = 0; i < words.size(); ++i) {
        if (i > 0 && column + 1 + words[i].size() > 78) {
            std::fprintf(stderr, "\n%*s", indent, "");
            column = size_t(indent);
        } else if (i > 0) {
            std::fputc(' ', stderr);
            ++column;
        }
        std::fputs(words[i].c_str(), stderr);
        column += words[i].size();
    }
    std::fputc('\n', stderr);
}

/** Print @p args' command usage line; @return the usage exit status. */
int
usageError(const Args &args)
{
    printWrapped("usage: scifinder ", synopsis(*args.cmd), 8);
    return 2;
}

/**
 * Parse a flag value: decimal or 0x-prefixed hex digits only, with no
 * sign or whitespace. @return false on anything else or on a value
 * beyond 64 bits.
 */
bool
parseNumber(const std::string &text, uint64_t *out)
{
    bool hex = text.size() > 2 && text[0] == '0' &&
               (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(first, last, *out, hex ? 16 : 10);
    return ec == std::errc() && end == last;
}

/**
 * Parse the words after the command name into @p args, against the
 * flag table. @return false, after saying why, on a flag that
 * args.cmd does not read, a missing or malformed value, a number out
 * of its range, a missing required flag or the wrong operand count.
 */
bool
parse(const std::vector<std::string> &words, Args &args)
{
    const Command &cmd = *args.cmd;
    for (size_t i = 0; i < words.size(); ++i) {
        const std::string &word = words[i];
        if (word.size() < 2 || word[0] != '-') {
            args.operands.push_back(word);
            continue;
        }
        const Flag *flag = nullptr;
        for (const Flag &f : flags) {
            if (word == f.name && reads(cmd, f)) {
                flag = &f;
                break;
            }
        }
        if (flag == nullptr) {
            std::fprintf(stderr, "scifinder %s does not read %s\n",
                         cmd.name, word.c_str());
            return false;
        }
        if (flag->kind == Kind::Switch) {
            args.values[word] = "";
            continue;
        }
        if (i + 1 == words.size()) {
            std::fprintf(stderr, "%s needs a value\n", flag->name);
            return false;
        }
        const std::string &value = words[++i];
        if (flag->kind == Kind::Number) {
            uint64_t n = 0;
            if (!parseNumber(value, &n)) {
                std::fprintf(stderr, "%s expects a number, got '%s'\n",
                             flag->name, value.c_str());
                return false;
            }
            if (n < flag->min || n > flag->max) {
                std::fprintf(stderr,
                             "%s expects a number from %llu to %llu, "
                             "got '%s'\n",
                             flag->name, (unsigned long long)flag->min,
                             (unsigned long long)flag->max,
                             value.c_str());
                return false;
            }
            args.numbers[word] = n;
        }
        args.values[word] = value;
    }
    if (cmd.required && !args.has(cmd.required)) {
        std::fprintf(stderr, "scifinder %s needs %s\n", cmd.name,
                     cmd.required);
        return false;
    }
    return args.operands.size() >= cmd.minOperands &&
           args.operands.size() <= cmd.maxOperands;
}

/** The pipeline settings a command line gives. */
core::PipelineConfig
pipelineConfig(const Args &args)
{
    core::PipelineConfig config;
    config.artifactDir = args.text("--artifact-dir");
    config.jobs = args.number("--jobs", config.jobs);
    config.validationPrograms =
        args.number("--validation", config.validationPrograms);
    config.traceChunkRecords = uint32_t(
        args.number("--chunk-records", config.traceChunkRecords));
    config.interpretedSim = args.has("--interpreted-sim");
    config.runInference = !args.has("--no-inference");
    return config;
}

/** Pool for a subcommand's own fan-outs (null = serial). */
std::unique_ptr<support::ThreadPool>
makePool(size_t jobs)
{
    jobs = support::ThreadPool::resolveJobs(jobs);
    if (jobs <= 1)
        return nullptr;
    return std::make_unique<support::ThreadPool>(jobs);
}

/** Open a text artifact for writing; throws support::IoError. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw support::IoError(
            path, "cannot open '" + path + "' for writing", errno);
    }
    return out;
}

/** Load the optimized model of an artifact directory. */
invgen::InvariantSet
loadModel(const core::ArtifactPaths &paths)
{
    core::requireArtifact(paths.model(), "optimize");
    return invgen::InvariantSet::loadBinary(paths.model());
}

int
cmdWorkloads(const Args &)
{
    TextTable table({"name", "records", "instructions"});
    for (const auto &w : workloads::all()) {
        trace::TraceBuffer buf = workloads::run(w);
        uint64_t insns = 0;
        for (const auto &rec : buf.records())
            insns += rec.fused ? 2 : 1;
        table.addRow({w.name, std::to_string(buf.size()),
                      std::to_string(insns)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdBugs(const Args &)
{
    TextTable table({"id", "set", "source", "synopsis"});
    for (const auto &bug : bugs::all()) {
        table.addRow({bug.id, bug.heldOut ? "held-out" : "Table 1",
                      bug.source, bug.synopsis});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdErrata(const Args &)
{
    TextTable table({"id", "processor", "judged", "assistant",
                     "reproduced", "synopsis"});
    for (const auto &e : bugs::collectedErrata()) {
        auto suggestion = bugs::classifyBySynopsis(e.synopsis);
        table.addRow(
            {e.id, e.processor,
             e.judged == bugs::ErratumClass::Security ? "security"
                                                      : "functional",
             suggestion.suggested == bugs::ErratumClass::Security
                 ? "security"
                 : "functional",
             e.reproducedAs, e.synopsis.substr(0, 52)});
    }
    std::printf("%s", table.render().c_str());
    auto s = bugs::summarizeCollection();
    std::printf("\n%zu collected, %zu security-critical, %zu "
                "reproduced, %zu not reproducible; assistant agrees "
                "on %zu/%zu\n",
                s.collected, s.security, s.reproduced,
                s.notReproducible, s.assistantAgrees, s.collected);
    return 0;
}

int
cmdProperties(const Args &)
{
    TextTable table({"id", "class", "origin", "scope", "description"});
    for (const auto &p : sci::catalog()) {
        std::string scope;
        switch (p.expressibility) {
          case sci::Expressibility::Yes: scope = "in-scope"; break;
          case sci::Expressibility::NotGenerated:
            scope = "not-generated";
            break;
          case sci::Expressibility::Microarch:
            scope = "microarch";
            break;
          case sci::Expressibility::OffCore:
            scope = "off-core";
            break;
        }
        table.addRow({p.id, std::string(sci::propClassName(p.cls)),
                      p.origin, scope, p.description});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

/** Parse a --vars list ("PC,INSN,GPR3") into slot ids. */
bool
parseVarList(const std::string &list, std::vector<uint16_t> *out)
{
    for (const auto &name : split(list, ',')) {
        uint16_t var = trace::varByName(name);
        if (var >= trace::numVars) {
            std::fprintf(stderr, "unknown variable '%s'\n",
                         name.c_str());
            return false;
        }
        out->push_back(var);
    }
    return true;
}

/**
 * Structured I/O diagnostic: path and file offset as separate fields,
 * exit status 3 — distinct from a negative result (1) and usage errors
 * (2), so CI scripts can tell a flaky filesystem or a corrupt artifact
 * from a real regression.
 */
int
ioErrorExit(const support::IoError &e)
{
    std::fprintf(stderr, "scifinder: I/O error: %s\n", e.what());
    std::fprintf(stderr, "  path:   %s\n", e.path().c_str());
    if (e.hasOffset())
        std::fprintf(stderr, "  offset: %llu\n",
                     (unsigned long long)e.offset());
    if (e.errnum())
        std::fprintf(stderr, "  errno:  %d (%s)\n", e.errnum(),
                     std::strerror(e.errnum()));
    return 3;
}

/** Records per chunk of the trace sets a trace command writes. */
uint32_t
chunkRecords(const Args &args)
{
    return uint32_t(
        args.number("--chunk-records", trace::defaultChunkRecords));
}

/** trace capture: run a workload straight into a trace set. */
int
cmdTraceCapture(const Args &args)
{
    const auto &w = workloads::byName(args.operands[0]);
    const std::string &out = args.operands[1];
    trace::TraceSetWriter writer(out, chunkRecords(args));
    writer.beginStream(w.name);
    workloads::runInto(w, {}, args.has("--interpreted-sim"), &writer);
    writer.endStream();
    uint64_t records = writer.totalRecords();
    size_t chunks = writer.streams()[0].chunks.size();
    writer.close();
    std::printf("wrote %llu records in %zu chunks to %s\n",
                (unsigned long long)records, chunks, out.c_str());
    return 0;
}

/** trace dump: print records of a set artifact. */
int
cmdTraceDump(const Args &args)
{
    const std::string &path = args.operands[0];
    std::string stream = args.text("--stream");
    size_t limit = args.number("--limit", 16);
    std::vector<uint16_t> vars;
    if (args.has("--vars") && !parseVarList(args.text("--vars"), &vars))
        return 2;
    if (vars.empty()) {
        vars = {trace::VarId::PC, trace::VarId::INSN,
                trace::VarId::OPA, trace::VarId::OPB,
                trace::VarId::OPDEST};
    }

    trace::TraceSetReader reader(path);
    if (!stream.empty() &&
        reader.findStream(stream) == trace::TraceSetReader::npos) {
        std::fprintf(stderr, "no stream named '%s' in %s\n",
                     stream.c_str(), path.c_str());
        return 1;
    }
    for (size_t s = 0; s < reader.streams().size(); ++s) {
        const trace::StreamInfo &info = reader.streams()[s];
        if (!stream.empty() && info.name != stream)
            continue;
        std::printf("stream %s: %llu records, %zu chunks\n",
                    info.name.c_str(), (unsigned long long)info.records,
                    info.chunks.size());
        trace::ChunkCursor cur(reader, s);
        trace::Record rec;
        for (size_t n = 0; n < limit && cur.next(rec); ++n) {
            std::printf("  %8llu %-16s%s",
                        (unsigned long long)rec.index,
                        rec.point.name().c_str(),
                        rec.fused ? " fused" : "");
            for (uint16_t var : vars) {
                std::printf("  %s %08x->%08x",
                            std::string(trace::varName(var)).c_str(),
                            rec.pre[var], rec.post[var]);
            }
            std::printf("\n");
        }
    }
    return 0;
}

/** trace count: stream totals or a per-point histogram. */
int
cmdTraceCount(const Args &args)
{
    trace::TraceSetReader reader(args.operands[0]);
    if (args.has("--points")) {
        std::map<uint16_t, uint64_t> histogram;
        trace::TraceBuffer chunk;
        for (size_t s = 0; s < reader.streams().size(); ++s) {
            trace::ChunkCursor cur(reader, s);
            while (cur.nextChunk(chunk)) {
                for (const auto &rec : chunk.records())
                    ++histogram[rec.point.id()];
            }
        }
        TextTable table({"point", "records"});
        for (const auto &[id, n] : histogram) {
            table.addRow({trace::Point::fromId(id).name(),
                          std::to_string(n)});
        }
        std::printf("%s", table.render().c_str());
        return 0;
    }
    TextTable table({"stream", "records", "chunks"});
    size_t chunks = 0;
    for (const auto &info : reader.streams()) {
        chunks += info.chunks.size();
        table.addRow({info.name, std::to_string(info.records),
                      std::to_string(info.chunks.size())});
    }
    std::printf("%s", table.render().c_str());
    std::printf("%zu streams, %llu records, %zu chunks\n",
                reader.streams().size(),
                (unsigned long long)reader.totalRecords(), chunks);
    return 0;
}

/**
 * trace diff: record-exact comparison of two set artifacts.
 * Exit 0 = identical, 1 = traces differ, 2 = usage, 3 = I/O error.
 */
int
cmdTraceDiff(const Args &args)
{
    const std::vector<std::string> &paths = args.operands;
    trace::TraceSetReader a(paths[0]);
    trace::TraceSetReader b(paths[1]);

    bool differ = false;
    for (size_t s = 0; s < a.streams().size(); ++s) {
        const trace::StreamInfo &info = a.streams()[s];
        size_t t = b.findStream(info.name);
        if (t == trace::TraceSetReader::npos) {
            std::printf("stream %s: only in %s\n", info.name.c_str(),
                        paths[0].c_str());
            differ = true;
            continue;
        }
        trace::ChunkCursor ca(a, s);
        trace::ChunkCursor cb(b, t);
        trace::Record ra, rb;
        uint64_t pos = 0;
        while (true) {
            bool hasA = ca.next(ra);
            bool hasB = cb.next(rb);
            if (!hasA || !hasB) {
                if (hasA != hasB) {
                    std::printf("stream %s: record counts differ "
                                "(%llu vs %llu)\n",
                                info.name.c_str(),
                                (unsigned long long)info.records,
                                (unsigned long long)b.streams()[t]
                                    .records);
                    differ = true;
                }
                break;
            }
            if (ra.point.id() != rb.point.id() ||
                ra.index != rb.index || ra.fused != rb.fused ||
                ra.pre != rb.pre || ra.post != rb.post) {
                std::printf("stream %s: first difference at record "
                            "%llu (%s vs %s)\n",
                            info.name.c_str(), (unsigned long long)pos,
                            ra.point.name().c_str(),
                            rb.point.name().c_str());
                differ = true;
                break;
            }
            ++pos;
        }
    }
    for (const auto &info : b.streams()) {
        if (a.findStream(info.name) == trace::TraceSetReader::npos) {
            std::printf("stream %s: only in %s\n", info.name.c_str(),
                        paths[1].c_str());
            differ = true;
        }
    }
    if (!differ)
        std::printf("trace sets are identical (%zu streams)\n",
                    a.streams().size());
    return differ ? 1 : 0;
}

/** trace extract: copy one stream (or a range of it) to a new set. */
int
cmdTraceExtract(const Args &args)
{
    const std::string &in = args.operands[0];
    const std::string &out = args.operands[1];
    std::string stream = args.text("--stream");
    uint64_t from = args.number("--from", 0);
    uint64_t count = args.number("--count", sizeMax);
    trace::TraceSetReader reader(in);
    size_t s = reader.findStream(stream);
    if (s == trace::TraceSetReader::npos) {
        std::fprintf(stderr, "no stream named '%s' in %s\n",
                     stream.c_str(), in.c_str());
        return 1;
    }
    trace::TraceSetWriter writer(out, chunkRecords(args));
    writer.beginStream(stream);
    trace::ChunkCursor cur(reader, s);
    trace::Record rec;
    uint64_t pos = 0, written = 0;
    while (written < count && cur.next(rec)) {
        if (pos++ < from)
            continue;
        writer.record(rec);
        ++written;
    }
    writer.endStream();
    writer.close();
    std::printf("extracted %llu records of stream %s to %s\n",
                (unsigned long long)written, stream.c_str(),
                out.c_str());
    return 0;
}

/** trace merge: combine several set artifacts into one set. */
int
cmdTraceMerge(const Args &args)
{
    const std::string &out = args.operands[0];
    std::vector<std::string> inputs(args.operands.begin() + 1,
                                    args.operands.end());
    trace::mergeTraceSets(out, inputs, chunkRecords(args));
    trace::TraceSetReader reader(out);
    std::printf("merged %zu inputs into %s (%zu streams, %llu "
                "records)\n",
                inputs.size(), out.c_str(), reader.streams().size(),
                (unsigned long long)reader.totalRecords());
    return 0;
}

/** Phase 1: run the workloads, infer the raw model, persist both. */
int
cmdGenerate(const Args &args)
{
    core::PipelineConfig config = pipelineConfig(args);
    config.workloadNames = args.operands;
    auto pool = makePool(config.jobs);
    core::PipelineResult r;
    invgen::GenStats stats;
    core::generatePhase(config, pool.get(), r, &stats);

    core::ArtifactPaths paths(config.artifactDir);
    size_t workloadCount = config.workloadNames.empty()
                               ? workloads::all().size()
                               : config.workloadNames.size();
    std::printf("%zu workloads, %llu records, %llu program points, "
                "%zu raw invariants\n",
                workloadCount, (unsigned long long)r.traceRecords,
                (unsigned long long)stats.points, r.model.size());
    std::printf("wrote %s and %s\n", paths.traces().c_str(),
                paths.rawModel().c_str());
    return 0;
}

/** Phase 2: optimize the persisted raw model. */
int
cmdOptimize(const Args &args)
{
    core::PipelineConfig config = pipelineConfig(args);
    core::PipelineResult r;
    core::optimizePhase(config, nullptr, r);

    const char *passNames[] = {"constant propagation",
                               "deducible removal",
                               "equivalence removal",
                               "vacuity removal"};
    for (size_t i = 0; i < r.optimizationStats.size(); ++i) {
        const opt::PassStats &pass = r.optimizationStats[i];
        std::printf("%-22s %zu -> %zu invariants, %zu -> %zu "
                    "variables\n",
                    i < 4 ? passNames[i] : "pass",
                    pass.invariantsBefore, pass.invariantsAfter,
                    pass.variablesBefore, pass.variablesAfter);
    }
    std::printf("%zu raw invariants, %zu after optimization\n",
                r.rawInvariants, r.model.size());
    std::printf("wrote %s\n",
                core::ArtifactPaths(config.artifactDir).model().c_str());
    return 0;
}

void
printIdentification(const sci::SciDatabase &db,
                    const invgen::InvariantSet &model)
{
    for (const auto &res : db.results()) {
        std::printf("%s: %zu true SCI, %zu false positives, "
                    "detected=%s\n",
                    res.bugId.c_str(), res.trueSci.size(),
                    res.falsePositives.size(),
                    res.detected() ? "yes" : "no");
        for (size_t idx : res.trueSci)
            std::printf("  %s\n", model.all()[idx].str().c_str());
    }
}

/**
 * Phase 3 from the persisted optimized model — no workload
 * re-simulation, only the triggers and the validation corpus run —
 * or, without --artifact-dir, phases 1-3 in memory for the listed
 * bugs.
 */
int
cmdIdentify(const Args &args)
{
    core::PipelineConfig config = pipelineConfig(args);
    config.bugIds = args.operands;
    if (config.artifactDir.empty()) {
        if (config.bugIds.empty())
            return usageError(args);
        config.runInference = false;
        core::PipelineResult r = core::runPipeline(config);
        printIdentification(r.database, r.model);
        return 0;
    }

    // The scans run in static triage order (secflow), so the
    // statically implicated invariants run their differential checks
    // first; the per-bug rank quality of the dynamically identified
    // SCI is reported below.
    auto pool = makePool(config.jobs);
    core::PipelineResult r;
    std::vector<sci::TriageReport> triage;
    core::identifyPhase(config, pool.get(), r, &triage);

    printIdentification(r.database, r.model);
    double qualitySum = 0.0;
    size_t qualityBugs = 0;
    for (size_t i = 0; i < triage.size(); ++i) {
        const sci::IdentificationResult &res = r.database.results()[i];
        if (res.trueSci.empty())
            continue;
        std::printf("triage %s: rank quality %.3f, first SCI at "
                    "rank %zu/%zu\n",
                    res.bugId.c_str(), triage[i].quality,
                    triage[i].firstSciRank, triage[i].order.size());
        qualitySum += triage[i].quality;
        ++qualityBugs;
    }
    if (qualityBugs != 0)
        std::printf("triage mean rank quality: %.3f over %zu "
                    "detected bugs\n",
                    qualitySum / double(qualityBugs), qualityBugs);
    core::ArtifactPaths paths(config.artifactDir);
    std::printf("wrote %s and %s\n", paths.violations().c_str(),
                paths.sciDatabase().c_str());
    return 0;
}

/** Phase 4: infer additional SCI from the persisted phase-2/3
 *  artifacts. */
int
cmdInfer(const Args &args)
{
    core::PipelineConfig config = pipelineConfig(args);
    auto pool = makePool(config.jobs);
    core::PipelineResult r;
    core::inferPhase(config, pool.get(), r);

    const sci::InferenceResult &inference = r.inference;
    std::printf("labeled:   %zu SCI, %zu non-SCI\n",
                inference.labeledSci, inference.labeledNonSci);
    std::printf("inferred:  %zu SCI (accuracy %.0f%%, %zu clear "
                "false positives rejected)\n",
                inference.inferredSci.size(),
                100 * inference.testAccuracy,
                inference.clearFalsePositives.size());
    std::printf("semantic prior admitted %zu below the posterior "
                "threshold\n",
                inference.semanticRecommended);
    std::printf(
        "wrote %s\n",
        core::ArtifactPaths(config.artifactDir).inference().c_str());
    return 0;
}

/**
 * Static analysis over the optimized model: classify every invariant
 * and prove sibling implications; the report is deterministic and
 * byte-identical across --jobs values.
 */
int
cmdAnalyze(const Args &args)
{
    core::ArtifactPaths paths(args.text("--artifact-dir"));
    invgen::InvariantSet model = loadModel(paths);

    auto pool = makePool(args.number("--jobs", 1));
    analysis::AnalysisReport report =
        analysis::analyze(model.all(), pool.get());

    std::string audit;
    if (args.has("--audit-traces")) {
        // Cross-check the model against the persisted training
        // traces: a violation here means an invariant the optimizer
        // kept does not even hold on its own training corpus. The
        // scan streams the set a chunk at a time.
        core::requireArtifact(paths.traces(), "generate");
        sci::CompiledModel compiled(model);
        trace::TraceSetReader traces(paths.traces());
        std::set<size_t> violated =
            sci::corpusViolations(compiled, traces, pool.get());
        audit += "\n== trace audit ==\n";
        audit += format("%zu invariants violated by the training "
                        "traces\n",
                        violated.size());
        for (size_t idx : violated)
            audit += format("%zu\t%s\n", idx,
                            model.all()[idx].str().c_str());
        std::printf("trace audit: %zu invariants violated by the "
                    "training traces\n",
                    violated.size());
    }

    std::ofstream out = openOutput(paths.analysis());
    std::string text = report.render() + audit;
    out << text;

    if (args.has("--json")) {
        // Machine-readable mode: emit only the JSON document on
        // stdout (deterministic across --jobs; the text artifact is
        // still written above).
        std::fputs(report.renderJson().c_str(), stdout);
        return 0;
    }
    std::printf("%zu invariants: %zu tautology, %zu contradiction, "
                "%zu isa-implied (%zu structural), %zu contingent; "
                "%zu implications\n",
                report.entries.size(),
                report.counts[size_t(
                    analysis::Verdict::Tautology)],
                report.counts[size_t(
                    analysis::Verdict::Contradiction)],
                report.counts[size_t(
                    analysis::Verdict::IsaImplied)],
                report.structuralImplied,
                report.counts[size_t(
                    analysis::Verdict::Contingent)],
                report.implications.size());
    std::printf("wrote %s\n", paths.analysis().c_str());
    return 0;
}

/**
 * Security-dataflow audit over the optimized model: for every Table 1
 * bug (or the bugs named on the command line), the state its injected
 * defect corrupts, the security state that corruption can reach
 * through the def-use state graph, and the invariants that statically
 * guard it. When a phase-3 database exists the static reachability is
 * cross-checked against the dynamic identification: every dynamic SCI
 * must be statically reachable from its bug's footprint.
 *
 * Exit status: 0 sound, 1 when the cross-check found a dynamic SCI
 * with no static flow (a missing edge in the state graph), 2 on usage
 * errors. The report is byte-identical across --jobs values.
 */
int
cmdAudit(const Args &args)
{
    core::ArtifactPaths paths(args.text("--artifact-dir"));
    invgen::InvariantSet model = loadModel(paths);

    // The dynamic cross-check is best-effort: without a phase-3
    // database the audit still reports footprints and static guards.
    std::unique_ptr<sci::SciDatabase> db;
    if (core::ArtifactPaths::exists(paths.sciDatabase()))
        db = std::make_unique<sci::SciDatabase>(
            sci::SciDatabase::loadBinary(paths.sciDatabase(),
                                         model.size()));

    std::vector<const bugs::Bug *> bugList;
    if (args.operands.empty()) {
        bugList = bugs::table1();
    } else {
        for (const auto &id : args.operands)
            bugList.push_back(&bugs::byId(id));
    }

    auto pool = makePool(args.number("--jobs", 1));
    sci::AuditReport report =
        sci::audit(model, bugList, db.get(), pool.get());

    std::string text = report.render();
    std::ofstream out = openOutput(paths.audit());
    out << text;
    std::printf("%s", text.c_str());
    std::printf("\nwrote %s\n", paths.audit().c_str());
    return report.sound() ? 0 : 1;
}

int
cmdRun(const Args &args)
{
    core::PipelineConfig config = pipelineConfig(args);
    core::PipelineResult r = core::runPipeline(config);
    std::printf("traces:      %llu records\n",
                (unsigned long long)r.traceRecords);
    std::printf("invariants:  %zu raw, %zu optimized\n",
                r.rawInvariants, r.model.size());
    std::printf("identified:  %zu SCI (%zu labeled non-SCI)\n",
                r.identifiedSci().size(),
                r.database.nonSciIndices().size());
    if (config.runInference) {
        std::printf("inferred:    %zu SCI (accuracy %.0f%%)\n",
                    r.inference.inferredSci.size(),
                    100 * r.inference.testAccuracy);
    }
    auto deployed = core::deployedAssertions(r, r.finalSci());
    auto overhead = monitor::estimateOverhead(deployed);
    std::printf("deployment:  %zu assertions, %.2f%% logic, "
                "%.2f%% power, 0%% delay\n",
                deployed.size(), overhead.logicPct,
                overhead.powerPct);
    for (const auto &stage : r.stages) {
        std::printf("stage %-21s %8.2fs  %llu -> %llu items  "
                    "rss %llu KiB  traces-resident %llu KiB\n",
                    stage.name.c_str(), stage.seconds,
                    (unsigned long long)stage.itemsIn,
                    (unsigned long long)stage.itemsOut,
                    (unsigned long long)stage.maxRssKb,
                    (unsigned long long)(stage.traceResidentPeak /
                                         1024));
    }
    if (!config.artifactDir.empty())
        std::printf("artifacts:   %s\n", config.artifactDir.c_str());
    return 0;
}

/**
 * Differential fuzzing campaign. Exit status: 0 when no divergence
 * (and, with --mutation-coverage, every Table 1 mutation killed),
 * 1 otherwise, 2 on usage errors.
 */
int
cmdFuzz(const Args &args)
{
    fuzz::FuzzConfig config;
    config.artifactDir = args.text("--artifact-dir");
    config.seed = args.number("--seed", config.seed);
    config.count = uint32_t(args.number("--count", config.count));
    config.mutationCoverage = args.has("--mutation-coverage");
    config.replayDir = args.text("--replay");

    if (args.has("--fleet")) {
        if (!config.replayDir.empty()) {
            std::fprintf(stderr,
                         "--fleet cannot replay a directory; drop "
                         "--replay\n");
            return 2;
        }
        fuzz::FleetConfig fc;
        fc.fuzz = config;
        fc.shards = unsigned(args.number("--fleet", fc.shards));
        fc.grain = uint32_t(args.number("--grain", fc.grain));
        fuzz::FleetResult fr = fuzz::runFleet(fc);
        std::printf("%s", fr.result.render().c_str());
        std::printf("fleet: %u shards, %llu claims, %llu raw "
                    "divergences (%llu deduped)\n",
                    fr.shardsUsed, (unsigned long long)fr.claims,
                    (unsigned long long)fr.divergences,
                    (unsigned long long)fr.dedupDropped);
        if (!config.artifactDir.empty())
            std::printf("artifacts:   %s\n", config.artifactDir.c_str());
        return fr.result.ok() ? 0 : 1;
    }

    auto pool = makePool(args.number("--jobs", 1));
    fuzz::FuzzResult result = fuzz::runFuzz(config, pool.get());
    std::printf("%s", result.render().c_str());
    if (!config.artifactDir.empty())
        std::printf("artifacts:   %s\n", config.artifactDir.c_str());
    return result.ok() ? 0 : 1;
}

/**
 * serve: the always-on checking service. Sessions come from trace-set
 * streams, live workload replays, or fuzzer-generated programs; every
 * session's retirement stream is enforced against the identified-SCI
 * assertion set by a monitor::CheckService.
 *
 * Exit status: 0 when every session is clean, 1 when any assertion
 * fired, 2 on usage errors.
 */
int
cmdServe(const Args &args)
{
    monitor::ServiceConfig config;
    config.shards = args.number("--shards", config.shards);
    config.queueBatches =
        args.number("--queue-batches", config.queueBatches);
    config.batchRecords =
        args.number("--batch-records", config.batchRecords);
    bool useWorkloads = args.has("--workloads");
    uint64_t fuzzCount = args.number("--fuzz", 0);
    uint64_t fuzzSeed = args.number("--seed", 1);
    const std::vector<std::string> &sets = args.operands;
    if (sets.empty() && !useWorkloads && fuzzCount == 0)
        return usageError(args);

    // The deployed set: assertions synthesized from the SCI the
    // pipeline identified (54 SCI -> 14 assertions in the paper).
    core::ArtifactPaths paths(args.text("--artifact-dir"));
    invgen::InvariantSet model = loadModel(paths);
    core::requireArtifact(paths.sciDatabase(), "identify");
    sci::SciDatabase db =
        sci::SciDatabase::loadBinary(paths.sciDatabase(), model.size());
    std::vector<monitor::Assertion> assertions =
        monitor::synthesize(model, db.sciIndices());
    if (assertions.empty()) {
        std::fprintf(stderr, "no SCI identified in %s; nothing to "
                             "enforce\n",
                     paths.dir().c_str());
        return 1;
    }

    monitor::CheckService service(assertions, config);

    // One session per source stream. Each session is fed by exactly
    // one client task; sessions fan out over the pool.
    struct Source
    {
        std::string name;
        std::function<void(monitor::SessionSink &)> feed;
    };
    std::vector<Source> sources;

    for (const auto &path : sets) {
        auto reader = std::make_shared<trace::TraceSetReader>(path);
        for (size_t s = 0; s < reader->streams().size(); ++s) {
            Source source;
            source.name = path + ":" + reader->streams()[s].name;
            source.feed = [reader, s](monitor::SessionSink &sink) {
                trace::ChunkCursor cur(*reader, s);
                trace::TraceBuffer chunk;
                while (cur.nextChunk(chunk)) {
                    for (const auto &rec : chunk.records())
                        sink.record(rec);
                }
            };
            sources.push_back(std::move(source));
        }
    }
    if (useWorkloads) {
        for (const auto &w : workloads::all()) {
            Source source;
            source.name = "workload:" + w.name;
            source.feed = [&w](monitor::SessionSink &sink) {
                workloads::runInto(w, {}, false, &sink);
            };
            sources.push_back(std::move(source));
        }
    }
    for (uint64_t i = 0; i < fuzzCount; ++i) {
        fuzz::GenConfig gen;
        Source source;
        source.name = format("fuzz-%llu-%llu",
                             (unsigned long long)fuzzSeed,
                             (unsigned long long)i);
        source.feed = [gen, fuzzSeed, i](monitor::SessionSink &sink) {
            fuzz::GeneratedProgram prog =
                fuzz::generate(gen, fuzzSeed, uint32_t(i));
            auto asmResult = assembler::assemble(prog.source());
            if (!asmResult.ok)
                return;
            cpu::CpuConfig cc;
            cc.memBytes = gen.memBytes;
            cpu::Cpu cpu(cc);
            cpu.loadProgram(asmResult.program);
            cpu.run(&sink);
        };
        sources.push_back(std::move(source));
    }

    // Feed concurrently, report in source order (deterministic for
    // any --jobs/--shards combination).
    auto pool = makePool(args.number("--jobs", 1));
    std::vector<monitor::SessionReport> reports(sources.size());
    support::parallelFor(pool.get(), sources.size(), [&](size_t i) {
        monitor::SessionSink sink(service, sources[i].name);
        sources[i].feed(sink);
        reports[i] = sink.close();
    });

    uint64_t totalEvents = 0, totalFirings = 0;
    for (const auto &r : reports) {
        std::printf("%s", r.render(service.set().assertions()).c_str());
        totalEvents += r.events;
        totalFirings += r.firings;
    }
    std::printf("served %zu sessions: %llu events, %llu firings, "
                "%zu assertions enforced\n",
                reports.size(), (unsigned long long)totalEvents,
                (unsigned long long)totalFirings,
                service.set().assertions().size());
    if (args.has("--stats")) {
        monitor::ServiceTelemetry t = service.telemetry();
        std::printf("throughput:  %.0f events/s over %.2fs (%llu "
                    "batches)\n",
                    t.eventsPerSecond, t.elapsedSeconds,
                    (unsigned long long)t.batches);
        for (size_t i = 0; i < t.shards.size(); ++i) {
            const auto &sh = t.shards[i];
            std::printf("shard %-2zu     %llu events in %llu batches "
                        "(max %llu), queue high-water %llu, busy "
                        "%.2fs\n",
                        i, (unsigned long long)sh.events,
                        (unsigned long long)sh.batches,
                        (unsigned long long)sh.maxBatchRecords,
                        (unsigned long long)sh.queueHighWater,
                        sh.busySeconds);
        }
        for (const auto &stage : service.stageStats()) {
            std::printf("stage %-21s %8.2fs  %llu -> %llu items\n",
                        stage.name.c_str(), stage.seconds,
                        (unsigned long long)stage.itemsIn,
                        (unsigned long long)stage.itemsOut);
        }
    }
    return totalFirings ? 1 : 0;
}

int
cmdExec(const Args &args)
{
    const std::string &path = args.operands[0];
    std::ifstream in(path);
    if (!in) {
        throw support::IoError(path, "cannot open '" + path + "'",
                               errno);
    }
    std::stringstream source;
    source << in.rdbuf();

    auto asmResult = assembler::assemble(source.str());
    if (!asmResult.ok) {
        for (const auto &err : asmResult.errors)
            std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return 1;
    }

    cpu::Cpu cpu;
    cpu.loadProgram(asmResult.program);
    trace::TraceBuffer buf;
    cpu::RunResult run = cpu.run(&buf);

    const char *reason =
        run.reason == cpu::HaltReason::Halted     ? "halted"
        : run.reason == cpu::HaltReason::MaxInsns ? "budget exhausted"
                                                  : "wedged";
    std::printf("%s after %llu instructions (%llu trace records)\n",
                reason, (unsigned long long)run.instructions,
                (unsigned long long)run.records);
    for (unsigned r = 0; r < isa::numGprs; r += 4) {
        std::printf("r%-2u %08x  r%-2u %08x  r%-2u %08x  r%-2u %08x\n",
                    r, cpu.gpr(r), r + 1, cpu.gpr(r + 1), r + 2,
                    cpu.gpr(r + 2), r + 3, cpu.gpr(r + 3));
    }
    std::printf("pc  %08x  sr  %08x  epcr %08x  esr %08x\n",
                cpu.pc(), cpu.readSpr(isa::spr::SR),
                cpu.readSpr(isa::spr::EPCR0),
                cpu.readSpr(isa::spr::ESR0));
    return 0;
}

constexpr size_t many = SIZE_MAX;

const Command commands[] = {
    {"run", "", 0, 0, nullptr, "run all phases and report", cmdRun},
    {"generate", "[workload...]", 0, many, "--artifact-dir",
     "phase 1: run the workloads, infer the raw invariant model",
     cmdGenerate},
    {"optimize", "", 0, 0, "--artifact-dir",
     "phase 2: optimize the raw model", cmdOptimize},
    {"identify", "[bug...]", 0, many, nullptr,
     "phase 3: identify SCI for the errata (without --artifact-dir: "
     "phases 1-3 in memory for the listed bugs)",
     cmdIdentify},
    {"infer", "", 0, 0, "--artifact-dir",
     "phase 4: infer additional SCI", cmdInfer},
    {"analyze", "", 0, 0, "--artifact-dir",
     "classify the optimized model with the abstract-interpretation "
     "analyzer",
     cmdAnalyze},
    {"audit", "[bug...]", 0, many, "--artifact-dir",
     "security-dataflow audit, cross-checked against phase 3 "
     "(exit 1 = unsound)",
     cmdAudit},
    {"fuzz", "", 0, 0, nullptr,
     "differential fuzz the simulator against the reference "
     "interpreter",
     cmdFuzz},
    {"serve", "[set.bin...]", 0, many, "--artifact-dir",
     "enforce the identified-SCI assertions on concurrent sessions "
     "(exit 1 if any fired)",
     cmdServe},
    {"trace capture", "<workload> <out>", 2, 2, nullptr,
     "run a workload straight into a trace set", cmdTraceCapture},
    {"trace dump", "<set>", 1, 1, nullptr,
     "print records of a trace set", cmdTraceDump},
    {"trace count", "<set>", 1, 1, nullptr,
     "stream and record totals of a trace set", cmdTraceCount},
    {"trace diff", "<a> <b>", 2, 2, nullptr,
     "compare two trace sets record by record (exit 1 = differ)",
     cmdTraceDiff},
    {"trace extract", "<in> <out>", 2, 2, "--stream",
     "copy one stream, or a record range of it, into a new set",
     cmdTraceExtract},
    {"trace merge", "<out> <in>...", 2, many, nullptr,
     "merge trace sets into one set", cmdTraceMerge},
    {"exec", "<file.s>", 1, 1, nullptr,
     "assemble and execute a program", cmdExec},
    {"workloads", "", 0, 0, nullptr, "list the 17 training workloads",
     cmdWorkloads},
    {"bugs", "", 0, 0, nullptr, "list the 31 reproduced errata",
     cmdBugs},
    {"errata", "", 0, 0, nullptr,
     "the collected-errata catalog and the phase-2 classification aid",
     cmdErrata},
    {"properties", "", 0, 0, nullptr,
     "list the security-property catalog", cmdProperties},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: scifinder <command> [flags] [operands]\n\n"
                 "commands:\n");
    for (const Command &cmd : commands) {
        printWrapped("  ", synopsis(cmd), 8);
        printWrapped("        ", split(cmd.summary, ' '), 8);
    }
    std::fprintf(stderr, "\nflags (a command rejects any it does not "
                         "list):\n");
    for (const Flag &flag : flags) {
        printWrapped(format("  %-20s ", flagWord(flag).c_str()),
                     split(flag.help, ' '), 23);
    }
    std::fprintf(stderr,
                 "\nexit status: 0 ok, 1 negative result or missing "
                 "artifact, 2 usage,\n"
                 "             3 I/O error or corrupt artifact\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> words(argv + 1, argv + argc);
    std::string one = words.empty() ? "" : words[0];
    std::string two = words.size() < 2 ? "" : one + " " + words[1];
    Args args;
    size_t nameWords = 0;
    for (const Command &cmd : commands) {
        if (cmd.name == one || cmd.name == two) {
            args.cmd = &cmd;
            nameWords = cmd.name == one ? 1 : 2;
            break;
        }
    }
    if (args.cmd == nullptr)
        return usage();
    if (!parse({words.begin() + ptrdiff_t(nameWords), words.end()},
               args))
        return usageError(args);

    try {
        return args.cmd->run(args);
    } catch (const core::MissingArtifact &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    } catch (const support::IoError &e) {
        return ioErrorExit(e);
    }
}
