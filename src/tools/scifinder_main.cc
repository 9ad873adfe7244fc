/**
 * @file
 * The scifinder command-line tool: the library's functionality as a
 * standalone program.
 *
 * The pipeline phases are separate subcommands over a shared artifact
 * directory, so any phase can be re-run alone from its predecessors'
 * persisted outputs:
 *
 *   scifinder run       [--jobs N] [--artifact-dir D]   all phases
 *   scifinder generate  [--jobs N] --artifact-dir D     phase 1
 *   scifinder optimize  --artifact-dir D                phase 2
 *   scifinder identify  [--jobs N] --artifact-dir D     phase 3
 *   scifinder infer     [--jobs N] --artifact-dir D     phase 4
 *
 * plus the analyses (analyze, audit), the checking service (serve),
 * the simulator fuzzer (fuzz), the trace-set toolbelt (trace), the
 * catalogs (workloads, bugs, errata, properties), exec, and the
 * in-memory `identify bug...` mode, which runs phases 1-3 without
 * artifacts.
 *
 * Exit status: 0 on success, 1 for a negative result (traces differ,
 * an assertion fired, an unsound audit) or a missing artifact, 2 on
 * usage errors, and 3 when reading or writing a file fails or an
 * artifact is corrupt.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
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

int
usage()
{
    std::fprintf(
        stderr,
        "usage: scifinder <command> [args]\n"
        "\n"
        "pipeline (artifact-backed; any phase can be re-run alone):\n"
        "  run       [opts] [--no-inference]\n"
        "                            run all phases and report\n"
        "  generate  [opts] [workload...]\n"
        "                            phase 1: run the workloads, "
        "infer the\n"
        "                            raw invariant model\n"
        "  optimize  --artifact-dir D\n"
        "                            phase 2: optimize the raw "
        "model\n"
        "  identify  [opts] [bug...] phase 3: identify SCI for the "
        "errata\n"
        "                            (without --artifact-dir: phases "
        "1-3 in\n"
        "                            memory for the listed bugs)\n"
        "  infer     [--jobs N] --artifact-dir D\n"
        "                            phase 4: infer additional SCI\n"
        "  analyze   [--jobs N] [--json] [--audit-traces] "
        "--artifact-dir D\n"
        "                            classify the optimized model "
        "with the\n"
        "                            abstract-interpretation "
        "analyzer;\n"
        "                            --json emits the report as JSON "
        "on stdout;\n"
        "                            --audit-traces also scans the "
        "persisted\n"
        "                            training traces for violations\n"
        "  audit     [--jobs N] --artifact-dir D [bug...]\n"
        "                            security-dataflow audit: per-bug "
        "mutated\n"
        "                            defs, reachable security state, "
        "and static\n"
        "                            invariant guards, cross-checked "
        "against the\n"
        "                            phase-3 identification (exit 1 "
        "= unsound)\n"
        "\n"
        "  common [opts]: --jobs N (0 = all cores), --artifact-dir "
        "D,\n"
        "                 --chunk-records N (trace-set chunk "
        "size),\n"
        "                 --validation N (corpus size, default 24),\n"
        "                 --interpreted-eval (identify: scan with "
        "the\n"
        "                 interpreted oracle instead of the compiled "
        "kernels),\n"
        "                 --interpreted-sim (simulate on the "
        "interpreted\n"
        "                 front end instead of the predecoded block "
        "cache\n"
        "                 with capture-time columns; same "
        "artifacts)\n"
        "\n"
        "testing:\n"
        "  fuzz      [opts] [--seed S] [--count N] "
        "[--mutation-coverage]\n"
        "            [--replay D] [--fleet N] [--grain N]\n"
        "                            --fleet runs N work-stealing "
        "shards\n"
        "                            (0 = all cores; artifacts "
        "byte-identical\n"
        "                            for any width; not with "
        "--replay)\n"
        "                            differential fuzz the simulator "
        "against\n"
        "                            the independent reference "
        "interpreter;\n"
        "                            optionally score mutation kill "
        "rates\n"
        "  serve     --artifact-dir D [--shards N] [--queue-batches "
        "N]\n"
        "            [--batch-records N] [--stats] [--workloads]\n"
        "            [--fuzz N [--seed S]] [set.bin...]\n"
        "                            enforce the identified-SCI "
        "assertion set\n"
        "                            on concurrent sessions: "
        "trace-set streams,\n"
        "                            live workload replays, fuzz "
        "programs\n"
        "                            (exit 1 if any assertion "
        "fired)\n"
        "\n"
        "catalogs and utilities:\n"
        "  workloads                 list the 17 training workloads\n"
        "  bugs                      list the 31 reproduced errata\n"
        "  errata                    the collected-errata catalog and\n"
        "                            the phase-2 classification aid\n"
        "  properties                list the security-property "
        "catalog\n"
        "  trace capture <workload> <out> [--chunk-records N]\n"
        "                            run a workload straight into a "
        "trace set\n"
        "  trace dump <set> [--stream S] [--limit N] [--vars A,B]\n"
        "                            print records of a set "
        "artifact\n"
        "  trace count <set> [--points]\n"
        "                            stream/record totals (or a "
        "per-point\n"
        "                            histogram) of a set artifact\n"
        "  trace diff <a> <b>        compare two set artifacts "
        "record by\n"
        "                            record (exit 1 = differ)\n"
        "  trace extract <in> <out> --stream S [--from N] [--count "
        "N]\n"
        "                            copy one stream (or a record "
        "range)\n"
        "                            into a new set\n"
        "  trace merge <out> <in>...\n"
        "                            merge set artifacts into one "
        "set\n"
        "  exec <file.s>             assemble and execute a "
        "program\n"
        "\n"
        "exit status: 0 ok, 1 negative result or missing artifact, "
        "2 usage,\n"
        "             3 I/O error or corrupt artifact\n");
    return 2;
}

/** Options shared by the pipeline subcommands, stripped from args. */
struct CommonOpts
{
    size_t jobs = 1;
    std::string artifactDir;
    size_t validationPrograms = 24;
    bool noInference = false;
    /** Force the interpreted Expr oracle for violation scans
     *  (identify); the default is the compiled batch kernels. */
    bool interpretedEval = false;
    /** Force the interpreted simulator front end (no predecoded
     *  block cache, no capture-time columns); the differential
     *  oracle for the fast path. Artifacts are byte-identical. */
    bool interpretedSim = false;
    /** Records per chunk of written trace sets. */
    size_t chunkRecords = trace::defaultChunkRecords;
};

/**
 * Parse the decimal value of @p flag into @p out.
 * @return false (after printing a diagnostic) when @p s is not a
 * number.
 */
bool
parseCount(const std::string &s, const char *flag, size_t *out)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0') {
        std::fprintf(stderr, "%s expects a number, got '%s'\n", flag,
                     s.c_str());
        return false;
    }
    *out = size_t(v);
    return true;
}

/**
 * Strip the common pipeline flags out of @p args.
 * @return false (after printing a diagnostic) on a malformed flag.
 */
bool
parseCommon(std::vector<std::string> &args, CommonOpts &opts)
{
    std::vector<std::string> rest;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) -> const std::string * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return &args[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            const std::string *v = value("--jobs");
            if (!v || !parseCount(*v, "--jobs", &opts.jobs))
                return false;
        } else if (arg == "--artifact-dir") {
            const std::string *v = value("--artifact-dir");
            if (!v)
                return false;
            opts.artifactDir = *v;
        } else if (arg == "--validation") {
            const std::string *v = value("--validation");
            if (!v || !parseCount(*v, "--validation",
                                  &opts.validationPrograms))
                return false;
        } else if (arg == "--chunk-records") {
            const std::string *v = value("--chunk-records");
            if (!v || !parseCount(*v, "--chunk-records",
                                  &opts.chunkRecords))
                return false;
            if (opts.chunkRecords == 0) {
                std::fprintf(stderr,
                             "--chunk-records must be positive\n");
                return false;
            }
        } else if (arg == "--no-inference") {
            opts.noInference = true;
        } else if (arg == "--interpreted-eval") {
            opts.interpretedEval = true;
        } else if (arg == "--interpreted-sim") {
            opts.interpretedSim = true;
        } else {
            rest.push_back(arg);
        }
    }
    args = std::move(rest);
    return true;
}

/** Pool for a subcommand's own fan-outs (null = serial). */
std::unique_ptr<support::ThreadPool>
makePool(const CommonOpts &opts)
{
    size_t jobs = support::ThreadPool::resolveJobs(opts.jobs);
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

/** Load an artifact after checking it exists, with a phase hint. */
#define REQUIRE_ARTIFACT(path, hint)                                         \
    do {                                                                     \
        if (!core::ArtifactPaths::exists(path)) {                            \
            std::fprintf(stderr,                                             \
                         "missing artifact %s (run 'scifinder %s' "          \
                         "first)\n",                                         \
                         (path).c_str(), hint);                              \
            return 1;                                                        \
        }                                                                    \
    } while (0)

int
cmdWorkloads()
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
cmdBugs()
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
cmdErrata()
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
cmdProperties()
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

/** trace capture: run a workload straight into a trace set. */
int
cmdTraceCapture(const CommonOpts &opts,
                const std::vector<std::string> &args)
{
    if (args.size() != 2) {
        std::fprintf(stderr,
                     "usage: scifinder trace capture <workload> <out> "
                     "[--chunk-records N]\n");
        return 2;
    }
    const auto &w = workloads::byName(args[0]);
    trace::TraceSetWriter writer(args[1],
                                 uint32_t(opts.chunkRecords));
    writer.beginStream(w.name);
    workloads::runInto(w, {}, opts.interpretedSim, &writer);
    writer.endStream();
    uint64_t records = writer.totalRecords();
    size_t chunks = writer.streams()[0].chunks.size();
    writer.close();
    std::printf("wrote %llu records in %zu chunks to %s\n",
                (unsigned long long)records, chunks, args[1].c_str());
    return 0;
}

/** trace dump: print records of a set artifact. */
int
cmdTraceDump(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args;
    std::string stream;
    size_t limit = 16;
    std::vector<uint16_t> vars;
    for (size_t i = 0; i < args_in.size(); ++i) {
        const std::string &arg = args_in[i];
        if (arg == "--stream" && i + 1 < args_in.size()) {
            stream = args_in[++i];
        } else if (arg == "--limit" && i + 1 < args_in.size()) {
            if (!parseCount(args_in[++i], "--limit", &limit))
                return 2;
        } else if (arg == "--vars" && i + 1 < args_in.size()) {
            if (!parseVarList(args_in[++i], &vars))
                return 2;
        } else {
            args.push_back(arg);
        }
    }
    if (args.size() != 1) {
        std::fprintf(stderr,
                     "usage: scifinder trace dump <set> [--stream S] "
                     "[--limit N] [--vars A,B,...]\n");
        return 2;
    }
    if (vars.empty()) {
        vars = {trace::VarId::PC, trace::VarId::INSN,
                trace::VarId::OPA, trace::VarId::OPB,
                trace::VarId::OPDEST};
    }

    trace::TraceSetReader reader(args[0]);
    if (!stream.empty() &&
        reader.findStream(stream) == trace::TraceSetReader::npos) {
        std::fprintf(stderr, "no stream named '%s' in %s\n",
                     stream.c_str(), args[0].c_str());
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
cmdTraceCount(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args;
    bool points = false;
    for (const auto &arg : args_in) {
        if (arg == "--points")
            points = true;
        else
            args.push_back(arg);
    }
    if (args.size() != 1) {
        std::fprintf(stderr,
                     "usage: scifinder trace count <set> "
                     "[--points]\n");
        return 2;
    }
    trace::TraceSetReader reader(args[0]);
    if (points) {
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
cmdTraceDiff(const std::vector<std::string> &args)
{
    if (args.size() != 2) {
        std::fprintf(stderr,
                     "usage: scifinder trace diff <a> <b>\n");
        return 2;
    }
    trace::TraceSetReader a(args[0]);
    trace::TraceSetReader b(args[1]);

    bool differ = false;
    for (size_t s = 0; s < a.streams().size(); ++s) {
        const trace::StreamInfo &info = a.streams()[s];
        size_t t = b.findStream(info.name);
        if (t == trace::TraceSetReader::npos) {
            std::printf("stream %s: only in %s\n", info.name.c_str(),
                        args[0].c_str());
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
                        args[1].c_str());
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
cmdTraceExtract(const CommonOpts &opts,
                const std::vector<std::string> &args_in)
{
    std::vector<std::string> args;
    std::string stream;
    size_t from = 0;
    size_t count = SIZE_MAX;
    for (size_t i = 0; i < args_in.size(); ++i) {
        const std::string &arg = args_in[i];
        if (arg == "--stream" && i + 1 < args_in.size()) {
            stream = args_in[++i];
        } else if (arg == "--from" && i + 1 < args_in.size()) {
            if (!parseCount(args_in[++i], "--from", &from))
                return 2;
        } else if (arg == "--count" && i + 1 < args_in.size()) {
            if (!parseCount(args_in[++i], "--count", &count))
                return 2;
        } else {
            args.push_back(arg);
        }
    }
    if (args.size() != 2 || stream.empty()) {
        std::fprintf(stderr,
                     "usage: scifinder trace extract <in> <out> "
                     "--stream S [--from N] [--count N] "
                     "[--chunk-records N]\n");
        return 2;
    }
    trace::TraceSetReader reader(args[0]);
    size_t s = reader.findStream(stream);
    if (s == trace::TraceSetReader::npos) {
        std::fprintf(stderr, "no stream named '%s' in %s\n",
                     stream.c_str(), args[0].c_str());
        return 1;
    }
    trace::TraceSetWriter writer(args[1],
                                 uint32_t(opts.chunkRecords));
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
                args[1].c_str());
    return 0;
}

/** trace merge: combine several set artifacts into one set. */
int
cmdTraceMerge(const CommonOpts &opts,
              const std::vector<std::string> &args)
{
    if (args.size() < 2) {
        std::fprintf(stderr,
                     "usage: scifinder trace merge <out> <in>... "
                     "[--chunk-records N]\n");
        return 2;
    }
    std::vector<std::string> inputs(args.begin() + 1, args.end());
    trace::mergeTraceSets(args[0], inputs,
                          uint32_t(opts.chunkRecords));
    trace::TraceSetReader reader(args[0]);
    std::printf("merged %zu inputs into %s (%zu streams, %llu "
                "records)\n",
                inputs.size(), args[0].c_str(),
                reader.streams().size(),
                (unsigned long long)reader.totalRecords());
    return 0;
}

int
cmdTrace(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;
    if (!args.empty()) {
        std::string sub = args[0];
        std::vector<std::string> rest(args.begin() + 1, args.end());
        if (sub == "capture")
            return cmdTraceCapture(opts, rest);
        if (sub == "dump")
            return cmdTraceDump(rest);
        if (sub == "count")
            return cmdTraceCount(rest);
        if (sub == "diff")
            return cmdTraceDiff(rest);
        if (sub == "extract")
            return cmdTraceExtract(opts, rest);
        if (sub == "merge")
            return cmdTraceMerge(opts, rest);
    }
    std::fprintf(stderr,
                 "usage: scifinder trace "
                 "{capture|dump|count|diff|extract|merge} ...\n");
    return 2;
}

/** Phase 1: run the workloads, infer the raw model, persist both. */
int
cmdGenerate(const std::vector<std::string> &args_in)
{
    std::vector<std::string> workloadNames = args_in;
    CommonOpts opts;
    if (!parseCommon(workloadNames, opts))
        return 2;
    if (opts.artifactDir.empty()) {
        std::fprintf(stderr,
                     "usage: scifinder generate [--jobs N] "
                     "--artifact-dir D [workload...]\n");
        return 2;
    }
    core::ArtifactPaths paths(opts.artifactDir);
    paths.ensureDir();
    auto pool = makePool(opts);

    std::vector<const workloads::Workload *> list;
    if (workloadNames.empty()) {
        for (const auto &w : workloads::all())
            list.push_back(&w);
    } else {
        for (const auto &name : workloadNames)
            list.push_back(&workloads::byName(name));
    }
    // Out-of-core: workloads seal compressed chunks into the trace set
    // as they simulate, then invariant generation streams the chunks
    // back a window at a time. Same model as the in-memory run.
    std::vector<std::string> names;
    names.reserve(list.size());
    for (const auto *w : list)
        names.push_back(w->name);
    auto counts = trace::buildTraceSetParallel(
        paths.traces(), uint32_t(opts.chunkRecords), names,
        [&](size_t i, trace::TraceSink &sink) {
            workloads::runInto(*list[i], {}, opts.interpretedSim,
                               &sink);
        },
        pool.get());
    uint64_t records = 0;
    for (uint64_t n : counts)
        records += n;
    size_t count = list.size();

    invgen::GenStats stats;
    trace::TraceSetReader reader(paths.traces());
    invgen::InvariantSet model =
        invgen::generateStreaming(reader, {}, &stats, pool.get());
    model.saveBinary(paths.rawModel());
    std::printf("%zu workloads, %llu records, %llu program points, "
                "%zu raw invariants\n",
                count, (unsigned long long)records,
                (unsigned long long)stats.points, model.size());
    std::printf("wrote %s and %s\n", paths.traces().c_str(),
                paths.rawModel().c_str());
    return 0;
}

/** Phase 2: optimize the persisted raw model. */
int
cmdOptimize(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;
    if (opts.artifactDir.empty() || !args.empty()) {
        std::fprintf(stderr,
                     "usage: scifinder optimize --artifact-dir D\n");
        return 2;
    }
    core::ArtifactPaths paths(opts.artifactDir);
    REQUIRE_ARTIFACT(paths.rawModel(), "generate");
    invgen::InvariantSet model =
        invgen::InvariantSet::loadBinary(paths.rawModel());
    size_t before = model.size();
    auto passStats = opt::optimize(model);
    model.saveBinary(paths.model());
    const char *passNames[] = {"constant propagation",
                               "deducible removal",
                               "equivalence removal",
                               "vacuity removal"};
    for (size_t i = 0; i < passStats.size(); ++i) {
        const char *name =
            i < 4 ? passNames[i] : "pass";
        std::printf("%-22s %zu -> %zu invariants, %zu -> %zu "
                    "variables\n",
                    name, passStats[i].invariantsBefore,
                    passStats[i].invariantsAfter,
                    passStats[i].variablesBefore,
                    passStats[i].variablesAfter);
    }
    std::printf("%zu raw invariants, %zu after optimization\n",
                before, model.size());
    std::printf("wrote %s\n", paths.model().c_str());
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

/** Phase 3: identify SCI from the persisted optimized model —
 *  no workload re-simulation, only the triggers and the validation
 *  corpus run. */
int
cmdIdentifyPhase(const CommonOpts &opts,
                 const std::vector<std::string> &bugIds)
{
    core::ArtifactPaths paths(opts.artifactDir);
    REQUIRE_ARTIFACT(paths.model(), "optimize");
    invgen::InvariantSet model =
        invgen::InvariantSet::loadBinary(paths.model());
    auto pool = makePool(opts);

    sci::EvalMode mode = opts.interpretedEval
                             ? sci::EvalMode::Interpreted
                             : sci::EvalMode::Compiled;
    // The simulated expert's corpus goes through the trace store:
    // each random program seals compressed chunks as it runs, then
    // the violation scan streams them back a chunk at a time.
    workloads::validationCorpusToStore(
        paths.validation(), opts.validationPrograms, 0x5eed,
        pool.get(), opts.interpretedSim,
        uint32_t(opts.chunkRecords));
    trace::TraceSetReader validation(paths.validation());
    std::set<size_t> violations =
        sci::corpusViolations(model, validation, pool.get(), mode);

    std::vector<const bugs::Bug *> bugList;
    if (bugIds.empty()) {
        bugList = bugs::table1();
    } else {
        for (const auto &id : bugIds)
            bugList.push_back(&bugs::byId(id));
    }
    // The compiled path scans in static triage order (secflow): the
    // statically implicated invariants run their differential checks
    // first, and the per-bug rank quality of the dynamically
    // identified SCI is reported below. The violation sets — and so
    // every persisted artifact — are unchanged by the ordering.
    std::vector<sci::TriageReport> triage;
    sci::SciDatabase db;
    if (mode == sci::EvalMode::Compiled) {
        sci::CompiledModel compiled(model);
        db = sci::identifyAll(compiled, bugList, violations,
                              pool.get(), opts.interpretedSim,
                              &triage);
    } else {
        db = sci::identifyAll(model, bugList, violations, pool.get(),
                              mode, opts.interpretedSim);
    }

    core::saveIndexSet(paths.violations(), violations);
    db.saveBinary(paths.sciDatabase());
    printIdentification(db, model);
    double qualitySum = 0.0;
    size_t qualityBugs = 0;
    for (size_t i = 0; i < triage.size(); ++i) {
        const sci::IdentificationResult &res = db.results()[i];
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
    std::printf("wrote %s and %s\n", paths.violations().c_str(),
                paths.sciDatabase().c_str());
    return 0;
}

int
cmdIdentify(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;
    if (!opts.artifactDir.empty())
        return cmdIdentifyPhase(opts, args);

    // Legacy mode: run phases 1-3 in memory for the given bugs.
    if (args.empty()) {
        std::fprintf(stderr,
                     "usage: scifinder identify [--jobs N] "
                     "[--artifact-dir D] [--interpreted-eval] "
                     "[bug...]\n");
        return 2;
    }
    core::PipelineConfig config;
    config.bugIds = args;
    config.runInference = false;
    config.jobs = opts.jobs;
    config.validationPrograms = opts.validationPrograms;
    config.interpretedSim = opts.interpretedSim;
    core::PipelineResult result = core::runPipeline(config);
    printIdentification(result.database, result.model);
    return 0;
}

/** Phase 4: infer additional SCI from the persisted phase-2/3
 *  artifacts. */
int
cmdInfer(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;
    if (opts.artifactDir.empty() || !args.empty()) {
        std::fprintf(stderr,
                     "usage: scifinder infer [--jobs N] "
                     "--artifact-dir D\n");
        return 2;
    }
    core::ArtifactPaths paths(opts.artifactDir);
    REQUIRE_ARTIFACT(paths.model(), "optimize");
    REQUIRE_ARTIFACT(paths.violations(), "identify");
    REQUIRE_ARTIFACT(paths.sciDatabase(), "identify");
    invgen::InvariantSet model =
        invgen::InvariantSet::loadBinary(paths.model());
    std::set<size_t> violations =
        core::loadIndexSet(paths.violations());
    sci::SciDatabase db =
        sci::SciDatabase::loadBinary(paths.sciDatabase());

    auto pool = makePool(opts);
    sci::InferenceResult inference =
        sci::infer(model, db, violations, sci::InferConfig(),
                   pool.get());
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

    std::ofstream out = openOutput(paths.inference());
    std::vector<size_t> final_set = db.sciIndices();
    final_set.insert(final_set.end(), inference.inferredSci.begin(),
                     inference.inferredSci.end());
    std::sort(final_set.begin(), final_set.end());
    final_set.erase(std::unique(final_set.begin(), final_set.end()),
                    final_set.end());
    out << "# identified SCI: " << db.sciIndices().size() << "\n";
    out << "# inferred SCI: " << inference.inferredSci.size() << "\n";
    out << "# test accuracy: " << inference.testAccuracy << "\n";
    for (size_t idx : final_set)
        out << idx << "\t" << model.all()[idx].str() << "\n";
    std::printf("wrote %s\n", paths.inference().c_str());
    return 0;
}

/**
 * Static analysis over the optimized model: classify every invariant
 * and prove sibling implications; the report is deterministic and
 * byte-identical across --jobs values.
 */
int
cmdAnalyze(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;
    bool auditTraces = false;
    bool json = false;
    for (auto it = args.begin(); it != args.end();) {
        if (*it == "--audit-traces") {
            auditTraces = true;
            it = args.erase(it);
        } else if (*it == "--json") {
            json = true;
            it = args.erase(it);
        } else {
            ++it;
        }
    }
    if (opts.artifactDir.empty() || !args.empty()) {
        std::fprintf(stderr,
                     "usage: scifinder analyze [--jobs N] [--json] "
                     "[--audit-traces] --artifact-dir D\n");
        return 2;
    }
    core::ArtifactPaths paths(opts.artifactDir);
    REQUIRE_ARTIFACT(paths.model(), "optimize");
    invgen::InvariantSet model =
        invgen::InvariantSet::loadBinary(paths.model());

    auto pool = makePool(opts);
    analysis::AnalysisReport report =
        analysis::analyze(model.all(), pool.get());

    std::string audit;
    if (auditTraces) {
        // Cross-check the model against the persisted training
        // traces: a violation here means an invariant the optimizer
        // kept does not even hold on its own training corpus. The
        // scan streams the set a chunk at a time.
        REQUIRE_ARTIFACT(paths.traces(), "generate");
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

    if (json) {
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
cmdAudit(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;
    if (opts.artifactDir.empty()) {
        std::fprintf(stderr,
                     "usage: scifinder audit [--jobs N] "
                     "--artifact-dir D [bug...]\n");
        return 2;
    }
    core::ArtifactPaths paths(opts.artifactDir);
    REQUIRE_ARTIFACT(paths.model(), "optimize");
    invgen::InvariantSet model =
        invgen::InvariantSet::loadBinary(paths.model());

    // The dynamic cross-check is best-effort: without a phase-3
    // database the audit still reports footprints and static guards.
    std::unique_ptr<sci::SciDatabase> db;
    if (core::ArtifactPaths::exists(paths.sciDatabase()))
        db = std::make_unique<sci::SciDatabase>(
            sci::SciDatabase::loadBinary(paths.sciDatabase()));

    std::vector<const bugs::Bug *> bugList;
    if (args.empty()) {
        bugList = bugs::table1();
    } else {
        for (const auto &id : args)
            bugList.push_back(&bugs::byId(id));
    }

    auto pool = makePool(opts);
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
cmdRun(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;
    if (!args.empty()) {
        std::fprintf(stderr, "unknown option %s\n", args[0].c_str());
        return 2;
    }
    core::PipelineConfig config;
    config.runInference = !opts.noInference;
    config.jobs = opts.jobs;
    config.artifactDir = opts.artifactDir;
    config.validationPrograms = opts.validationPrograms;
    config.interpretedSim = opts.interpretedSim;
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
    if (!opts.artifactDir.empty())
        std::printf("artifacts:   %s\n", opts.artifactDir.c_str());
    return 0;
}

/**
 * Differential fuzzing campaign. Exit status: 0 when no divergence
 * (and, with --mutation-coverage, every Table 1 mutation killed),
 * 1 otherwise, 2 on usage errors.
 */
int
cmdFuzz(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;

    fuzz::FuzzConfig config;
    config.artifactDir = opts.artifactDir;
    bool fleet = false;
    unsigned fleetShards = 0;
    uint32_t fleetGrain = 16;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) -> const std::string * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return &args[++i];
        };
        auto number = [](const std::string &s, const char *flag,
                         uint64_t *out) {
            char *end = nullptr;
            unsigned long long v = std::strtoull(s.c_str(), &end, 0);
            if (s.empty() || *end != '\0') {
                std::fprintf(stderr, "%s expects a number, got '%s'\n",
                             flag, s.c_str());
                return false;
            }
            *out = v;
            return true;
        };
        if (arg == "--seed") {
            const std::string *v = value("--seed");
            if (!v || !number(*v, "--seed", &config.seed))
                return 2;
        } else if (arg == "--count") {
            const std::string *v = value("--count");
            uint64_t n = 0;
            if (!v || !number(*v, "--count", &n))
                return 2;
            config.count = uint32_t(n);
        } else if (arg == "--mutation-coverage") {
            config.mutationCoverage = true;
        } else if (arg == "--replay") {
            const std::string *v = value("--replay");
            if (!v)
                return 2;
            config.replayDir = *v;
        } else if (arg == "--fleet") {
            const std::string *v = value("--fleet");
            uint64_t n = 0;
            if (!v || !number(*v, "--fleet", &n))
                return 2;
            fleet = true;
            fleetShards = unsigned(n);
        } else if (arg == "--grain") {
            const std::string *v = value("--grain");
            uint64_t n = 0;
            if (!v || !number(*v, "--grain", &n))
                return 2;
            if (n == 0) {
                std::fprintf(stderr,
                             "--grain must be at least 1\n");
                return 2;
            }
            fleetGrain = uint32_t(n);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        }
    }

    if (fleet) {
        if (!config.replayDir.empty()) {
            std::fprintf(stderr,
                         "--fleet cannot replay a directory; drop "
                         "--replay\n");
            return 2;
        }
        fuzz::FleetConfig fc;
        fc.fuzz = config;
        fc.shards = fleetShards;
        fc.grain = fleetGrain;
        fuzz::FleetResult fr = fuzz::runFleet(fc);
        std::printf("%s", fr.result.render().c_str());
        std::printf("fleet: %u shards, %llu claims, %llu raw "
                    "divergences (%llu deduped)\n",
                    fr.shardsUsed, (unsigned long long)fr.claims,
                    (unsigned long long)fr.divergences,
                    (unsigned long long)fr.dedupDropped);
        if (!opts.artifactDir.empty())
            std::printf("artifacts:   %s\n", opts.artifactDir.c_str());
        return fr.result.ok() ? 0 : 1;
    }

    auto pool = makePool(opts);
    fuzz::FuzzResult result = fuzz::runFuzz(config, pool.get());
    std::printf("%s", result.render().c_str());
    if (!opts.artifactDir.empty())
        std::printf("artifacts:   %s\n", opts.artifactDir.c_str());
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
cmdServe(const std::vector<std::string> &args_in)
{
    std::vector<std::string> args = args_in;
    CommonOpts opts;
    if (!parseCommon(args, opts))
        return 2;

    monitor::ServiceConfig config;
    bool useWorkloads = false;
    uint64_t fuzzCount = 0;
    uint64_t fuzzSeed = 1;
    bool stats = false;
    std::vector<std::string> sets;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) -> const std::string * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return &args[++i];
        };
        auto number = [](const std::string &s, const char *flag,
                         uint64_t *out) {
            char *end = nullptr;
            unsigned long long v = std::strtoull(s.c_str(), &end, 0);
            if (s.empty() || *end != '\0') {
                std::fprintf(stderr, "%s expects a number, got '%s'\n",
                             flag, s.c_str());
                return false;
            }
            *out = v;
            return true;
        };
        uint64_t n = 0;
        if (arg == "--shards") {
            const std::string *v = value("--shards");
            if (!v || !number(*v, "--shards", &n))
                return 2;
            config.shards = size_t(n);
        } else if (arg == "--queue-batches") {
            const std::string *v = value("--queue-batches");
            if (!v || !number(*v, "--queue-batches", &n) || n == 0)
                return 2;
            config.queueBatches = size_t(n);
        } else if (arg == "--batch-records") {
            const std::string *v = value("--batch-records");
            if (!v || !number(*v, "--batch-records", &n) || n == 0)
                return 2;
            config.batchRecords = size_t(n);
        } else if (arg == "--workloads") {
            useWorkloads = true;
        } else if (arg == "--fuzz") {
            const std::string *v = value("--fuzz");
            if (!v || !number(*v, "--fuzz", &fuzzCount))
                return 2;
        } else if (arg == "--seed") {
            const std::string *v = value("--seed");
            if (!v || !number(*v, "--seed", &fuzzSeed))
                return 2;
        } else if (arg == "--stats") {
            stats = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        } else {
            sets.push_back(arg);
        }
    }
    if (opts.artifactDir.empty() ||
        (sets.empty() && !useWorkloads && fuzzCount == 0)) {
        std::fprintf(
            stderr,
            "usage: scifinder serve --artifact-dir D [--jobs N] "
            "[--shards N]\n"
            "                 [--queue-batches N] [--batch-records N] "
            "[--stats]\n"
            "                 [--workloads] [--fuzz N [--seed S]] "
            "[set.bin...]\n");
        return 2;
    }

    // The deployed set: assertions synthesized from the SCI the
    // pipeline identified (54 SCI -> 14 assertions in the paper).
    core::ArtifactPaths paths(opts.artifactDir);
    REQUIRE_ARTIFACT(paths.model(), "optimize");
    REQUIRE_ARTIFACT(paths.sciDatabase(), "identify");
    invgen::InvariantSet model =
        invgen::InvariantSet::loadBinary(paths.model());
    sci::SciDatabase db =
        sci::SciDatabase::loadBinary(paths.sciDatabase());
    std::vector<monitor::Assertion> assertions =
        monitor::synthesize(model, db.sciIndices());
    if (assertions.empty()) {
        std::fprintf(stderr, "no SCI identified in %s; nothing to "
                             "enforce\n",
                     opts.artifactDir.c_str());
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
    auto pool = makePool(opts);
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
    if (stats) {
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
cmdExec(const std::vector<std::string> &args)
{
    if (args.size() != 1) {
        std::fprintf(stderr, "usage: scifinder exec <file.s>\n");
        return 2;
    }
    std::ifstream in(args[0]);
    if (!in) {
        throw support::IoError(
            args[0], "cannot open '" + args[0] + "'", errno);
    }
    std::stringstream source;
    source << in.rdbuf();

    auto asmResult = assembler::assemble(source.str());
    if (!asmResult.ok) {
        for (const auto &err : asmResult.errors)
            std::fprintf(stderr, "%s: %s\n", args[0].c_str(),
                         err.c_str());
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    try {
        if (cmd == "workloads")
            return cmdWorkloads();
        if (cmd == "bugs")
            return cmdBugs();
        if (cmd == "errata")
            return cmdErrata();
        if (cmd == "properties")
            return cmdProperties();
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "generate")
            return cmdGenerate(args);
        if (cmd == "optimize")
            return cmdOptimize(args);
        if (cmd == "identify")
            return cmdIdentify(args);
        if (cmd == "infer")
            return cmdInfer(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "audit")
            return cmdAudit(args);
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "fuzz")
            return cmdFuzz(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "exec")
            return cmdExec(args);
    } catch (const support::IoError &e) {
        return ioErrorExit(e);
    }
    return usage();
}
