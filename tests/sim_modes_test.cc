/**
 * @file
 * Differential tests between the two simulation front ends: the
 * default predecoded block cache, and the interpreted fetch-decode
 * oracle a test selects with CpuConfig::predecode = false. The full
 * workload suite, mutated workloads, the validation corpus phase 3
 * scans, every Table 1 trigger (buggy and clean) and a fuzz corpus
 * must produce record-identical traces on both; ColumnarCapture must
 * seal into the exact ColumnSet::build geometry; and the staged
 * pipeline must persist byte-identical artifacts for any --jobs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "asm/assembler.hh"
#include "bugs/registry.hh"
#include "core/scifinder.hh"
#include "fuzz/progen.hh"
#include "trace/capture.hh"
#include "trace/columns.hh"
#include "workloads/workloads.hh"

namespace scif {
namespace {

void
expectSameRecords(const std::vector<trace::Record> &a,
                  const std::vector<trace::Record> &b,
                  const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].point.id(), b[i].point.id())
            << what << " record " << i;
        ASSERT_EQ(a[i].index, b[i].index) << what << " record " << i;
        ASSERT_EQ(a[i].fused, b[i].fused) << what << " record " << i;
        ASSERT_EQ(a[i].pre, b[i].pre) << what << " record " << i;
        ASSERT_EQ(a[i].post, b[i].post) << what << " record " << i;
    }
}

/** Run @p source on a fresh Cpu with the interpreted front end. */
trace::TraceBuffer
runInterpreted(const std::string &source, cpu::CpuConfig config)
{
    config.predecode = false;
    cpu::Cpu cpu(config);
    cpu.loadProgram(assembler::assembleOrDie(source));
    trace::TraceBuffer out;
    cpu.run(&out);
    return out;
}

/** workloads::run() of @p w on the interpreted front end. */
trace::TraceBuffer
runInterpreted(const workloads::Workload &w,
               const cpu::MutationSet &mutations = {})
{
    cpu::CpuConfig config = w.config;
    config.mutations = mutations;
    return runInterpreted(w.source, config);
}

TEST(SimModes, AllWorkloadsTraceIdentically)
{
    for (const auto &w : workloads::all()) {
        expectSameRecords(workloads::run(w).records(),
                          runInterpreted(w).records(), w.name);
    }
}

TEST(SimModes, ValidationProgramsTraceIdentically)
{
    // The simulated expert's corpus, as phase 3 scans it.
    for (const auto &w : workloads::validationPrograms(24, 0x5eed)) {
        expectSameRecords(workloads::run(w).records(),
                          runInterpreted(w).records(), w.name);
    }
}

TEST(SimModes, MutatedWorkloadsTraceIdentically)
{
    // A mutation that perturbs values (b6), one that perturbs
    // control (b1), and the one that disables predecode (b11).
    const cpu::Mutation muts[] = {
        cpu::Mutation::B6_UnsignedCmpMsb,
        cpu::Mutation::B1_SysDelaySlotEpcr,
        cpu::Mutation::B11_FetchAfterLsuStall,
    };
    const char *names[] = {"vmlinux", "gzip", "mcf"};
    for (cpu::Mutation m : muts) {
        cpu::MutationSet set;
        set.add(m);
        for (const char *name : names) {
            const auto &w = workloads::byName(name);
            expectSameRecords(workloads::run(w, set).records(),
                              runInterpreted(w, set).records(), name);
        }
    }
}

TEST(SimModes, FuzzCorpusTracesIdentically)
{
    fuzz::GenConfig gen;
    gen.gadgets = 24;
    for (uint64_t seed = 0; seed < 6; ++seed) {
        fuzz::GeneratedProgram gp = fuzz::generate(gen, 0xfee1, seed);
        assembler::Program p = assembler::assembleOrDie(gp.source());

        cpu::CpuConfig config;
        config.memBytes = gen.memBytes;
        config.predecode = true;
        cpu::Cpu fast(config);
        config.predecode = false;
        cpu::Cpu slow(config);
        fast.loadProgram(p);
        slow.loadProgram(p);

        trace::TraceBuffer fastTrace, slowTrace;
        cpu::RunResult rf = fast.run(&fastTrace);
        cpu::RunResult rs = slow.run(&slowTrace);
        EXPECT_EQ(rf.reason, rs.reason) << gp.name;
        EXPECT_EQ(rf.instructions, rs.instructions) << gp.name;
        expectSameRecords(fastTrace.records(), slowTrace.records(),
                          gp.name);
        for (unsigned r = 0; r < isa::numGprs; ++r)
            EXPECT_EQ(fast.gpr(r), slow.gpr(r)) << gp.name << " r" << r;
    }
}

TEST(SimModes, SealMatchesPostHocTranspose)
{
    for (const char *name : {"basicmath", "vmlinux", "quake", "twolf"}) {
        const auto &w = workloads::byName(name);
        trace::TraceBuffer buf = workloads::run(w);
        trace::ColumnarCapture cap = workloads::runColumnar(w);
        ASSERT_EQ(cap.size(), buf.size()) << name;

        trace::ColumnSet direct = cap.seal();
        trace::ColumnSet transposed = trace::ColumnSet::build(buf);

        ASSERT_EQ(direct.points().size(), transposed.points().size())
            << name;
        ASSERT_EQ(direct.totalRows(), transposed.totalRows()) << name;
        for (size_t i = 0; i < direct.points().size(); ++i) {
            const trace::PointColumns &d = direct.points()[i];
            const trace::PointColumns &t = transposed.points()[i];
            ASSERT_EQ(d.point().id(), t.point().id()) << name;
            ASSERT_EQ(d.rows(), t.rows()) << name;
            for (uint16_t s = 0; s < trace::numSlots; ++s) {
                ASSERT_EQ(d.has(s), t.has(s)) << name;
                if (!d.has(s))
                    continue;
                for (size_t r = 0; r < d.rows(); ++r) {
                    ASSERT_EQ(d.column(s)[r], t.column(s)[r])
                        << name << " point " << i << " slot " << s
                        << " row " << r;
                }
            }
        }
    }
}

TEST(SimModes, RunTriggersMatchesBothModesAndLegacy)
{
    for (const bugs::Bug *bug : bugs::table1()) {
        const std::string &id = bug->id;
        bugs::TriggerTraces fast = bugs::runTriggers(*bug);
        cpu::CpuConfig buggy = bug->config;
        buggy.mutations.add(bug->mutation);
        expectSameRecords(fast.buggy.records(),
                          runInterpreted(bug->trigger, buggy).records(),
                          id + " buggy");
        expectSameRecords(
            fast.clean.records(),
            runInterpreted(bug->trigger, bug->config).records(),
            id + " clean");

        // The one-Cpu fan-out must equal two fresh single runs.
        expectSameRecords(fast.buggy.records(),
                          bugs::runTrigger(*bug, true).records(),
                          id + " buggy vs legacy");
        expectSameRecords(fast.clean.records(),
                          bugs::runTrigger(*bug, false).records(),
                          id + " clean vs legacy");
    }
}

std::vector<char>
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << p;
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

TEST(SimModes, PipelineArtifactsByteIdentical)
{
    auto runOnce = [](size_t jobs, const std::string &dir) {
        core::PipelineConfig config;
        config.workloadNames = {"basicmath", "twolf"};
        config.bugIds = {"b6", "b10"};
        config.validationPrograms = 2;
        config.runInference = false;
        config.jobs = jobs;
        config.artifactDir = dir;
        std::filesystem::create_directories(dir);
        return core::runPipeline(config);
    };

    std::filesystem::path base = ::testing::TempDir();
    std::string ref = (base / "artifacts-serial").string();
    std::string par = (base / "artifacts-par").string();
    auto a = runOnce(1, ref);
    auto b = runOnce(4, par);
    EXPECT_EQ(a.traceRecords, b.traceRecords);

    size_t compared = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(ref)) {
        const std::string file = entry.path().filename().string();
        auto want = slurp(entry.path());
        EXPECT_EQ(slurp(std::filesystem::path(par) / file), want)
            << file << " differs across --jobs";
        ++compared;
    }
    EXPECT_GT(compared, 0u);
}

} // namespace
} // namespace scif
