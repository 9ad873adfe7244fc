/**
 * @file
 * Tests for the differential fuzzing harness: generator determinism
 * and well-formedness, reference-interpreter agreement with the
 * simulator, mutation-coverage kill rates, shrinking, artifact
 * round-trips, and replay of the minimized regression corpus in
 * tests/corpus/.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "asm/assembler.hh"
#include "cpu/cpu.hh"
#include "fuzz/differ.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/mutcov.hh"
#include "fuzz/progen.hh"
#include "fuzz/refsim.hh"
#include "isa/insn.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"

namespace scif::fuzz {
namespace {

namespace fs = std::filesystem;

assembler::Program
assembleGenerated(const GeneratedProgram &gp)
{
    auto r = assembler::assemble(gp.source());
    EXPECT_TRUE(r.ok) << gp.name << ": "
                      << (r.errors.empty() ? "" : r.errors[0]);
    return r.program;
}

TEST(Progen, DeterministicFromSeedAndIndex)
{
    GenConfig gc;
    GeneratedProgram a = generate(gc, 123, 7);
    GeneratedProgram b = generate(gc, 123, 7);
    EXPECT_EQ(a.source(), b.source());
    EXPECT_EQ(a.name, b.name);

    GeneratedProgram c = generate(gc, 123, 8);
    EXPECT_NE(a.source(), c.source());
    GeneratedProgram d = generate(gc, 124, 7);
    EXPECT_NE(a.source(), d.source());
}

TEST(Progen, ProgramsAssembleAndHalt)
{
    GenConfig gc;
    for (uint32_t i = 0; i < 24; ++i) {
        GeneratedProgram gp = generate(gc, 99, i);
        assembler::Program p = assembleGenerated(gp);

        cpu::CpuConfig cc;
        cc.memBytes = gc.memBytes;
        cc.maxInsns = 20000;
        cpu::Cpu c(cc);
        c.loadProgram(p);
        cpu::RunResult r = c.run(nullptr);
        EXPECT_EQ(r.reason, cpu::HaltReason::Halted) << gp.name;
        EXPECT_GT(r.instructions, 20u) << gp.name;
    }
}

TEST(Progen, SubsetSourceKeepsOnlyChosenGadgets)
{
    GeneratedProgram gp = generate(GenConfig(), 5, 0);
    ASSERT_GE(gp.gadgets.size(), 3u);
    std::string subset = gp.sourceSubset({0, 2});
    EXPECT_NE(subset.find(gp.gadgets[0]), std::string::npos);
    EXPECT_EQ(subset.find(gp.gadgets[1]), std::string::npos);
    EXPECT_NE(subset.find(gp.gadgets[2]), std::string::npos);
    EXPECT_TRUE(assembler::assemble(subset).ok);
}

TEST(RefSim, ExecutesSimpleProgramLikeTheCpu)
{
    auto r = assembler::assemble(R"(
        .org 0x100
        l.addi r1, r0, 40
        l.addi r2, r0, 2
        l.add  r3, r1, r2
        l.sw   0x4000(r0), r3
        l.lwz  r4, 0x4000(r0)
        l.nop  0xf
    )");
    ASSERT_TRUE(r.ok);

    RefSim ref((RefConfig()));
    ref.loadProgram(r.program);
    while (ref.step() == RefStatus::Running) {
    }
    EXPECT_EQ(ref.gpr(3), 42u);
    EXPECT_EQ(ref.gpr(4), 42u);
    EXPECT_EQ(ref.word(0x4000), 42u);

    cpu::Cpu c;
    c.loadProgram(r.program);
    c.run(nullptr);
    EXPECT_EQ(c.pc(), ref.pc());
    EXPECT_EQ(c.retired(), ref.retired());
    for (unsigned n = 0; n < isa::numGprs; ++n)
        EXPECT_EQ(c.gpr(n), ref.gpr(n)) << "r" << n;
}

TEST(Differential, CleanCpuMatchesReferenceOverCorpus)
{
    GenConfig gc;
    DiffConfig dc;
    dc.memBytes = gc.memBytes;
    for (uint32_t i = 0; i < 48; ++i) {
        GeneratedProgram gp = generate(gc, 2024, i);
        Divergence d = diffProgram(assembleGenerated(gp), dc);
        EXPECT_FALSE(d) << gp.name << ": step " << d.step << ", "
                        << d.what;
    }
}

TEST(Differential, MutantCpuDivergesAndShrinks)
{
    // With a mutation injected into the CPU side, the differ becomes
    // a bug detector; find one diverging program and minimize it.
    GenConfig gc;
    DiffConfig dc;
    dc.memBytes = gc.memBytes;
    dc.mutations = {cpu::Mutation::B10_Gpr0Writable};

    bool found = false;
    for (uint32_t i = 0; i < 20 && !found; ++i) {
        GeneratedProgram gp = generate(gc, 77, i);
        if (!diffProgram(assembleGenerated(gp), dc))
            continue;
        found = true;
        ShrinkResult min = shrink(gp, dc);
        EXPECT_TRUE(min.divergence);
        EXPECT_LE(min.kept.size(), gp.gadgets.size());
        auto r = assembler::assemble(min.source);
        ASSERT_TRUE(r.ok);
        EXPECT_TRUE(diffProgram(r.program, dc));
    }
    EXPECT_TRUE(found) << "no program exposed B10 in 20 tries";
}

TEST(MutationCoverage, CorpusKillsEveryTable1Mutation)
{
    GenConfig gc;
    MutCovConfig mc;
    mc.memBytes = gc.memBytes;
    std::vector<assembler::Program> corpus;
    for (uint32_t i = 0; i < 32; ++i)
        corpus.push_back(assembleGenerated(generate(gc, 1, i)));

    support::ThreadPool pool(4);
    CoverageReport report = runCoverage(corpus, mc, &pool);
    EXPECT_TRUE(report.allTable1Killed())
        << "survivors: " << join(report.survivors(), ", ");
    for (const MutationScore &s : report.scores) {
        EXPECT_FALSE(s.bugId.empty());
        EXPECT_EQ(s.programs, corpus.size());
        if (!s.heldOut) {
            EXPECT_GT(s.kills, 0u) << s.bugId;
        }
    }
}

TEST(Fuzzer, ReportIsIdenticalAcrossJobCounts)
{
    FuzzConfig fc;
    fc.seed = 31337;
    fc.count = 24;
    fc.mutationCoverage = true;

    FuzzResult serial = runFuzz(fc, nullptr);
    support::ThreadPool pool(4);
    FuzzResult parallel = runFuzz(fc, &pool);
    EXPECT_TRUE(serial.ok());
    EXPECT_EQ(serial.render(), parallel.render());
}

TEST(Fuzzer, ArtifactsSaveAndReplay)
{
    fs::path dir = fs::temp_directory_path() /
                   format("scif_fuzz_test_%d", getpid());
    fs::remove_all(dir);

    FuzzConfig fc;
    fc.seed = 5;
    fc.count = 6;
    fc.artifactDir = dir.string();
    FuzzResult first = runFuzz(fc, nullptr);
    EXPECT_TRUE(first.ok());
    EXPECT_TRUE(fs::exists(dir / "fuzz_report.txt"));
    EXPECT_TRUE(fs::exists(dir / "corpus" / "prog_0000.s"));
    EXPECT_TRUE(fs::exists(dir / "corpus" / "prog_0005.s"));

    FuzzConfig replay;
    replay.replayDir = (dir / "corpus").string();
    FuzzResult second = runFuzz(replay, nullptr);
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.programs, 6u);

    fs::remove_all(dir);
}

TEST(Corpus, MinimizedRegressionsStayConvergent)
{
    // Every minimized repro checked into tests/corpus/ documents a
    // divergence the fuzzer once found; replay them all and require
    // the simulator and the reference to agree now.
    size_t replayed = 0;
    for (const auto &entry : fs::directory_iterator(
             SCIF_TEST_CORPUS_DIR)) {
        if (entry.path().extension() != ".s")
            continue;
        std::ifstream in(entry.path());
        ASSERT_TRUE(in.good()) << entry.path();
        std::ostringstream text;
        text << in.rdbuf();
        auto r = assembler::assemble(text.str());
        ASSERT_TRUE(r.ok) << entry.path() << ": "
                          << (r.errors.empty() ? "" : r.errors[0]);
        Divergence d = diffProgram(r.program, DiffConfig());
        EXPECT_FALSE(d) << entry.path() << ": step " << d.step << ", "
                        << d.what;
        ++replayed;
    }
    EXPECT_GE(replayed, 1u);
}

TEST(Corpus, FrontEndsAgreeOverCorpusAndGenerated)
{
    // Lockstep both Cpu front ends — predecoded block cache and
    // interpreted — over the checked-in corpus plus a slice of
    // generated programs: neither may diverge from the reference, and
    // their traces must be byte-identical.
    std::vector<std::pair<std::string, assembler::Program>> programs;
    for (const auto &entry : fs::directory_iterator(
             SCIF_TEST_CORPUS_DIR)) {
        if (entry.path().extension() != ".s")
            continue;
        std::ifstream in(entry.path());
        ASSERT_TRUE(in.good()) << entry.path();
        std::ostringstream text;
        text << in.rdbuf();
        auto r = assembler::assemble(text.str());
        ASSERT_TRUE(r.ok) << entry.path();
        programs.emplace_back(entry.path().string(), r.program);
    }
    GenConfig gc;
    for (uint32_t i = 0; i < 8; ++i) {
        GeneratedProgram gp = generate(gc, 909, i);
        programs.emplace_back(gp.name, assembleGenerated(gp));
    }

    for (const auto &[name, program] : programs) {
        trace::TraceBuffer traces[2];
        for (bool predecode : {true, false}) {
            const char *frontEnd =
                predecode ? "predecoded" : "interpreted";
            DiffConfig dc;
            dc.memBytes = gc.memBytes;
            dc.predecode = predecode;
            Divergence d = diffProgram(program, dc);
            EXPECT_FALSE(d) << name << " (" << frontEnd << "): step "
                            << d.step << ", " << d.what;

            cpu::CpuConfig cc;
            cc.memBytes = gc.memBytes;
            cc.predecode = predecode;
            cpu::Cpu c(cc);
            c.loadProgram(program);
            c.run(&traces[predecode ? 0 : 1]);
        }
        ASSERT_EQ(traces[1].size(), traces[0].size()) << name;
        for (size_t i = 0; i < traces[0].size(); ++i) {
            const trace::Record &a = traces[0].records()[i];
            const trace::Record &b = traces[1].records()[i];
            ASSERT_EQ(a.point.id(), b.point.id()) << name << " record " << i;
            ASSERT_EQ(a.index, b.index) << name << " record " << i;
            ASSERT_EQ(a.fused, b.fused) << name << " record " << i;
            ASSERT_EQ(a.pre, b.pre) << name << " record " << i;
            ASSERT_EQ(a.post, b.post) << name << " record " << i;
        }
    }
}

TEST(Corpus, AddcRegressionSetsOverflowFromCarry)
{
    std::ifstream in(std::string(SCIF_TEST_CORPUS_DIR) +
                     "/addc_overflow.s");
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    auto r = assembler::assemble(text.str());
    ASSERT_TRUE(r.ok);

    cpu::Cpu c;
    c.loadProgram(r.program);
    c.run(nullptr);
    EXPECT_EQ(c.gpr(4), 0x80000000u);
    EXPECT_TRUE(c.gpr(5) & (1u << isa::sr::OV));  // l.addc
    EXPECT_EQ(c.gpr(6), 0x80000000u);
    EXPECT_TRUE(c.gpr(7) & (1u << isa::sr::OV));  // l.addic
}

TEST(Assembler, RoundTripOverGeneratedCorpus)
{
    // assemble -> disassemble -> assemble over whole fuzz programs:
    // the reassembled image must be word-identical. Words that do not
    // decode (data) are re-emitted as .word directives.
    GenConfig gc;
    for (uint32_t i = 0; i < 8; ++i) {
        GeneratedProgram gp = generate(gc, 4242, i);
        assembler::Program p = assembleGenerated(gp);

        std::string text;
        for (const auto &[addr, word] : p.words) {
            text += format(".org 0x%x\n", addr);
            auto d = isa::decode(word);
            if (d.has_value())
                text += "    " + isa::disassemble(*d) + "\n";
            else
                text += format("    .word 0x%08x\n", word);
        }
        auto r = assembler::assemble(text);
        ASSERT_TRUE(r.ok) << gp.name << ": "
                          << (r.errors.empty() ? "" : r.errors[0]);
        EXPECT_EQ(r.program.words, p.words) << gp.name;
    }
}

} // namespace
} // namespace scif::fuzz
