/**
 * @file
 * Tests for the differential fuzzing harness: generator determinism
 * and well-formedness, reference-interpreter agreement with the
 * simulator, mutation-coverage kill rates and the one Cpu each
 * program's 32 coverage runs share, shrinking, campaigns that
 * report and write the same bytes at any pool width (divergent ones
 * too), artifact round-trips, replay failures, and replay of the
 * minimized regression corpus in tests/corpus/.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "asm/assembler.hh"
#include "cpu/cpu.hh"
#include "fuzz/differ.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/mutcov.hh"
#include "fuzz/progen.hh"
#include "fuzz/refsim.hh"
#include "isa/insn.hh"
#include "support/ioerror.hh"
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

void
expectSameTrace(const trace::TraceBuffer &a, const trace::TraceBuffer &b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        const trace::Record &x = a.records()[i];
        const trace::Record &y = b.records()[i];
        ASSERT_EQ(x.point.id(), y.point.id()) << what << " record " << i;
        ASSERT_EQ(x.index, y.index) << what << " record " << i;
        ASSERT_EQ(x.fused, y.fused) << what << " record " << i;
        ASSERT_EQ(x.pre, y.pre) << what << " record " << i;
        ASSERT_EQ(x.post, y.post) << what << " record " << i;
    }
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

TEST(MutationCoverage, ReusedCpuMatchesFreshCpu)
{
    // killMask runs each program's 32 configurations (clean, then
    // every single mutation) on one Cpu: setMutations switches the
    // defect and loadProgram resets the processor. Every run must
    // equal the same run on a fresh Cpu: trace, RunResult and end
    // state, memory included.
    GenConfig gc;
    MutCovConfig mc;
    mc.memBytes = gc.memBytes;
    cpu::CpuConfig cc;
    cc.memBytes = mc.memBytes;
    cc.userBase = mc.userBase;
    cc.maxInsns = mc.maxInsns;
    for (uint32_t i = 0; i < 6; ++i) {
        GeneratedProgram gp = generate(gc, 77, i);
        assembler::Program program = assembleGenerated(gp);
        cpu::Cpu reused(cc);
        for (size_t run = 0; run <= cpu::numMutations; ++run) {
            cpu::MutationSet set;
            if (run > 0)
                set.add(cpu::Mutation(run - 1));
            std::string what = gp.name + " run " + std::to_string(run);

            reused.setMutations(set);
            reused.loadProgram(program);
            trace::TraceBuffer got;
            cpu::RunResult gr = reused.run(&got);

            cpu::CpuConfig fc = cc;
            fc.mutations = set;
            cpu::Cpu fresh(fc);
            fresh.loadProgram(program);
            trace::TraceBuffer want;
            cpu::RunResult wr = fresh.run(&want);

            EXPECT_EQ(gr.reason, wr.reason) << what;
            EXPECT_EQ(gr.instructions, wr.instructions) << what;
            EXPECT_EQ(gr.records, wr.records) << what;
            expectSameTrace(got, want, what);
            for (unsigned n = 0; n < isa::numGprs; ++n)
                EXPECT_EQ(reused.gpr(n), fresh.gpr(n))
                    << what << " r" << n;
            EXPECT_EQ(reused.pc(), fresh.pc()) << what;
            for (uint16_t spr : {isa::spr::SR, isa::spr::EPCR0,
                                 isa::spr::EEAR0, isa::spr::ESR0}) {
                EXPECT_EQ(reused.readSpr(spr), fresh.readSpr(spr))
                    << what << " spr " << spr;
            }
            EXPECT_TRUE(std::equal(
                reused.memory().raw(),
                reused.memory().raw() + reused.memory().size(),
                fresh.memory().raw()))
                << what << ": memory differs";
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

/** A campaign whose CPU carries B10, so programs diverge and shrink. */
FuzzConfig
divergentCampaign()
{
    FuzzConfig fc;
    fc.seed = 77;
    fc.count = 20;
    fc.mutations = {cpu::Mutation::B10_Gpr0Writable};
    return fc;
}

/** Every file under @p dir, by path relative to it. */
std::map<std::string, std::string>
slurpDir(const fs::path &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        files[fs::relative(entry.path(), dir).string()] = text.str();
    }
    return files;
}

TEST(Fuzzer, WidthsProduceIdenticalReports)
{
    FuzzConfig fc = divergentCampaign();
    support::ThreadPool narrow(1);
    FuzzResult one = runFuzz(fc, &narrow);
    ASSERT_FALSE(one.repros.empty())
        << "B10 exposed no divergence; the campaign tests nothing";

    // Every diverging program is reported, in index order, and no
    // other.
    DiffConfig dc;
    dc.mutations = fc.mutations;
    std::vector<uint32_t> diverging, reported;
    for (uint32_t i = 0; i < fc.count; ++i) {
        if (diffProgram(assembleGenerated(generate(fc.gen, fc.seed, i)),
                        dc))
            diverging.push_back(i);
    }
    for (const Repro &r : one.repros)
        reported.push_back(r.index);
    EXPECT_EQ(reported, diverging);

    for (size_t width : {3u, 8u}) {
        support::ThreadPool pool(width);
        FuzzResult wide = runFuzz(fc, &pool);
        EXPECT_EQ(wide.render(), one.render()) << width;
        ASSERT_EQ(wide.repros.size(), one.repros.size());
        for (size_t i = 0; i < one.repros.size(); ++i) {
            const Repro &a = one.repros[i];
            const Repro &b = wide.repros[i];
            EXPECT_EQ(a.index, b.index);
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.source, b.source);
            EXPECT_EQ(a.divergence.what, b.divergence.what);
        }
    }
}

TEST(Fuzzer, ArtifactsIdenticalAcrossWidths)
{
    fs::path base = fs::temp_directory_path() /
                    format("scif_fuzz_widths_%d", getpid());
    fs::remove_all(base);

    FuzzConfig fc = divergentCampaign();
    fc.count = 12;
    std::map<std::string, std::string> first;
    for (size_t width : {1u, 3u, 8u}) {
        support::ThreadPool pool(width);
        fc.artifactDir = (base / format("w%zu", width)).string();
        FuzzResult result = runFuzz(fc, &pool);
        EXPECT_FALSE(result.ok());
        auto tree = slurpDir(fc.artifactDir);
        if (width == 1) {
            first = tree;
            continue;
        }
        EXPECT_EQ(tree, first) << width;
    }
    EXPECT_TRUE(first.count("fuzz_report.txt"));
    EXPECT_TRUE(first.count("corpus/prog_0000.s"));
    EXPECT_TRUE(first.count("corpus/prog_0011.s"));
    EXPECT_TRUE(std::any_of(first.begin(), first.end(), [](auto &f) {
        return f.first.starts_with("repro_");
    }));

    fs::remove_all(base);
}

TEST(Fuzzer, ReplayFailuresThrowIoError)
{
    fs::path dir = fs::temp_directory_path() /
                   format("scif_fuzz_replay_%d", getpid());
    fs::remove_all(dir);
    FuzzConfig fc;
    fc.replayDir = dir.string();

    auto failure = [&](support::ThreadPool *pool = nullptr) {
        try {
            runFuzz(fc, pool);
        } catch (const support::IoError &e) {
            EXPECT_FALSE(e.path().empty());
            return std::string(e.what());
        }
        ADD_FAILURE() << "no IoError";
        return std::string();
    };

    EXPECT_NE(failure().find("cannot read replay directory"),
              std::string::npos);
    fs::create_directories(dir);
    EXPECT_NE(failure().find("contains no .s programs"),
              std::string::npos);
    std::ofstream(dir / "a.s") << "l.bogus r1\n";
    EXPECT_NE(failure().find("a.s' does not assemble: line 1"),
              std::string::npos);

    // Whichever task fails first, the lowest index is reported.
    for (char name = 'b'; name <= 'h'; ++name)
        std::ofstream(dir / format("%c.s", name)) << "l.bogus r2\n";
    support::ThreadPool pool(4);
    EXPECT_NE(failure(&pool).find("a.s' does not assemble"),
              std::string::npos);

    fs::remove_all(dir);
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
        expectSameTrace(traces[0], traces[1], name);
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
