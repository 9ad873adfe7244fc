/**
 * @file
 * Checking-service tests (monitor/service.hh).
 *
 * The determinism contract under test: a CheckService session report
 * is byte-identical to what the sequential AssertionMonitor implies
 * for the same event stream — for any shard count, any micro-batch
 * size, any client-thread interleaving, and under queue-full
 * backpressure. Also closes the fuzz-mode gap: fuzzer-generated
 * programs run under every Table 1 mutation must make the service
 * flag exactly what the single-trace monitor flags. Session misuse —
 * an unknown or closed id, or a call after shutdown — throws a
 * SessionError naming the id instead of hanging or corrupting state.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <random>
#include <thread>

#include "asm/assembler.hh"
#include "bugs/registry.hh"
#include "cpu/cpu.hh"
#include "fuzz/progen.hh"
#include "monitor/service.hh"
#include "support/mpscqueue.hh"
#include "workloads/workloads.hh"

namespace scif::monitor {
namespace {

using expr::Invariant;

invgen::InvariantSet
makeSet(std::initializer_list<const char *> texts)
{
    invgen::InvariantSet set;
    for (const char *t : texts)
        set.add(Invariant::parse(t));
    return set;
}

std::vector<size_t>
allIndices(const invgen::InvariantSet &set)
{
    std::vector<size_t> out(set.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = i;
    return out;
}

/** The deployment-sized set of Overhead.PaperScaleSanity. */
std::shared_ptr<const CompiledAssertionSet>
paperScaleSet()
{
    auto set = makeSet({
        "l.add -> GPR0 == 0",
        "l.rfe -> SR == orig(ESR0)",
        "l.sys@syscall -> NPC == 0xc00",
        "l.sys@syscall -> EPCR0 == PC + 4",
        "l.jal -> GPR9 == PC + 8",
        "l.sfltu -> FLAGOK == 1",
        "l.lwz -> MEMBUS == DMEM",
        "l.sb -> MEMOK == 1",
        "l.mtspr -> SPRV == orig(OPB)",
        "l.lwz -> MEMADDR == (IMM + orig(OPA))",
        "l.j@alignment -> DSX == 1",
        "l.add -> IMEM == INSN",
        "l.add@range -> EPCR0 == PC",
        "l.mtspr -> SM == 1",
    });
    return std::make_shared<const CompiledAssertionSet>(
        synthesize(set, allIndices(set)));
}

/** The oracle: what the sequential monitor reports for a stream. */
std::string
sequentialRender(const std::shared_ptr<const CompiledAssertionSet> &set,
                 const std::string &name,
                 const trace::TraceBuffer &trace)
{
    AssertionMonitor mon(set);
    for (const auto &rec : trace.records())
        mon.record(rec);
    return sequentialReport(name, mon, trace.size())
        .render(set->assertions());
}

TEST(Service, MatchesSequentialOnWorkloadsForAnyShardCount)
{
    auto set = paperScaleSet();
    std::vector<std::string> names;
    std::vector<trace::TraceBuffer> traces;
    for (const auto &w : workloads::all()) {
        names.push_back(w.name);
        traces.push_back(workloads::run(w));
    }
    std::vector<std::string> expected(traces.size());
    for (size_t i = 0; i < traces.size(); ++i)
        expected[i] = sequentialRender(set, names[i], traces[i]);

    for (size_t shards : {size_t(1), size_t(2), size_t(5)}) {
        ServiceConfig config;
        config.shards = shards;
        CheckService service(set, config);
        for (size_t i = 0; i < traces.size(); ++i) {
            SessionReport r = service.check(names[i], traces[i]);
            EXPECT_EQ(r.render(set->assertions()), expected[i])
                << names[i] << " with " << shards << " shards";
        }
    }
}

TEST(Service, MatchesSequentialAcrossBatchGeometries)
{
    // Batch boundaries fall at different records for each size;
    // reports must not depend on where they fall.
    auto set = paperScaleSet();
    trace::TraceBuffer trace =
        workloads::run(workloads::byName("vmlinux"));
    std::string expected =
        sequentialRender(set, "vmlinux", trace);
    for (size_t batch : {size_t(1), size_t(7), size_t(64),
                         size_t(4096)}) {
        ServiceConfig config;
        config.batchRecords = batch;
        CheckService service(set, config);
        SessionReport r = service.check("vmlinux", trace);
        EXPECT_EQ(r.render(set->assertions()), expected)
            << "batchRecords=" << batch;
    }
}

TEST(Service, ReportRenderIsPinned)
{
    // The report text is an artifact format: pin its exact bytes.
    auto set = makeSet({
        "l.addi -> GPR0 == 0",
        "l.add -> GPR0 == 0",
    });
    auto shared = std::make_shared<const CompiledAssertionSet>(
        synthesize(set, allIndices(set)));

    cpu::CpuConfig config;
    config.mutations = {cpu::Mutation::B10_Gpr0Writable};
    cpu::Cpu cpu(config);
    cpu.loadProgram(assembler::assembleOrDie(R"(
        .org 0x100
        l.addi r0, r0, 5
        l.add  r1, r0, r0
        l.nop  0xf
    )"));
    trace::TraceBuffer trace;
    cpu.run(&trace);

    CheckService service(shared);
    SessionReport r = service.check("b10", trace);
    std::string text = r.render(shared->assertions());
    EXPECT_EQ(text, sequentialRender(shared, "b10", trace));
    ASSERT_TRUE(r.hasFirst);
    EXPECT_EQ(r.first.point.name(), "l.addi");
    EXPECT_EQ(text.substr(0, text.find(':')), "session b10");
    EXPECT_NE(text.find("firings\n  first: a0 (edge) at record"),
              std::string::npos);
}

TEST(Service, CleanSessionReportsClean)
{
    auto set = paperScaleSet();
    CheckService service(set);
    trace::TraceBuffer empty;
    SessionReport r = service.check("idle", empty);
    EXPECT_EQ(r.render(set->assertions()),
              "session idle: 0 events, clean\n");
    EXPECT_EQ(r.events, 0u);
    EXPECT_FALSE(r.hasFirst);
}

TEST(Service, FuzzModeDifferentialOverTable1Mutations)
{
    // The fuzz-mode closure: for every Table 1 mutation, programs
    // from the generator must make the service flag exactly what the
    // sequential monitor flags — same counts, same first violation,
    // byte for byte.
    auto set = paperScaleSet();
    fuzz::GenConfig gen;
    gen.gadgets = 20;

    std::vector<assembler::Program> programs;
    for (uint32_t i = 0; i < 3; ++i) {
        fuzz::GeneratedProgram prog = fuzz::generate(gen, 7, i);
        auto res = assembler::assemble(prog.source());
        ASSERT_TRUE(res.ok) << prog.name;
        programs.push_back(res.program);
    }

    ServiceConfig config;
    config.shards = 2;
    CheckService service(set, config);
    for (const bugs::Bug *bug : bugs::table1()) {
        for (size_t p = 0; p < programs.size(); ++p) {
            cpu::CpuConfig cc;
            cc.memBytes = gen.memBytes;
            cc.mutations = {bug->mutation};
            cpu::Cpu cpu(cc);
            cpu.loadProgram(programs[p]);
            trace::TraceBuffer trace;
            cpu.run(&trace);

            std::string name =
                bug->id + "-fuzz" + std::to_string(p);
            SessionReport r = service.check(name, trace);
            EXPECT_EQ(r.render(set->assertions()),
                      sequentialRender(set, name, trace))
                << name;
        }
    }
}

TEST(Service, TriggerTracesMatchSequential)
{
    // The curated attack programs, on the buggy processor.
    auto set = paperScaleSet();
    ServiceConfig config;
    config.shards = 3;
    CheckService service(set, config);
    for (const bugs::Bug *bug : bugs::table1()) {
        trace::TraceBuffer trace = bugs::runTrigger(*bug, true);
        SessionReport r = service.check(bug->id, trace);
        EXPECT_EQ(r.render(set->assertions()),
                  sequentialRender(set, bug->id, trace))
            << bug->id;
    }
}

/** The SessionError @p call throws, or "no error". */
template <typename Call>
std::string
sessionError(Call call, CheckService::SessionId expected)
{
    try {
        call();
    } catch (const SessionError &e) {
        EXPECT_EQ(e.session(), expected);
        return e.what();
    }
    return "no error";
}

TEST(Service, PostAfterCloseThrowsNamingTheSession)
{
    auto set = paperScaleSet();
    CheckService service(set);
    trace::TraceBuffer trace =
        workloads::run(workloads::byName("vmlinux"));
    CheckService::SessionId id = service.open("done");
    service.post(id, trace.records().data(), 8);
    service.close(id);

    EXPECT_EQ(sessionError([&] { service.post(id, trace.records()[0]); },
                           id),
              "session " + std::to_string(id) + ": already closed");
    EXPECT_EQ(sessionError([&] { service.post(id + 7, trace.records()[0]); },
                           id + 7),
              "session " + std::to_string(id + 7) + ": never opened");
    // The service keeps serving other sessions.
    EXPECT_EQ(service.check("vmlinux", trace).render(set->assertions()),
              sequentialRender(set, "vmlinux", trace));
}

TEST(Service, DoubleCloseThrows)
{
    auto set = paperScaleSet();
    CheckService service(set);
    CheckService::SessionId id = service.open("twice");
    SessionReport r = service.close(id);
    EXPECT_EQ(r.render(set->assertions()),
              "session twice: 0 events, clean\n");
    EXPECT_EQ(sessionError([&] { service.close(id); }, id),
              "session " + std::to_string(id) + ": already closed");
}

TEST(Service, CloseAfterShutdownThrowsInsteadOfHanging)
{
    auto set = paperScaleSet();
    CheckService service(set);
    trace::TraceBuffer trace =
        workloads::run(workloads::byName("vmlinux"));
    CheckService::SessionId id = service.open("late");
    service.post(id, trace.records().data(), trace.size());
    service.shutdown();

    // A close() whose final batch the closed queue dropped would
    // wait for ever. Run it on a helper thread so a regression fails
    // here instead of hanging the suite.
    std::future<std::string> closing =
        std::async(std::launch::async, [&service, id] {
            try {
                service.close(id);
            } catch (const SessionError &e) {
                return std::string(e.what());
            }
            return std::string("no error");
        });
    if (closing.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
        // A hung close() can never be joined: end the run here.
        ADD_FAILURE() << "close() after shutdown() did not return";
        std::fflush(stdout);
        std::abort();
    }
    std::string expected =
        "session " + std::to_string(id) + ": the service is shut down";
    EXPECT_EQ(closing.get(), expected);
    EXPECT_EQ(sessionError([&] { service.post(id, trace.records()[0]); },
                           id),
              expected);
    EXPECT_EQ(sessionError([&] { service.open("later"); }, id + 1),
              "session " + std::to_string(id + 1) +
                  ": cannot open 'later': the service is shut down");
}

TEST(MpscQueue, BackpressureBoundsDepth)
{
    support::BoundedMpscQueue<int> q(4);
    std::thread consumer([&] {
        int v;
        while (q.pop(v)) {
        }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&] {
            for (int i = 0; i < 500; ++i)
                q.push(i);
        });
    }
    for (auto &t : producers)
        t.join();
    q.close();
    consumer.join();
    EXPECT_LE(q.highWater(), 4u);
    EXPECT_EQ(q.size(), 0u);
}

TEST(MpscQueue, DrainsAfterClose)
{
    support::BoundedMpscQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        q.push(i);
    q.close();
    int v = -1, got = 0, last = -1;
    while (q.pop(v)) {
        ++got;
        last = v;
    }
    EXPECT_EQ(got, 5);
    EXPECT_EQ(last, 4);
}

} // namespace
} // namespace scif::monitor
