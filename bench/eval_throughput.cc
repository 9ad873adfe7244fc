/**
 * @file
 * Evaluation-substrate throughput: records/second of the interpreted
 * Expr tree walk versus the compiled batch kernels, per candidate
 * family (the shapes the generator falsifies and the identifier
 * scans). The invariants are constructed to hold on every synthetic
 * record so neither path gets an early exit — this measures steady
 * streaming throughput, the regime the generation and identification
 * sweeps live in.
 *
 * Flags (on top of the common bench flags):
 *   --require-speedup <x>  fail (exit 1) unless the compiled path
 *                          beats the interpreter by at least x on the
 *                          equality and linear families (CI smoke
 *                          uses 1.0; the design target is 3.0).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench/common.hh"
#include "expr/compile.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/strings.hh"
#include "trace/columns.hh"

namespace scif {
namespace {

using expr::CmpOp;
using expr::CompiledInvariant;
using expr::Invariant;
using expr::Op2;
using expr::Operand;
using expr::VarRef;
using trace::VarId;

const trace::Point benchPoint = trace::Point::insn(isa::Mnemonic::L_ADD);
constexpr size_t numRecords = 1 << 15;

/**
 * A synthetic trace whose records satisfy one invariant per family
 * by construction.
 */
trace::TraceBuffer
makeTrace()
{
    Rng rng(0xbe4c);
    trace::TraceBuffer buf;
    buf.reserve(numRecords);
    for (size_t i = 0; i < numRecords; ++i) {
        trace::Record rec;
        rec.point = benchPoint;
        rec.index = i;
        uint32_t a = uint32_t(rng.next());
        uint32_t b = uint32_t(rng.next());
        rec.pre[VarId::OPA] = a;
        rec.pre[VarId::OPB] = b;
        rec.post[VarId::OPDEST] = a + b;       // ternary sum
        rec.post[VarId::OPA] = a;              // equality vs orig
        rec.post[trace::gprVar(0)] = 0;        // constant equality
        rec.post[VarId::IMM] = 4 * uint32_t(rng.below(4)); // in-set
        rec.post[VarId::PC] = uint32_t(rng.next()) & ~3u;  // mod 4
        rec.post[VarId::NPC] = rec.post[VarId::PC] + 4;    // ordering
        rec.post[VarId::MEMADDR] = a * 2 + 16;             // linear
        buf.record(rec);
    }
    return buf;
}

struct Family
{
    const char *name;
    Invariant inv;
};

std::vector<Family>
families()
{
    std::vector<Family> out;
    auto mk = [&](const char *name, CmpOp op, Operand lhs,
                  Operand rhs) {
        Invariant inv;
        inv.point = benchPoint;
        inv.op = op;
        inv.lhs = lhs;
        inv.rhs = rhs;
        out.push_back({name, inv});
    };

    mk("equality", CmpOp::Eq, Operand::var(VarId::OPA),
       Operand::var(VarId::OPA, true));
    mk("const-equality", CmpOp::Eq, Operand::var(trace::gprVar(0)),
       Operand::imm(0));
    mk("ordering", CmpOp::Ge, Operand::var(VarId::NPC),
       Operand::var(VarId::PC));

    Operand modded = Operand::var(VarId::PC);
    modded.modImm = 4;
    mk("mod", CmpOp::Eq, modded, Operand::imm(0));

    Operand scaled = Operand::var(VarId::OPA, true);
    scaled.mulImm = 2;
    scaled.addImm = 16;
    mk("linear", CmpOp::Eq, Operand::var(VarId::MEMADDR), scaled);

    mk("ternary-sum", CmpOp::Eq, Operand::var(VarId::OPDEST),
       Operand::pair(VarRef{VarId::OPA, true}, Op2::Add,
                     VarRef{VarId::OPB, true}));

    Invariant in;
    in.point = benchPoint;
    in.op = CmpOp::In;
    in.lhs = Operand::var(VarId::IMM);
    in.set = {0, 4, 8, 12};
    in.canonicalize();
    out.push_back({"in-set", in});

    return out;
}

/** @return records/second of @p sweep (one call = one full sweep). */
template <typename Fn>
double
recordsPerSecond(Fn &&sweep)
{
    using clock = std::chrono::steady_clock;
    // Warm up caches and branch predictors with one sweep, then run
    // until we accumulate enough wall clock for a stable number.
    sweep();
    size_t sweeps = 0;
    auto start = clock::now();
    double elapsed = 0;
    do {
        sweep();
        ++sweeps;
        elapsed = std::chrono::duration<double>(clock::now() - start)
                      .count();
    } while (elapsed < 0.2);
    return double(sweeps) * double(numRecords) / elapsed;
}

void
experiment()
{
    bench::printHeader(
        "Evaluation throughput: interpreted vs compiled",
        "perf substrate for Zhang et al., ASPLOS'17 (Tables 3/8)");

    trace::TraceBuffer buf = makeTrace();
    trace::ColumnSet cols = trace::ColumnSet::build(buf);
    trace::PointColumns *pc = cols.point(benchPoint.id());
    if (pc == nullptr || pc->rows() != numRecords)
        fatal("bench trace transpose is broken");

    TextTable table({"Family", "Interpreted (rec/s)",
                     "Compiled (rec/s)", "Speedup"});
    std::map<std::string, double> speedups;
    for (const Family &f : families()) {
        const Invariant &inv = f.inv;
        CompiledInvariant prog = CompiledInvariant::compile(inv);

        // Both sweeps must see the invariant hold everywhere,
        // otherwise the comparison measures the early exit instead
        // of throughput.
        if (prog.firstViolation(*pc, 0, numRecords) !=
            CompiledInvariant::npos) {
            fatal("bench invariant '%s' does not hold",
                  inv.str().c_str());
        }

        double interpreted = recordsPerSecond([&] {
            bool all = true;
            for (const auto &rec : buf.records())
                all &= inv.exprHolds(rec);
            benchmark::DoNotOptimize(all);
        });
        double compiled = recordsPerSecond([&] {
            size_t v = prog.firstViolation(*pc, 0, numRecords);
            benchmark::DoNotOptimize(v);
        });
        double speedup = compiled / interpreted;
        speedups[f.name] = speedup;

        table.addRow({f.name, format("%.3g", interpreted),
                      format("%.3g", compiled),
                      format("%.2fx", speedup)});
        bench::recordMetric(format("%s.interpreted", f.name),
                            interpreted, "records/s");
        bench::recordMetric(format("%s.compiled", f.name), compiled,
                            "records/s");
        bench::recordMetric(format("%s.speedup", f.name), speedup,
                            "x");
    }
    std::printf("%s\n", table.render().c_str());

    double gate = bench::options().requireSpeedup;
    if (gate > 0) {
        for (const char *family : {"equality", "linear"}) {
            if (speedups[family] < gate) {
                bench::failBench(format(
                    "%s family speedup %.2fx below the required "
                    "%.2fx",
                    family, speedups[family], gate));
            }
        }
    }
}

/** Micro-benchmark twins of the table, for --benchmark_filter runs. */
struct BenchState
{
    trace::TraceBuffer buf = makeTrace();
    trace::ColumnSet cols = trace::ColumnSet::build(buf);
    Invariant inv = families()[0].inv; // equality
    CompiledInvariant prog = CompiledInvariant::compile(inv);
};

BenchState &
benchState()
{
    static BenchState s;
    return s;
}

void
evalInterpreted(benchmark::State &state)
{
    BenchState &s = benchState();
    for (auto _ : state) {
        bool all = true;
        for (const auto &rec : s.buf.records())
            all &= s.inv.exprHolds(rec);
        benchmark::DoNotOptimize(all);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(numRecords));
}
BENCHMARK(evalInterpreted)->Unit(benchmark::kMicrosecond);

void
evalCompiled(benchmark::State &state)
{
    BenchState &s = benchState();
    const trace::PointColumns *pc = s.cols.point(benchPoint.id());
    for (auto _ : state) {
        size_t v = s.prog.firstViolation(*pc, 0, numRecords);
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(numRecords));
}
BENCHMARK(evalCompiled)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace scif

SCIF_BENCH_MAIN(scif::experiment)
