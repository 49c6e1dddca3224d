/**
 * @file
 * Fusion-opportunity profiler: executes workloads under a counting
 * observer and reports the dynamically hottest adjacent opcode pairs
 * and triples *within a basic block* — exactly the sequences a
 * decode-time superinstruction pass is allowed to fuse (fusion never
 * crosses a block boundary, so cross-block adjacency is noise and is
 * excluded by resetting the window on every block entry).
 *
 * The observer path forces the interpreter to de-fuse (observers must
 * see every source instruction), so the numbers stay valid whichever
 * engine is the default: they always describe the unfused instruction
 * stream. By default the uninstrumented module runs (matching
 * interp_throughput's measurement); --instrumented runs the
 * pipeline-instrumented module instead, which is what fault-injection
 * campaigns execute.
 */
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "common.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "support/strings.h"
#include "workloads/workload.h"

using namespace encore;

namespace {

/// Counts within-block adjacent opcode pairs and triples. The window
/// resets on block entry, so every counted sequence is one a
/// decode-time peephole over the flat block body could legally fuse.
class SequenceCounter : public interp::Observer
{
  public:
    void
    onInstruction(const ir::Function &, const ir::Instruction &inst,
                  std::uint64_t) override
    {
        const ir::Opcode op = inst.opcode();
        ++total_;
        if (have_ >= 1)
            ++pairs_[{prev_, op}];
        if (have_ >= 2)
            ++triples_[{{prev2_, prev_, op}}];
        // A terminator ends the window *after* being counted as a
        // sequence tail (cmp+br is the fusion pass's bread and butter);
        // a call ends it because the next dynamic instruction belongs
        // to the callee.
        if (ir::opcodeIsTerminator(op) || op == ir::Opcode::Call) {
            have_ = 0;
            return;
        }
        prev2_ = prev_;
        prev_ = op;
        if (have_ < 2)
            ++have_;
    }

    std::uint64_t total() const { return total_; }

    template <typename Key>
    static std::vector<std::pair<Key, std::uint64_t>>
    topN(const std::map<Key, std::uint64_t> &counts, std::size_t n)
    {
        std::vector<std::pair<Key, std::uint64_t>> rows(counts.begin(),
                                                        counts.end());
        std::sort(rows.begin(), rows.end(),
                  [](const auto &a, const auto &b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                  });
        if (rows.size() > n)
            rows.resize(n);
        return rows;
    }

    const std::map<std::pair<ir::Opcode, ir::Opcode>, std::uint64_t> &
    pairs() const
    {
        return pairs_;
    }
    const std::map<std::array<ir::Opcode, 3>, std::uint64_t> &
    triples() const
    {
        return triples_;
    }

  private:
    int have_ = 0;
    ir::Opcode prev_ = ir::Opcode::NumOpcodes;
    ir::Opcode prev2_ = ir::Opcode::NumOpcodes;
    std::uint64_t total_ = 0;
    std::map<std::pair<ir::Opcode, ir::Opcode>, std::uint64_t> pairs_;
    std::map<std::array<ir::Opcode, 3>, std::uint64_t> triples_;
};

std::string
opName(ir::Opcode op)
{
    return std::string(ir::opcodeName(op));
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli;
    cli.addFlag("workloads", "",
                "comma-separated workload names (empty = whole suite)");
    cli.addFlag("top", "12", "sequences to report per workload");
    cli.addFlag("json", "",
                "write the report as JSON to this path (empty = table "
                "to stdout only)");
    cli.addFlag("instrumented", "false",
                "run the pipeline-instrumented module (what campaigns "
                "execute) instead of the raw workload");
    cli.parse(argc, argv);

    const std::size_t top = cli.getUint("top");
    const bool instrumented = cli.getBool("instrumented");

    std::vector<const workloads::Workload *> selected;
    for (const std::string &field :
         split(cli.getString("workloads"), ',')) {
        if (field.empty())
            continue;
        const workloads::Workload *w = workloads::findWorkload(field);
        if (w == nullptr) {
            std::cerr << "error: unknown workload '" << field << "'\n";
            return 1;
        }
        selected.push_back(w);
    }
    if (selected.empty())
        for (const workloads::Workload &w : workloads::allWorkloads())
            selected.push_back(&w);

    struct Row
    {
        std::string name;
        std::uint64_t total = 0;
        std::vector<std::pair<std::string, std::uint64_t>> pairs;
        std::vector<std::pair<std::string, std::uint64_t>> triples;
    };
    std::vector<Row> rows;

    for (const workloads::Workload *w : selected) {
        std::unique_ptr<ir::Module> module;
        bench::PreparedWorkload prepared;
        if (instrumented) {
            prepared = bench::prepareWorkload(*w, EncoreConfig{});
            module = std::move(prepared.module);
        } else {
            module = w->build();
        }
        interp::Interpreter interp(*module);
        SequenceCounter counter;
        interp.addObserver(&counter);
        const interp::RunResult result =
            interp.run(w->entry, w->train_args);
        if (!result.ok()) {
            std::cerr << "error: " << w->name
                      << " failed: " << result.error << "\n";
            return 1;
        }

        Row row;
        row.name = w->name;
        row.total = counter.total();
        for (const auto &[key, count] :
             SequenceCounter::topN(counter.pairs(), top))
            row.pairs.emplace_back(
                opName(key.first) + "+" + opName(key.second), count);
        for (const auto &[key, count] :
             SequenceCounter::topN(counter.triples(), top))
            row.triples.emplace_back(opName(key[0]) + "+" +
                                         opName(key[1]) + "+" +
                                         opName(key[2]),
                                     count);
        rows.push_back(std::move(row));
    }

    for (const Row &row : rows) {
        std::cout << row.name << " (" << row.total
                  << " dynamic instructions, "
                  << (instrumented ? "instrumented" : "uninstrumented")
                  << "):\n";
        std::cout << "  pairs:\n";
        for (const auto &[name, count] : row.pairs)
            std::cout << "    " << name << ": " << count << " ("
                      << formatPercent(static_cast<double>(count) /
                                       static_cast<double>(row.total))
                      << " of instrs)\n";
        std::cout << "  triples:\n";
        for (const auto &[name, count] : row.triples)
            std::cout << "    " << name << ": " << count << "\n";
    }

    const bool json_ok = bench::writeJsonReport(
        cli.getString("json"), [&](std::ostream &json) {
            json << "  \"bench\": \"encore_opstats\",\n"
                 << "  \"instrumented\": "
                 << (instrumented ? "true" : "false") << ",\n"
                 << "  \"workloads\": [\n";
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const Row &row = rows[i];
                json << "    {\"name\": \"" << row.name
                     << "\", \"dyn_instrs\": " << row.total
                     << ",\n     \"pairs\": [";
                for (std::size_t p = 0; p < row.pairs.size(); ++p)
                    json << (p ? ", " : "") << "{\"seq\": \""
                         << row.pairs[p].first
                         << "\", \"count\": " << row.pairs[p].second
                         << "}";
                json << "],\n     \"triples\": [";
                for (std::size_t t = 0; t < row.triples.size(); ++t)
                    json << (t ? ", " : "") << "{\"seq\": \""
                         << row.triples[t].first
                         << "\", \"count\": " << row.triples[t].second
                         << "}";
                json << "]}" << (i + 1 < rows.size() ? "," : "")
                     << "\n";
            }
            json << "  ]\n}\n";
        });
    return json_ok ? 0 : 1;
}
