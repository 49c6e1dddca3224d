/**
 * @file
 * Workload registry: metadata (suite, train/ref inputs, opaque library
 * functions) for all 23 synthetic benchmarks.
 */
#include "workloads/workload.h"

#include <cstdlib>
#include <iostream>

#include "support/diagnostics.h"
#include "workloads/builders.h"

namespace encore::workloads {

namespace {

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> list;

    auto add = [&](const std::string &name, const std::string &suite,
                   std::function<std::unique_ptr<ir::Module>()> build,
                   std::uint64_t train, std::uint64_t ref,
                   std::set<std::string> opaque = {}) {
        Workload w;
        w.name = name;
        w.suite = suite;
        w.build = std::move(build);
        w.train_args = {train};
        w.ref_args = {ref};
        w.opaque = std::move(opaque);
        list.push_back(std::move(w));
    };

    // SPEC2K-INT
    add("164.gzip", "SPEC2K-INT", buildGzip, 320, 500, {"flush_block"});
    add("175.vpr", "SPEC2K-INT", buildVpr, 600, 1200);
    add("181.mcf", "SPEC2K-INT", buildMcf, 400, 800);
    add("197.parser", "SPEC2K-INT", buildParser, 400, 700);
    add("256.bzip2", "SPEC2K-INT", buildBzip2, 200, 256);
    add("300.twolf", "SPEC2K-INT", buildTwolf, 500, 1000,
        {"trace_move"});

    // SPEC2K-FP
    add("172.mgrid", "SPEC2K-FP", buildMgrid, 320, 640);
    add("173.applu", "SPEC2K-FP", buildApplu, 320, 640);
    add("177.mesa", "SPEC2K-FP", buildMesa, 2000, 4000);
    add("179.art", "SPEC2K-FP", buildArt, 320, 640);
    add("183.equake", "SPEC2K-FP", buildEquake, 320, 640);

    // MEDIABENCH
    add("cjpeg", "MEDIABENCH", buildCjpeg, 200, 256);
    add("djpeg", "MEDIABENCH", buildDjpeg, 200, 256);
    add("epic", "MEDIABENCH", buildEpic, 160, 320);
    add("unepic", "MEDIABENCH", buildUnepic, 160, 320);
    add("g721decode", "MEDIABENCH", buildG721Decode, 400, 512);
    add("g721encode", "MEDIABENCH", buildG721Encode, 400, 512);
    add("mpeg2dec", "MEDIABENCH", buildMpeg2Dec, 16, 24);
    add("mpeg2enc", "MEDIABENCH", buildMpeg2Enc, 300, 600);
    add("pegwitdec", "MEDIABENCH", buildPegwitDec, 200, 256);
    add("pegwitenc", "MEDIABENCH", buildPegwitEnc, 200, 256);
    add("rawcaudio", "MEDIABENCH", buildRawCAudio, 800, 1024);
    add("rawdaudio", "MEDIABENCH", buildRawDAudio, 800, 1024);

    return list;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> workloads = makeWorkloads();
    return workloads;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

const Workload &
workloadNamed(const std::string &name)
{
    if (const Workload *w = findWorkload(name))
        return *w;
    std::cerr << "error: unknown workload '" << name
              << "'; available workloads:\n";
    for (const Workload &w : allWorkloads())
        std::cerr << "  " << w.name << " (" << w.suite << ")\n";
    std::exit(1);
}

std::vector<const Workload *>
workloadsInSuite(const std::string &suite)
{
    std::vector<const Workload *> selected;
    for (const Workload &w : allWorkloads()) {
        if (w.suite == suite)
            selected.push_back(&w);
    }
    return selected;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "SPEC2K-INT", "SPEC2K-FP", "MEDIABENCH"};
    return names;
}

} // namespace encore::workloads
