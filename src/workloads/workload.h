/**
 * @file
 * The synthetic workload suite.
 *
 * The paper evaluates on SPEC2000 INT/FP and Mediabench binaries, which
 * are not available offline; each benchmark here is a from-scratch IR
 * program named after its paper counterpart and built to exhibit the
 * same *idempotence-relevant* character:
 *
 *  - SPEC2K-INT: control-heavy code with in-place data structure
 *    updates (hash chains, histograms, stacks, pointer chasing) —
 *    frequent WAR hazards, some opaque "library" calls.
 *  - SPEC2K-FP: regular array/stencil kernels that read one buffer and
 *    write another — naturally idempotent hot loops.
 *  - MEDIABENCH: streaming codec kernels — largely idempotent with
 *    small, cheap-to-checkpoint predictor/state updates.
 *
 * Every workload is deterministic, returns a checksum, and leaves its
 * results in global objects so fault-injection outcomes can be judged
 * by exact output comparison.
 */
#ifndef ENCORE_WORKLOADS_WORKLOAD_H
#define ENCORE_WORKLOADS_WORKLOAD_H

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/module.h"

namespace encore::workloads {

struct Workload
{
    std::string name;  ///< Paper benchmark name, e.g. "175.vpr".
    std::string suite; ///< "SPEC2K-INT", "SPEC2K-FP", or "MEDIABENCH".
    /// Builds a fresh, uninstrumented module.
    std::function<std::unique_ptr<ir::Module>()> build;
    std::string entry = "main";
    /// Arguments for the profiling (train) run.
    std::vector<std::uint64_t> train_args;
    /// Arguments for the evaluation (ref) run.
    std::vector<std::uint64_t> ref_args;
    /// Functions to treat as opaque library calls.
    std::set<std::string> opaque;
};

/// All 23 workloads in suite order (INT, FP, MEDIA).
const std::vector<Workload> &allWorkloads();

/// Lookup by paper name; nullptr if absent.
const Workload *findWorkload(const std::string &name);

/// The workload called `name`. On an unknown name, prints "unknown
/// workload '<name>'; available workloads:" and the suite to stderr,
/// then exits 1: the lookup every binary's workload flag goes through.
const Workload &workloadNamed(const std::string &name);

/// Workloads of one suite.
std::vector<const Workload *> workloadsInSuite(const std::string &suite);

/// The three suite names in presentation order.
const std::vector<std::string> &suiteNames();

} // namespace encore::workloads

#endif // ENCORE_WORKLOADS_WORKLOAD_H
