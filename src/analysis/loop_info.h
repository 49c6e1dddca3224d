/**
 * @file
 * Natural-loop detection and the loop nesting forest.
 *
 * The paper's idempotence analysis (§3.1.2) treats loops hierarchically:
 * inner-most loops are summarized first and become pseudo-blocks in the
 * analysis of enclosing regions. Natural loops (back edges whose target
 * dominates their source) are by construction in the "canonical form"
 * the paper requires — a single header and no side entries. Cycles that
 * are *not* natural loops (irreducible control flow) cannot be
 * canonicalized; Encore leaves the enclosing region uninstrumented, which
 * our analysis reports as RegionClass::Unknown.
 */
#ifndef ENCORE_ANALYSIS_LOOP_INFO_H
#define ENCORE_ANALYSIS_LOOP_INFO_H

#include <memory>
#include <vector>

#include "analysis/dominators.h"

namespace encore::analysis {

struct Loop
{
    NodeId header = 0;
    /// All nodes in the loop, sorted ascending (includes the header and
    /// the nodes of any nested loops).
    std::vector<NodeId> blocks;
    /// Sources of back edges into the header.
    std::vector<NodeId> latches;
    Loop *parent = nullptr;
    std::vector<Loop *> subloops;
    /// Nesting depth; top-level loops have depth 1.
    unsigned depth = 1;

    bool contains(NodeId node) const;

    /// Blocks with at least one successor outside the loop, or with no
    /// successors at all (function-exit blocks), in ascending order.
    std::vector<NodeId> exitingBlocks(const DiGraph &graph) const;
};

class LoopInfo
{
  public:
    LoopInfo(const DiGraph &graph, const DominatorTree &dom);

    /// All loops, inner-most first (safe order for bottom-up loop
    /// summarization).
    const std::vector<Loop *> &loopsInnerFirst() const
    {
        return inner_first_;
    }

    /// Inner-most loop containing `node`, or nullptr.
    Loop *loopFor(NodeId node) const;

    /// Loop whose header is `node`, or nullptr.
    Loop *loopWithHeader(NodeId node) const;

    /// True if the graph contains a retreating edge that is not a back
    /// edge — i.e., irreducible control flow exists somewhere.
    bool hasIrreducibleEdges() const { return irreducible_; }

    std::size_t numLoops() const { return storage_.size(); }

  private:
    void discoverLoops(const DiGraph &graph, const DominatorTree &dom);
    void buildForest();
    void detectIrreducible(const DiGraph &graph, const DominatorTree &dom);

    std::vector<std::unique_ptr<Loop>> storage_;
    std::vector<Loop *> inner_first_;
    std::vector<Loop *> innermost_; // per node
    std::vector<Loop *> by_header_; // per node
    bool irreducible_ = false;
};

} // namespace encore::analysis

#endif // ENCORE_ANALYSIS_LOOP_INFO_H
