#include "analysis/loop_info.h"

#include <algorithm>
#include <map>
#include <set>

#include "support/diagnostics.h"

namespace encore::analysis {

bool
Loop::contains(NodeId node) const
{
    return std::binary_search(blocks.begin(), blocks.end(), node);
}

std::vector<NodeId>
Loop::exitingBlocks(const DiGraph &graph) const
{
    std::vector<NodeId> exiting;
    for (const NodeId node : blocks) {
        if (graph.succs(node).empty()) {
            exiting.push_back(node);
            continue;
        }
        for (const NodeId succ : graph.succs(node)) {
            if (!contains(succ)) {
                exiting.push_back(node);
                break;
            }
        }
    }
    return exiting;
}

LoopInfo::LoopInfo(const DiGraph &graph, const DominatorTree &dom)
    : innermost_(graph.numNodes(), nullptr),
      by_header_(graph.numNodes(), nullptr)
{
    discoverLoops(graph, dom);
    buildForest();
    detectIrreducible(graph, dom);
}

void
LoopInfo::discoverLoops(const DiGraph &graph, const DominatorTree &dom)
{
    // Group back edges by header: the natural loop of header h is the
    // union over all back edges (latch -> h) of the nodes that can reach
    // the latch without passing through h.
    std::map<NodeId, std::vector<NodeId>> latches_by_header;
    for (NodeId node = 0; node < graph.numNodes(); ++node) {
        if (!dom.isReachable(node))
            continue;
        for (const NodeId succ : graph.succs(node)) {
            if (dom.dominates(succ, node))
                latches_by_header[succ].push_back(node);
        }
    }

    for (auto &[header, latches] : latches_by_header) {
        std::set<NodeId> body{header};
        std::vector<NodeId> worklist;
        for (const NodeId latch : latches) {
            if (body.insert(latch).second)
                worklist.push_back(latch);
        }
        while (!worklist.empty()) {
            const NodeId node = worklist.back();
            worklist.pop_back();
            for (const NodeId pred : graph.preds(node)) {
                if (!dom.isReachable(pred))
                    continue;
                if (body.insert(pred).second)
                    worklist.push_back(pred);
            }
        }

        auto loop = std::make_unique<Loop>();
        loop->header = header;
        loop->blocks.assign(body.begin(), body.end());
        loop->latches = latches;
        std::sort(loop->latches.begin(), loop->latches.end());
        by_header_[header] = loop.get();
        storage_.push_back(std::move(loop));
    }
}

void
LoopInfo::buildForest()
{
    // Sort by size so smaller (inner) loops come first; containment of
    // the header then gives the innermost-parent relationship.
    std::vector<Loop *> by_size;
    for (auto &loop : storage_)
        by_size.push_back(loop.get());
    std::sort(by_size.begin(), by_size.end(),
              [](const Loop *a, const Loop *b) {
                  if (a->blocks.size() != b->blocks.size())
                      return a->blocks.size() < b->blocks.size();
                  return a->header < b->header;
              });

    inner_first_ = by_size;

    // Innermost loop per node: first (smallest) loop containing it.
    for (Loop *loop : by_size) {
        for (const NodeId node : loop->blocks) {
            if (!innermost_[node])
                innermost_[node] = loop;
        }
    }

    // Parent: the innermost loop strictly containing the header that is
    // not the loop itself.
    for (Loop *loop : by_size) {
        Loop *candidate = nullptr;
        for (Loop *other : by_size) {
            if (other == loop)
                continue;
            if (other->blocks.size() <= loop->blocks.size())
                continue;
            if (other->contains(loop->header)) {
                candidate = other;
                break; // by_size order makes this the smallest such loop
            }
        }
        loop->parent = candidate;
        if (candidate)
            candidate->subloops.push_back(loop);
    }

    // Depths, top-down.
    for (Loop *loop : by_size) {
        unsigned depth = 1;
        for (Loop *walk = loop->parent; walk; walk = walk->parent)
            ++depth;
        loop->depth = depth;
    }
}

void
LoopInfo::detectIrreducible(const DiGraph &graph, const DominatorTree &dom)
{
    // A retreating edge u->v (v is on the DFS stack when u->v is
    // examined) that is not a back edge (v does not dominate u) implies
    // irreducible control flow.
    const NodeId entry = dom.entry();
    std::vector<std::uint8_t> state(graph.numNodes(), 0);
    std::vector<std::pair<NodeId, std::size_t>> stack;
    stack.emplace_back(entry, 0);
    state[entry] = 1;
    while (!stack.empty()) {
        auto &[node, child] = stack.back();
        if (child < graph.succs(node).size()) {
            const NodeId next = graph.succs(node)[child++];
            if (state[next] == 1 && !dom.dominates(next, node)) {
                irreducible_ = true;
                return;
            }
            if (state[next] == 0) {
                state[next] = 1;
                stack.emplace_back(next, 0);
            }
        } else {
            state[node] = 2;
            stack.pop_back();
        }
    }
}

Loop *
LoopInfo::loopFor(NodeId node) const
{
    ENCORE_ASSERT(node < innermost_.size(), "node out of range");
    return innermost_[node];
}

Loop *
LoopInfo::loopWithHeader(NodeId node) const
{
    ENCORE_ASSERT(node < by_header_.size(), "node out of range");
    return by_header_[node];
}

} // namespace encore::analysis
