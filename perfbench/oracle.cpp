#include <algorithm>

#include "bench.h"

namespace perfbench {

using fastgl::graph::EdgeId;
using fastgl::graph::NodeId;

SubgraphOracle::SubgraphOracle(const fastgl::graph::CsrGraph &graph,
                               std::vector<int> fanouts)
    : graph_(graph), fanouts_(std::move(fanouts)),
      stamp_(static_cast<size_t>(graph.num_nodes()), 0)
{
    for (NodeId u = 0; u < graph_.num_nodes() && sorted_rows_; ++u) {
        const auto nbrs = graph_.neighbors(u);
        sorted_rows_ = std::is_sorted(nbrs.begin(), nbrs.end());
    }
}

bool
SubgraphOracle::has_edge(NodeId target, NodeId source) const
{
    const auto nbrs = graph_.neighbors(target);
    return sorted_rows_
               ? std::binary_search(nbrs.begin(), nbrs.end(), source)
               : std::find(nbrs.begin(), nbrs.end(), source) != nbrs.end();
}

std::string
SubgraphOracle::check(const fastgl::sample::SampledSubgraph &sg,
                      std::span<const NodeId> seeds)
{
    const Clock::time_point start = Clock::now();
    ++checked_;
    std::string error;
    const auto fail = [&](const std::string &what) {
        if (error.empty())
            error = what;
    };

    // Unique global IDs; a fresh stamp per subgraph avoids clearing.
    if (++epoch_ == 0) {
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
    }
    const auto num_local = static_cast<NodeId>(sg.nodes.size());
    for (NodeId u : sg.nodes) {
        if (u < 0 || u >= graph_.num_nodes()) {
            fail("node outside the graph");
            break;
        }
        if (stamp_[static_cast<size_t>(u)] == epoch_) {
            fail("duplicate global ID");
            break;
        }
        stamp_[static_cast<size_t>(u)] = epoch_;
    }

    // Seeds first, in order (the batch splitter hands distinct seeds).
    if (sg.num_seeds != static_cast<int64_t>(seeds.size()) ||
        sg.nodes.size() < seeds.size() ||
        !std::equal(seeds.begin(), seeds.end(), sg.nodes.begin()))
        fail("seeds are not the first local IDs");

    // Block h expands hop h: dense targets 0..frontier-1, each with
    // min(degree, fanout) CSR neighbours plus its self loop last.
    const int hops = static_cast<int>(fanouts_.size());
    if (static_cast<int>(sg.blocks.size()) != hops)
        fail("block count differs from the hop count");
    int64_t frontier = sg.num_seeds;
    for (int h = 0; h < hops && error.empty(); ++h) {
        const fastgl::sample::LayerBlock &b = sg.blocks[size_t(h)];
        const int fanout = fanouts_[size_t(hops - 1 - h)];
        if (b.num_targets() < frontier || b.num_targets() > num_local ||
            b.indptr.size() != b.targets.size() + 1 ||
            b.indptr.front() != 0 ||
            b.indptr.back() != static_cast<EdgeId>(b.sources.size())) {
            fail("malformed block");
            break;
        }
        frontier = b.num_targets();
        for (int64_t t = 0; t < b.num_targets() && error.empty(); ++t) {
            if (b.targets[size_t(t)] != static_cast<NodeId>(t)) {
                fail("target local IDs are not dense");
                break;
            }
            const NodeId u = sg.nodes[size_t(t)];
            const EdgeId begin = b.indptr[size_t(t)];
            const EdgeId end = b.indptr[size_t(t) + 1];
            const EdgeId want =
                std::min<EdgeId>(graph_.degree(u), fanout) + 1;
            if (end - begin != want) {
                fail("target drew the wrong neighbour count");
                break;
            }
            for (EdgeId e = begin; e < end; ++e) {
                const NodeId local = b.sources[size_t(e)];
                if (local < 0 || local >= num_local) {
                    fail("source local ID out of range");
                    break;
                }
                const NodeId v = sg.nodes[size_t(local)];
                const bool self = e == end - 1;
                if (self ? v != u : !has_edge(u, v)) {
                    fail(self ? "missing self loop"
                              : "sampled edge absent from the graph");
                    break;
                }
            }
        }
    }
    seconds_ += seconds_since(start);
    return error;
}

} // namespace perfbench
