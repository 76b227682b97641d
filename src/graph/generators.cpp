#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/graph_builder.h"
#include "util/logging.h"

namespace fastgl {
namespace graph {

namespace {

/** Smallest power of two >= n. */
NodeId
ceil_pow2(NodeId n)
{
    NodeId p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

CsrGraph
generate_rmat(const RmatParams &params)
{
    FASTGL_CHECK(params.num_nodes > 1, "need at least 2 nodes");
    FASTGL_CHECK(params.a + params.b + params.c < 1.0,
                 "quadrant probabilities must sum below 1");
    const NodeId side = ceil_pow2(params.num_nodes);
    int levels = 0;
    while ((NodeId(1) << levels) < side)
        ++levels;

    util::Rng rng(params.seed);
    GraphBuilder builder(params.num_nodes);
    const auto budget =
        static_cast<size_t>(std::max<EdgeId>(params.num_edges, 0));
    builder.reserve(budget * (params.undirected ? 2 : 1));
    const double ab = params.a + params.b;
    const double abc = ab + params.c;

    for (EdgeId e = 0; e < params.num_edges; ++e) {
        NodeId src = 0, dst = 0;
        for (int level = 0; level < levels; ++level) {
            const double r = rng.next_double();
            src <<= 1;
            dst <<= 1;
            if (r < params.a) {
                // top-left: neither bit set
            } else if (r < ab) {
                dst |= 1;
            } else if (r < abc) {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        // Fold out-of-range IDs back into range (keeps skew).
        src %= params.num_nodes;
        dst %= params.num_nodes;
        if (src == dst)
            continue;
        if (params.undirected)
            builder.add_undirected_edge(src, dst);
        else
            builder.add_edge(src, dst);
    }
    return builder.build(true);
}

CsrGraph
generate_power_law(const PowerLawParams &params)
{
    FASTGL_CHECK(params.num_nodes > 1, "need at least 2 nodes");
    FASTGL_CHECK(params.exponent > 1.0, "exponent must exceed 1");
    util::Rng rng(params.seed);

    // Draw an expected degree for each node from a (discrete) Pareto
    // distribution, then rescale to the requested average degree.
    const NodeId n = params.num_nodes;
    std::vector<double> weight(n);
    double total = 0.0;
    const double alpha = params.exponent - 1.0;
    for (NodeId u = 0; u < n; ++u) {
        const double uniform = std::max(rng.next_double(), 1e-12);
        double w = static_cast<double>(params.min_degree) *
                   std::pow(uniform, -1.0 / alpha);
        // Clip the heavy tail so a single hub cannot absorb the edge budget.
        w = std::min(w, std::sqrt(static_cast<double>(n)) *
                            params.avg_degree);
        weight[u] = w;
        total += w;
    }
    const double scale =
        params.avg_degree * static_cast<double>(n) / total;
    for (double &w : weight)
        w *= scale;

    // Chung-Lu sampling via the weighted "fitness" model: pick endpoints
    // proportional to weight using an alias-free prefix-sum search.
    std::vector<double> prefix(n + 1, 0.0);
    for (NodeId u = 0; u < n; ++u)
        prefix[u + 1] = prefix[u] + weight[u];
    auto draw = [&]() -> NodeId {
        const double r = rng.next_double() * prefix[n];
        auto it = std::upper_bound(prefix.begin(), prefix.end(), r);
        NodeId u = static_cast<NodeId>(it - prefix.begin()) - 1;
        return std::clamp<NodeId>(u, 0, n - 1);
    };

    const EdgeId target_edges = static_cast<EdgeId>(
        params.avg_degree * static_cast<double>(n) /
        (params.undirected ? 2.0 : 1.0));
    GraphBuilder builder(n);
    // Drawn edges plus the ring backbone below.
    const auto budget =
        static_cast<size_t>(std::max<EdgeId>(target_edges, 0));
    builder.reserve(budget * (params.undirected ? 2 : 1) +
                    2 * static_cast<size_t>(n));
    for (EdgeId e = 0; e < target_edges; ++e) {
        NodeId u = draw();
        NodeId v = draw();
        if (u == v)
            continue;
        if (params.undirected)
            builder.add_undirected_edge(u, v);
        else
            builder.add_edge(u, v);
    }

    // Guarantee the minimum degree with a ring backbone so no node is
    // isolated (isolated nodes break the samplers' invariants).
    for (NodeId u = 0; u < n; ++u)
        builder.add_undirected_edge(u, (u + 1) % n);

    return builder.build(true);
}

CsrGraph
generate_ring(NodeId num_nodes, int chords_per_node, uint64_t seed)
{
    FASTGL_CHECK(num_nodes > 2, "ring needs at least 3 nodes");
    util::Rng rng(seed);
    GraphBuilder builder(num_nodes);
    builder.reserve(2 * static_cast<size_t>(num_nodes) *
                    static_cast<size_t>(1 + std::max(chords_per_node, 0)));
    for (NodeId u = 0; u < num_nodes; ++u) {
        builder.add_undirected_edge(u, (u + 1) % num_nodes);
        for (int c = 0; c < chords_per_node; ++c) {
            NodeId v = static_cast<NodeId>(
                rng.next_below(static_cast<uint64_t>(num_nodes)));
            if (v != u)
                builder.add_undirected_edge(u, v);
        }
    }
    return builder.build(true);
}

} // namespace graph
} // namespace fastgl
