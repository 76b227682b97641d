#include "match/match_degree.h"

#include <algorithm>
#include <bit>

namespace fastgl {
namespace match {

namespace detail {

int64_t
intersect_merge(std::span<const graph::NodeId> a,
                std::span<const graph::NodeId> b)
{
    size_t i = 0, j = 0;
    int64_t count = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++count;
            ++i;
            ++j;
        }
    }
    return count;
}

int64_t
intersect_gallop(std::span<const graph::NodeId> small,
                 std::span<const graph::NodeId> large)
{
    int64_t count = 0;
    size_t lo = 0;
    for (graph::NodeId x : small) {
        if (lo >= large.size())
            break;
        // Exponential search for the first element >= x, starting at
        // the cursor left by the previous (smaller) element.
        size_t bound = 1;
        while (lo + bound < large.size() && large[lo + bound] < x)
            bound <<= 1;
        const size_t hi = std::min(lo + bound + 1, large.size());
        const auto it = std::lower_bound(large.begin() + lo,
                                         large.begin() + hi, x);
        lo = static_cast<size_t>(it - large.begin());
        if (lo < large.size() && large[lo] == x) {
            ++count;
            ++lo;
        }
    }
    return count;
}

} // namespace detail

int64_t
intersect_sorted(std::span<const graph::NodeId> a,
                 std::span<const graph::NodeId> b)
{
    if (a.empty() || b.empty())
        return 0;
    // Disjoint ranges never overlap; skip the walk entirely.
    if (a.back() < b.front() || b.back() < a.front())
        return 0;
    const auto &small = a.size() <= b.size() ? a : b;
    const auto &large = a.size() <= b.size() ? b : a;
    if (large.size() / small.size() >= detail::kGallopRatio)
        return detail::intersect_gallop(small, large);
    return detail::intersect_merge(a, b);
}

NodeSet::NodeSet(const std::vector<graph::NodeId> &nodes)
{
    static thread_local std::vector<uint64_t> words;

    uint64_t base = 0;
    uint64_t range = 0;
    bool dense = false;
    if (nodes.size() >= detail::kBitmapMinSize) {
        const auto [lo, hi] = std::minmax_element(nodes.begin(), nodes.end());
        // Unsigned offsets: exact for any two IDs, where the signed
        // difference overflows (INT64_MIN .. INT64_MAX).
        base = static_cast<uint64_t>(*lo);
        range = static_cast<uint64_t>(*hi) - base;
        dense = static_cast<double>(nodes.size()) >=
                detail::kBitmapMinDensity * (static_cast<double>(range) + 1.0);
    }
    if (!dense) {
        sorted_ = nodes;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_.erase(std::unique(sorted_.begin(), sorted_.end()),
                      sorted_.end());
        return;
    }

    // One bit per ID of the span; a duplicate sets the same bit. Reading
    // the words in order yields the IDs sorted, and zeroing each word as
    // it is read leaves the bitmap clear for the next set. sorted_ is
    // reserved first, so the scan cannot throw halfway and leave bits.
    const size_t num_words = static_cast<size_t>(range / 64) + 1;
    if (words.size() < num_words)
        words.resize(num_words, 0);
    for (graph::NodeId v : nodes) {
        const uint64_t rel = static_cast<uint64_t>(v) - base;
        words[rel >> 6] |= uint64_t(1) << (rel & 63);
    }
    sorted_.reserve(nodes.size());
    for (size_t w = 0; w < num_words; ++w) {
        uint64_t bits = words[w];
        if (bits == 0)
            continue;
        words[w] = 0;
        const uint64_t word_base = base + (uint64_t(w) << 6);
        do {
            sorted_.push_back(static_cast<graph::NodeId>(
                word_base + static_cast<uint64_t>(std::countr_zero(bits))));
            bits &= bits - 1;
        } while (bits != 0);
    }
}

int64_t
NodeSet::intersection_size(const NodeSet &other) const
{
    return intersect_sorted(sorted_, other.sorted_);
}

void
NodeSet::difference(const NodeSet &other,
                    std::vector<graph::NodeId> &out) const
{
    std::set_difference(sorted_.begin(), sorted_.end(),
                        other.sorted_.begin(), other.sorted_.end(),
                        std::back_inserter(out));
}

bool
NodeSet::contains(graph::NodeId node) const
{
    return std::binary_search(sorted_.begin(), sorted_.end(), node);
}

double
match_degree(const NodeSet &a, const NodeSet &b)
{
    const int64_t smaller = std::min(a.size(), b.size());
    if (smaller == 0)
        return 0.0;
    return static_cast<double>(a.intersection_size(b)) /
           static_cast<double>(smaller);
}

namespace {

/**
 * Compute |sets[i] ∩ sets[j]| for every j > i and call emit(j, count).
 *
 * When row set i is large and dense it is loaded into a thread-local
 * bitmap once, turning each column into O(|j|) probes; the bits are
 * unloaded afterwards so the bitmap is reusable without a full clear.
 * Every path produces the exact count, so the policy never changes
 * results.
 */
template <typename Emit>
void
intersect_row(const std::vector<NodeSet> &sets, size_t i, Emit &&emit)
{
    static thread_local util::Bitmap bitmap;

    const size_t n = sets.size();
    const auto &a = sets[i].sorted();
    const size_t cols = n - i - 1;

    uint64_t span = 0;
    bool use_bitmap = false;
    if (!a.empty() && cols >= 2 && a.size() >= detail::kBitmapMinSize) {
        span = static_cast<uint64_t>(a.back() - a.front()) + 1;
        use_bitmap = static_cast<double>(a.size()) >=
                     detail::kBitmapMinDensity * static_cast<double>(span);
    }

    if (!use_bitmap) {
        for (size_t j = i + 1; j < n; ++j)
            emit(j, intersect_sorted(a, sets[j].sorted()));
        return;
    }

    const graph::NodeId base = a.front();
    bitmap.resize(static_cast<size_t>(span));
    bitmap.load<graph::NodeId>(a, base);
    for (size_t j = i + 1; j < n; ++j) {
        const auto &b = sets[j].sorted();
        int64_t count = 0;
        for (graph::NodeId v : b) {
            if (v < base)
                continue;
            const auto rel = static_cast<uint64_t>(v - base);
            if (rel >= span)
                break;
            count += bitmap.test(static_cast<size_t>(rel)) ? 1 : 0;
        }
        emit(j, count);
    }
    bitmap.unload<graph::NodeId>(a, base);
}

/**
 * Run @p row_fn(i) for every i in [0, n). With a pool, rows are strided
 * across shards (shard s handles rows s, s + S, ...), which balances the
 * triangular per-row cost without changing which thread computes which
 * cell's value — the outputs are positionally disjoint, so the result is
 * bit-identical for any worker count.
 */
void
for_each_row(size_t n, util::ThreadPool *pool,
             const std::function<void(size_t)> &row_fn)
{
    if (pool == nullptr || pool->size() <= 1 || n < 4) {
        for (size_t i = 0; i < n; ++i)
            row_fn(i);
        return;
    }
    const size_t shards = std::min(n, pool->size() * 4);
    pool->parallel_for(shards, [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
            for (size_t i = s; i < n; i += shards)
                row_fn(i);
        }
    });
}

std::vector<std::vector<double>>
degree_matrix_impl(const std::vector<NodeSet> &sets,
                   util::ThreadPool *pool)
{
    const size_t n = sets.size();
    std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
    for_each_row(n, pool, [&](size_t i) {
        m[i][i] = 1.0;
        const int64_t size_i = sets[i].size();
        intersect_row(sets, i, [&](size_t j, int64_t count) {
            const int64_t smaller = std::min(size_i, sets[j].size());
            const double d =
                smaller == 0 ? 0.0
                             : static_cast<double>(count) /
                                   static_cast<double>(smaller);
            m[i][j] = d;
            m[j][i] = d;
        });
    });
    return m;
}

} // namespace

std::vector<std::vector<double>>
match_degree_matrix(const std::vector<NodeSet> &sets)
{
    return degree_matrix_impl(sets, nullptr);
}

std::vector<std::vector<double>>
match_degree_matrix(const std::vector<NodeSet> &sets,
                    util::ThreadPool &pool)
{
    return degree_matrix_impl(sets, &pool);
}

std::vector<int64_t>
pairwise_overlap_counts(const std::vector<NodeSet> &sets,
                        util::ThreadPool *pool)
{
    const size_t n = sets.size();
    std::vector<int64_t> overlap(n * n, 0);
    for_each_row(n, pool, [&](size_t i) {
        overlap[i * n + i] = sets[i].size();
        intersect_row(sets, i, [&](size_t j, int64_t count) {
            overlap[i * n + j] = count;
            overlap[j * n + i] = count;
        });
    });
    return overlap;
}

MatchDegreeStats
match_degree_stats(const std::vector<std::vector<double>> &matrix)
{
    MatchDegreeStats stats;
    const size_t n = matrix.size();
    if (n < 2)
        return stats;
    double sum = 0.0;
    double lo = 1.0, hi = 0.0;
    int64_t pairs = 0;
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            const double d = matrix[i][j];
            sum += d;
            lo = std::min(lo, d);
            hi = std::max(hi, d);
            ++pairs;
        }
    }
    stats.average = sum / static_cast<double>(pairs);
    stats.min = lo;
    stats.max = hi;
    return stats;
}

MatchDegreeStats
match_degree_stats(const std::vector<NodeSet> &sets)
{
    if (sets.size() < 2)
        return MatchDegreeStats{};
    return match_degree_stats(match_degree_matrix(sets));
}

} // namespace match
} // namespace fastgl
