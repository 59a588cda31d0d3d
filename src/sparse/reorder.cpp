#include "mps/sparse/reorder.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "mps/util/log.h"

namespace mps {

void
validate_permutation(const std::vector<index_t> &perm, index_t n)
{
    MPS_CHECK(perm.size() == static_cast<size_t>(n),
              "permutation length must be ", n);
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (index_t p : perm) {
        MPS_CHECK(p >= 0 && p < n, "permutation entry out of range: ", p);
        MPS_CHECK(!seen[static_cast<size_t>(p)],
                  "duplicate permutation entry: ", p);
        seen[static_cast<size_t>(p)] = true;
    }
}

CsrMatrix
permute_symmetric(const CsrMatrix &m, const std::vector<index_t> &perm)
{
    MPS_CHECK(m.rows() == m.cols(),
              "symmetric permutation needs a square matrix");
    validate_permutation(perm, m.rows());

    // inverse[new_id] = old_id
    std::vector<index_t> inverse(perm.size());
    for (index_t old_id = 0; old_id < m.rows(); ++old_id)
        inverse[static_cast<size_t>(perm[static_cast<size_t>(old_id)])] =
            old_id;

    std::vector<index_t> row_ptr(static_cast<size_t>(m.rows()) + 1, 0);
    std::vector<index_t> col_idx;
    std::vector<value_t> values;
    col_idx.reserve(static_cast<size_t>(m.nnz()));
    values.reserve(static_cast<size_t>(m.nnz()));

    std::vector<std::pair<index_t, value_t>> row_buf;
    for (index_t new_row = 0; new_row < m.rows(); ++new_row) {
        index_t old_row = inverse[static_cast<size_t>(new_row)];
        row_buf.clear();
        for (index_t k = m.row_begin(old_row); k < m.row_end(old_row);
             ++k) {
            row_buf.emplace_back(
                perm[static_cast<size_t>(m.col_idx()[k])],
                m.values()[k]);
        }
        std::sort(row_buf.begin(), row_buf.end());
        for (const auto &[c, v] : row_buf) {
            col_idx.push_back(c);
            values.push_back(v);
        }
        row_ptr[static_cast<size_t>(new_row) + 1] =
            static_cast<index_t>(col_idx.size());
    }
    return CsrMatrix(m.rows(), m.cols(), std::move(row_ptr),
                     std::move(col_idx), std::move(values));
}

std::vector<index_t>
degree_sort_permutation(const CsrMatrix &m, bool descending)
{
    std::vector<index_t> order(static_cast<size_t>(m.rows()));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](index_t a, index_t b) {
                         return descending
                                    ? m.degree(a) > m.degree(b)
                                    : m.degree(a) < m.degree(b);
                     });
    // order[new_id] = old_id; invert to perm[old_id] = new_id.
    std::vector<index_t> perm(order.size());
    for (index_t new_id = 0;
         new_id < static_cast<index_t>(order.size()); ++new_id)
        perm[static_cast<size_t>(order[static_cast<size_t>(new_id)])] =
            new_id;
    return perm;
}

std::vector<index_t>
bfs_permutation(const CsrMatrix &m)
{
    MPS_CHECK(m.rows() == m.cols(), "BFS relabeling needs a square matrix");
    const index_t n = m.rows();
    std::vector<index_t> perm(static_cast<size_t>(n), -1);
    std::vector<bool> visited(static_cast<size_t>(n), false);

    // Visit order seeds: nodes by ascending degree.
    std::vector<index_t> seeds(static_cast<size_t>(n));
    std::iota(seeds.begin(), seeds.end(), 0);
    std::stable_sort(seeds.begin(), seeds.end(),
                     [&](index_t a, index_t b) {
                         return m.degree(a) < m.degree(b);
                     });

    index_t next_label = 0;
    std::vector<index_t> frontier;
    for (index_t seed : seeds) {
        if (visited[static_cast<size_t>(seed)])
            continue;
        std::queue<index_t> queue;
        queue.push(seed);
        visited[static_cast<size_t>(seed)] = true;
        while (!queue.empty()) {
            index_t u = queue.front();
            queue.pop();
            perm[static_cast<size_t>(u)] = next_label++;
            frontier.clear();
            for (index_t k = m.row_begin(u); k < m.row_end(u); ++k) {
                index_t v = m.col_idx()[k];
                if (!visited[static_cast<size_t>(v)]) {
                    visited[static_cast<size_t>(v)] = true;
                    frontier.push_back(v);
                }
            }
            std::sort(frontier.begin(), frontier.end(),
                      [&](index_t a, index_t b) {
                          return m.degree(a) < m.degree(b);
                      });
            for (index_t v : frontier)
                queue.push(v);
        }
    }
    // Every node must have been labeled. Isolated vertices (degree 0)
    // are covered because they seed their own single-node component;
    // this guard turns any future traversal bug into a loud failure
    // instead of a silent -1 in the relabeling.
    MPS_CHECK(next_label == n, "BFS labeled ", next_label, " of ", n,
              " nodes — unreached vertices in the traversal");
    for (index_t p : perm)
        MPS_CHECK(p >= 0, "BFS left an unlabeled vertex");
    return perm;
}

} // namespace mps
