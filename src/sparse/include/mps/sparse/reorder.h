/**
 * @file
 * Graph reordering utilities.
 *
 * The paper stresses that MergePath-SpMM needs "no preprocessing,
 * reordering, or extension of the sparse input matrix". These helpers
 * implement the reorderings a practitioner might otherwise reach for —
 * degree sorting and BFS/Cuthill-McKee-style relabeling — so their
 * (in)effectiveness against load imbalance can be measured (see the
 * ablation bench and `mps_tool reorder`): sorting by degree
 * concentrates the evil rows in one thread's chunk instead of removing
 * the imbalance. No SpMM path executes on a reordered matrix: a
 * degree or RCM row order measured no faster than the natural one on
 * either GCN benchmark graph (DESIGN §8), so every output row lands on
 * its traversal row.
 */
#ifndef MPS_SPARSE_REORDER_H
#define MPS_SPARSE_REORDER_H

#include <vector>

#include "mps/sparse/csr_matrix.h"

namespace mps {

/**
 * Relabel a square matrix's rows and columns by @p perm, where
 * perm[old_id] == new_id. perm must be a permutation of [0, rows).
 * Row contents stay sorted by column.
 */
CsrMatrix permute_symmetric(const CsrMatrix &m,
                            const std::vector<index_t> &perm);

/**
 * Permutation sorting nodes by degree (stable). @p descending puts the
 * evil rows first.
 */
std::vector<index_t> degree_sort_permutation(const CsrMatrix &m,
                                             bool descending = true);

/**
 * BFS relabeling from the minimum-degree node, visiting neighbors in
 * ascending-degree order and restarting on every connected component.
 * Improves locality of banded-ish graphs; does nothing for load
 * balance.
 */
std::vector<index_t> bfs_permutation(const CsrMatrix &m);

/** Panics unless @p perm is a valid permutation of [0, n). */
void validate_permutation(const std::vector<index_t> &perm, index_t n);

} // namespace mps

#endif // MPS_SPARSE_REORDER_H
