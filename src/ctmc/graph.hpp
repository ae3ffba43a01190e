// Graph algorithms on the sparsity pattern of a transition matrix.
//
// Qualitative model-checking steps (the Prob0/Prob1 precomputations for
// unbounded until, and the bottom-strongly-connected-component analysis
// behind the steady-state operator) only depend on which transitions exist,
// not on their rates.  These routines treat a square CsrMatrix as a
// directed graph: edge s -> s' iff a non-zero entry (s, s') is stored.
#pragma once

#include <cstddef>
#include <vector>

#include "matrix/csr.hpp"
#include "util/state_set.hpp"

namespace csrl {

/// States reachable from `from` (inclusive) along stored edges.
StateSet forward_reachable(const CsrMatrix& adjacency, const StateSet& from);

/// States that can reach `targets` along a path whose intermediate states
/// (i.e. all states before the target is hit, including the start state)
/// lie in `through`.  Targets themselves are always included in the result.
/// This is the classic Prob0-style backward search of PCTL/CSL checking.
StateSet backward_reachable(const CsrMatrix& adjacency, const StateSet& targets,
                            const StateSet& through);

/// Qualitative precomputation of unbounded until Phi U Psi: `zero` holds
/// the states that cannot reach Psi through Phi \ Psi (Prob0), `one` the
/// states that cannot avoid doing so (Prob1).  With Phi = all states this
/// is the almost-sure reachability analysis of F Psi.
struct UntilPrecomputation {
  StateSet zero;
  StateSet one;
};
UntilPrecomputation qualitative_until(const CsrMatrix& adjacency,
                                      const StateSet& phi,
                                      const StateSet& psi);

/// Strongly connected components in reverse topological order of the
/// condensation (Tarjan); each component lists its member states.
std::vector<std::vector<std::size_t>> strongly_connected_components(
    const CsrMatrix& adjacency);

/// Bottom strongly connected components: SCCs with no edge leaving them.
/// Every infinite CTMC path eventually settles in one of these, which is
/// what grounds the steady-state operator's semantics.
std::vector<StateSet> bottom_sccs(const CsrMatrix& adjacency);

/// Reverse Cuthill-McKee ordering of the symmetrised sparsity pattern:
/// returns a permutation `perm` with perm[new_index] = old_index that
/// reduces the bandwidth of the permuted matrix, clustering each state's
/// neighbours near it so the SpMV-heavy iteration loops walk memory with
/// better locality.  Deterministic: each BFS component starts from its
/// minimum-degree state (ties by index) and neighbours are visited in
/// (degree, index) order.  Purely a performance device — callers apply
/// the inverse permutation to their results, so public numbering never
/// changes (see CheckOptions::reorder_states).
std::vector<std::size_t> reverse_cuthill_mckee(const CsrMatrix& adjacency);

}  // namespace csrl
