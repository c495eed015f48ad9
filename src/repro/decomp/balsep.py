"""``BalSep`` — ``Check(GHD, k)`` via balanced separators (Section 4.4).

The algorithm decomposes *extended subhypergraphs* ``H' ∪ Sp``: a subset of
real edges plus a set of *special edges* (vertex sets standing for bags
created higher up, which keep the recursion connected — Definition 6).  At
every step it picks a λ-label whose covered vertex set is a **balanced
separator** of ``H' ∪ Sp`` (every [B(λ)]-component contains at most half the
edges, Definition 7); Lemma 1 guarantees a GHD of width ≤ k can always be
rooted at such a separator, so exhausting all balanced separators proves a
"no" answer (Theorem 2).

Balancedness halves the instance at every level, which is why the paper
finds ``BalSep`` particularly fast at *refuting* ``ghw ≤ k`` — there are far
fewer balanced separators than arbitrary ones.

The search state lives on the integer-bitset kernel
(:mod:`repro.core.bitset`): a state is a ``(real_edges_mask,
special_edges_mask)`` int pair (specials are interned per distinct vertex
set and indexed into a side table), balancedness checks are popcounts over
mask components, and names only reappear when :class:`DecompositionNode`
objects are built.  The pre-bitset implementation is preserved as
:class:`repro.decomp.reference.ReferenceBalSep`.

Like the BIP variants, the separator iterator first tries combinations of
full edges of ``H`` and falls back to combinations containing subedges from
``f(H, k)`` (restricted to the edges that can matter for the current
subhypergraph).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.bitset import (
    HypergraphView,
    dedupe_effective,
    iter_bits,
    mask_components_from,
    mask_covering_combinations,
    scoped_candidates,
)
from repro.core.decomposition import Decomposition, DecompositionNode
from repro.core.hypergraph import Hypergraph
from repro.core.subedges import DEFAULT_SUBEDGE_BUDGET, mask_subedge_entries
from repro.errors import ValidationError
from repro.perf import counters
from repro.utils.deadline import Deadline

__all__ = ["BalSep", "check_ghd_balsep"]


class BalSep:
    """Recursive balanced-separator search for ``Check(GHD, k)``."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        k: int,
        deadline: Deadline | None = None,
        subedge_budget: int = DEFAULT_SUBEDGE_BUDGET,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.hypergraph = hypergraph
        self.k = k
        self.deadline = deadline or Deadline.unlimited()
        self.subedge_budget = subedge_budget
        self._view = HypergraphView.of(hypergraph)
        self._masks = self._view.edge_masks
        # Special edges: one id per distinct vertex mask.
        self._special_masks: list[int] = []
        self._special_ids: dict[int, int] = {}
        # Subedges used inside λ-labels: vertex mask + parent edge index.
        self._subedge_masks: list[int] = []
        self._subedge_parent_idx: list[int] = []
        self._subedge_pool: list[int] | None = None
        self._failures: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------- API

    def decompose(self) -> Decomposition | None:
        """Return a GHD of width ≤ k, or ``None`` when ``ghw(H) > k``."""
        if not self._masks:
            return Decomposition(
                self.hypergraph, DecompositionNode(frozenset(), {}), kind="GHD"
            )
        root = self._decompose(self._view.all_edges, 0)
        if root is None:
            return None
        self._fix_covers(root)
        return Decomposition(self.hypergraph, root, kind="GHD")

    # ------------------------------------------------------------- plumbing

    def _special_name(self, vertices: frozenset[str]) -> str:
        """Canonical ``__spN`` name for a special edge's vertex set."""
        return f"__sp{self._special_id(self._view.vertices_mask(vertices))}"

    def _special_id(self, vertices: int) -> int:
        sid = self._special_ids.get(vertices)
        if sid is None:
            sid = len(self._special_masks)
            self._special_ids[vertices] = sid
            self._special_masks.append(vertices)
        return sid

    def _member_lists(
        self, real: int, special: int
    ) -> tuple[list[int], list[int], list[int]]:
        """Edge indices, special ids, and vertex masks of a state's members."""
        real_idx = list(iter_bits(real))
        spec_idx = list(iter_bits(special))
        masks = self._masks
        specials = self._special_masks
        member_masks = [masks[i] for i in real_idx]
        member_masks.extend(specials[j] for j in spec_idx)
        return real_idx, spec_idx, member_masks

    def _member_name(self, real_idx: list[int], spec_idx: list[int], p: int) -> str:
        if p < len(real_idx):
            return self._view.edge_names[real_idx[p]]
        return f"__sp{spec_idx[p - len(real_idx)]}"

    # ---------------------------------------------------------------- search

    def _decompose(self, real: int, special: int) -> DecompositionNode | None:
        """Decompose the extended subhypergraph ``real ∪ special``."""
        self.deadline.check()
        key = (real, special)
        if key in self._failures:
            return None
        view = self._view
        real_idx, spec_idx, member_masks = self._member_lists(real, special)
        total = len(member_masks)

        # Base cases (Algorithm 2, lines 5–12).
        if total == 1:
            return DecompositionNode(
                view.vertex_names_of(member_masks[0]),
                {self._member_name(real_idx, spec_idx, 0): 1.0},
            )
        if total == 2:
            child = DecompositionNode(
                view.vertex_names_of(member_masks[1]),
                {self._member_name(real_idx, spec_idx, 1): 1.0},
            )
            return DecompositionNode(
                view.vertex_names_of(member_masks[0]),
                {self._member_name(real_idx, spec_idx, 0): 1.0},
                [child],
            )

        scope = 0
        for m in member_masks:
            scope |= m
        entries = [(1 << p, m) for p, m in enumerate(member_masks)]
        seen_bags: set[int] = set()
        n_real = len(real_idx)

        for bag_full, cover_names in self._balanced_separators(entries, scope, total):
            self.deadline.check()
            # Restrict the bag to the current scope: λ-edges are global and
            # may contain vertices foreign to this extended subhypergraph;
            # keeping them would break connectedness across sibling subtrees.
            bag = bag_full & scope
            if bag in seen_bags:
                continue
            seen_bags.add(bag)

            child_states = mask_components_from(entries, bag)
            new_special = self._special_id(bag)
            sub_decomps: list[DecompositionNode] = []
            success = True
            for comp_members, _ in child_states:
                comp_real = 0
                comp_special = 1 << new_special
                for p in iter_bits(comp_members):
                    if p < n_real:
                        comp_real |= 1 << real_idx[p]
                    else:
                        comp_special |= 1 << spec_idx[p - n_real]
                child = self._decompose(comp_real, comp_special)
                if child is None:
                    success = False
                    break
                sub_decomps.append(child)
            if not success:
                continue
            cover = {name: 1.0 for name in cover_names}
            return self._build_ghd(
                view.vertex_names_of(bag), cover, sub_decomps, new_special
            )

        self._failures.add(key)
        return None

    # ----------------------------------------------------------- enumeration

    def _subedges(self) -> list[int]:
        """Global ``f(H, k)`` subedge ids, generated once on demand."""
        if self._subedge_pool is None:
            pool: list[int] = []
            for mask, parent in mask_subedge_entries(
                self._masks,
                self.k,
                budget=self.subedge_budget,
                deadline=self.deadline,
            ):
                pool.append(len(self._subedge_masks))
                self._subedge_masks.append(mask)
                self._subedge_parent_idx.append(parent)
            self._subedge_pool = pool
        return self._subedge_pool

    def _balanced_separators(
        self,
        entries: list[tuple[int, int]],
        scope: int,
        total: int,
    ) -> Iterator[tuple[int, tuple[str, ...]]]:
        """All λ-candidates (≤ k edges of ``H`` / subedges) that balance.

        Yields ``(bag_union_mask, cover_names)`` pairs; the caller restricts
        the bag to the scope and converts at the node boundary.
        """
        masks = self._masks
        names = self._view.edge_names
        # One representative per effective mask (candidate ∩ scope): the bag
        # is scope-restricted and the members live inside the scope, so
        # candidates sharing an effective mask yield identical bags,
        # components and balance verdicts.
        seen_effective: set[int] = set()
        full, full_masks = scoped_candidates(masks, scope, names, seen_effective)
        limit = total / 2

        def balanced(bag: int) -> bool:
            counters.balance_checks += 1
            return all(
                members.bit_count() <= limit
                for members, _ in mask_components_from(entries, bag)
            )

        for combo in mask_covering_combinations(
            full_masks, 0, 0, self.k, self.deadline, require_primary=False
        ):
            bag = 0
            for j in combo:
                bag |= full_masks[j]
            if balanced(bag):
                yield bag, tuple(names[full[j]] for j in combo)

        sub_ids, sub_masks = dedupe_effective(
            ((s, self._subedge_masks[s]) for s in self._subedges()),
            scope,
            seen_effective,
        )
        if not sub_ids:
            return
        n_sub = len(sub_ids)
        candidate_masks = sub_masks + full_masks
        for combo in mask_covering_combinations(
            candidate_masks, n_sub, 0, self.k, self.deadline, require_primary=True
        ):
            bag = 0
            for j in combo:
                bag |= candidate_masks[j]
            if balanced(bag):
                yield bag, tuple(
                    f"__bsub{sub_ids[j]}" if j < n_sub else names[full[j - n_sub]]
                    for j in combo
                )

    # ------------------------------------------------------------- assembly

    def _build_ghd(
        self,
        bag: frozenset[str],
        cover: dict[str, float],
        sub_decomps: list[DecompositionNode],
        special_id: int,
    ) -> DecompositionNode:
        """Function ``BuildGHD``: merge the child GHDs below a new root.

        Each child decomposition covers the special edge ``bag`` somewhere
        (condition 3 of Definition 8).  We re-root the child at that node;
        if it is the dedicated special leaf (λ = {special}), its children are
        attached to the new root directly, otherwise the re-rooted node
        itself is attached (its bag contains the special edge, which keeps
        all shared vertices connected through the new root).
        """
        node = DecompositionNode(bag, cover)
        special_name = f"__sp{special_id}"
        special_set = self._view.vertex_names_of(self._special_masks[special_id])
        for child in sub_decomps:
            target = _find_special_leaf(child, special_name)
            if target is not None:
                rerooted = _reroot(child, target)
                node.children.extend(rerooted.children)
                continue
            target = _find_covering_node(child, special_set)
            if target is None:  # pragma: no cover - contract of Decompose
                raise ValidationError(
                    "child decomposition does not cover its connecting special edge"
                )
            node.children.append(_reroot(child, target))
        return node

    def _fix_covers(self, root: DecompositionNode) -> None:
        """Swap subedges in λ-labels for their original parent edges."""
        edge_names = self._view.edge_names
        stack = [root]
        while stack:
            node = stack.pop()
            fixed: dict[str, float] = {}
            for name, weight in node.cover.items():
                if name.startswith("__bsub") and name not in self._view.edge_bit:
                    name = edge_names[self._subedge_parent_idx[int(name[6:])]]
                elif name.startswith("__sp"):  # pragma: no cover - invariant
                    raise ValidationError("special edge survived into the final GHD")
                fixed[name] = max(fixed.get(name, 0.0), weight)
            node.cover = fixed
            stack.extend(node.children)


# ---------------------------------------------------------------- tree utils


def _find_special_leaf(
    root: DecompositionNode, special_name: str
) -> DecompositionNode | None:
    """The unique node with λ = {special_name}, if it exists."""
    stack = [root]
    while stack:
        node = stack.pop()
        if set(node.cover) == {special_name}:
            return node
        stack.extend(node.children)
    return None


def _find_covering_node(
    root: DecompositionNode, vertices: frozenset[str]
) -> DecompositionNode | None:
    """Any node whose bag contains ``vertices``."""
    stack = [root]
    while stack:
        node = stack.pop()
        if vertices <= node.bag:
            return node
        stack.extend(node.children)
    return None


def _reroot(root: DecompositionNode, target: DecompositionNode) -> DecompositionNode:
    """Re-root the tree at ``target`` (nodes are reused, children rewritten)."""
    if target is root:
        return root
    parents: dict[int, DecompositionNode | None] = {id(root): None}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            parents[id(child)] = node
            stack.append(child)
    # Walk from target to root, flipping parent links.
    node: DecompositionNode | None = target
    prev: DecompositionNode | None = None
    while node is not None:
        parent = parents[id(node)]
        if prev is not None:
            node.children = [c for c in node.children if c is not prev]
        if parent is not None:
            node.children = list(node.children) + [parent]
        node, prev = parent, node
    # After flipping, `parent` chains now point downwards from target.
    return target


def check_ghd_balsep(
    hypergraph: Hypergraph,
    k: int,
    deadline: Deadline | None = None,
    subedge_budget: int = DEFAULT_SUBEDGE_BUDGET,
) -> Decomposition | None:
    """Solve ``Check(GHD, k)`` with the balanced-separator algorithm."""
    return BalSep(
        hypergraph, k, deadline=deadline, subedge_budget=subedge_budget
    ).decompose()
