"""Search states: an immutable snapshot of a list of Difftrees.

The MCTS search tree is built over these states.  A state caches its
fingerprint (used to detect revisits) and whether it is terminal (reached by
the special TERMINATE transition, which every state offers).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..difftree.tree import Difftree


class SearchState:
    """A node-value in the search space: a list of Difftrees."""

    def __init__(self, trees: Sequence[Difftree], terminal: bool = False) -> None:
        self.trees = list(trees)
        self.terminal = terminal
        self._fingerprint: Optional[str] = None
        self._trees_fingerprint: Optional[str] = None

    def trees_fingerprint(self) -> str:
        """Identity of the tree list alone, ignoring the terminal marker.

        A terminal state holds the same trees as its non-terminal twin, so
        anything derived purely from the trees — reward estimates in
        particular — is keyed by this fingerprint rather than
        :meth:`fingerprint`.
        """
        if self._trees_fingerprint is None:
            parts = sorted(t.fingerprint() for t in self.trees)
            self._trees_fingerprint = "||".join(parts)
        return self._trees_fingerprint

    def fingerprint(self) -> str:
        """Canonical identity of the state (order-insensitive over trees)."""
        if self._fingerprint is None:
            self._fingerprint = (
                "T|" if self.terminal else ""
            ) + self.trees_fingerprint()
        return self._fingerprint

    def num_choice_nodes(self) -> int:
        return sum(len(t.choice_node_order()) for t in self.trees)

    def num_trees(self) -> int:
        return len(self.trees)

    def as_terminal(self) -> "SearchState":
        """The terminal copy of this state (result of the TERMINATE rule)."""
        return SearchState(self.trees, terminal=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchState({len(self.trees)} trees, "
            f"{self.num_choice_nodes()} choice nodes"
            f"{', terminal' if self.terminal else ''})"
        )
