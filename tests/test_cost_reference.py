"""Differential test of the cost model against a from-scratch reference.

``CostModel`` derives each query's manipulation schedule once per tree set
and resolves mappings and layout leaves through per-interface lookups.  The
reference below does the straightforward thing on every call: it rebuilds
the per-tree binding plans and the binding state across the query sequence,
resolves every node with ``Interface.mapping_for`` and every layout element
with ``LayoutTree.leaf_for``.  Its one shortcut is that a tree's depth-first
walk and query fingerprints are memoized per tree object (a fresh
``choice_nodes(root)`` walk, not the ``Difftree`` cache), which keeps the
filter log's ~120k checks affordable.  Both must agree exactly (``==``, not
approx) on every interface Algorithm 1 scores — every searchM leaf, every
partial interface of the pruning bound, every random reward sample — for all
seven workload logs.
"""

from __future__ import annotations

import random
import weakref

import pytest

from repro.core import pipeline
from repro.core.pipeline import generate_interface
from repro.cost.fitts import centroid_distance, fitts_time
from repro.cost.model import CostModel
from repro.database import Executor
from repro.difftree import Difftree, initial_difftrees, merge_difftrees
from repro.difftree.builder import parse_queries
from repro.difftree.nodes import choice_nodes
from repro.interface.spec import AppliedWidget, Interface
from repro.mapping import InterfaceMapper, MapperConfig
from repro.workloads import WORKLOADS

# -- the reference: a plain per-call recomputation -------------------------------


class Reference:
    """The cost terms of one query sequence, recomputed on every call."""

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.query_fps = [q.fingerprint() for q in model.queries]
        self._walks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def walk(self, tree: Difftree) -> tuple[list[int], list[str]]:
        """The tree's choice-node ids in depth-first order, from the root,
        and its queries' fingerprints."""
        found = self._walks.get(tree)
        if found is None:
            found = self._walks[tree] = (
                [n.node_id for n in choice_nodes(tree.root)],
                [q.fingerprint() for q in tree.queries],
            )
        return found

    def query_plan(self, interface: Interface) -> list:
        view_plans = []
        for view in interface.views:
            tree = view.tree
            ordered_nodes, tree_query_fps = self.walk(tree)
            tree_plan: dict = {}
            for fp, derivation in zip(tree_query_fps, tree.derivations()):
                if derivation is None:
                    tree_plan.setdefault(fp, None)
                    continue
                params: dict = {}
                for binding in derivation:
                    params[binding.node_id] = params.get(binding.node_id, ()) + (
                        binding.param,
                    )
                tree_plan[fp] = params
            view_plans.append((tree_plan, ordered_nodes))

        current: dict = {}
        plan = []
        for query_fp in self.query_fps:
            manipulated: list = []
            view_for_query = None
            for view_index, (tree_plan, ordered_nodes) in enumerate(view_plans):
                params = tree_plan.get(query_fp)
                if params is None:
                    continue
                view_for_query = view_index
                changed_nodes = {
                    node_id
                    for node_id, value in params.items()
                    if current.get(node_id) != value
                }
                current.update(params)
                seen_mappings: list = []
                for node_id in ordered_nodes:
                    if node_id not in changed_nodes:
                        continue
                    mapping = interface.mapping_for(node_id)
                    if mapping is None or any(mapping is m for m in seen_mappings):
                        continue
                    seen_mappings.append(mapping)
                manipulated.extend(seen_mappings)
                break
            plan.append((view_for_query, manipulated))
        return plan

    def choice_node_ids(self, interface: Interface) -> set[int]:
        ids: set[int] = set()
        for view in interface.views:
            ids.update(self.walk(view.tree)[0])
        return ids

    def manipulation_cost(
        self, interface: Interface, penalize_uncovered: bool, plan: list
    ) -> float:
        """``Cm`` over ``plan``, the interface's :meth:`query_plan`."""
        total = 0.0
        uncovered_penalty = 0.0
        if penalize_uncovered:
            covered: set[int] = set()
            for mapping in interface.all_mappings():
                covered.update(mapping.cover)
            uncovered_penalty += 50.0 * len(self.choice_node_ids(interface) - covered)
        for view_index, manipulated in plan:
            if view_index is None:
                uncovered_penalty += 50.0
            for mapping in manipulated:
                total += self.model.mapping_cost(mapping)
        total += 0.2 * max(0, interface.num_views() - 1)
        return total + uncovered_penalty

    def navigation_cost(self, interface: Interface) -> float:
        layout = interface.layout
        if layout is None:
            return 0.0
        total = 0.0
        previous_leaf = None
        for view_index, manipulated in self.query_plan(interface):
            stops = []
            if view_index is not None:
                view_leaf = layout.leaf_for(interface.views[view_index].vis)
                if view_leaf is not None:
                    stops.append(view_leaf)
            for mapping in manipulated:
                if isinstance(mapping, AppliedWidget):
                    leaf = layout.leaf_for(mapping.candidate)
                else:
                    source = interface.views[mapping.source_view_index]
                    leaf = layout.leaf_for(source.vis)
                if leaf is not None:
                    stops.append(leaf)
            for leaf in stops:
                if previous_leaf is not None and previous_leaf is not leaf:
                    distance = centroid_distance(previous_leaf.centroid, leaf.centroid)
                    total += fitts_time(distance, leaf.min_extent())
                previous_leaf = leaf
        return total

    def is_complete(self, interface: Interface) -> bool:
        covered: set[int] = set()
        for mapping in interface.all_mappings():
            covered.update(mapping.cover)
        if self.choice_node_ids(interface) - covered:
            return False
        seen: set[int] = set()
        for mapping in interface.all_mappings():
            if seen & mapping.cover:
                return False
            seen.update(mapping.cover)
        return True


def _plan_identity(plan: list) -> list:
    return [(view_index, [id(m) for m in manipulated]) for view_index, manipulated in plan]


# -- a cost model that checks itself against the reference -----------------------


class CheckedCostModel(CostModel):
    """Compares every answer with the reference and counts the checks."""

    def __init__(self, queries, config=None) -> None:
        super().__init__(queries, config)
        self.reference = Reference(self)
        self.checked = {"manipulation": 0, "navigation": 0, "leaves": 0}

    def check_manipulation(self, interface: Interface, penalize_uncovered: bool) -> float:
        value = super().manipulation_cost(interface, penalize_uncovered)
        plan = self.reference.query_plan(interface)
        assert _plan_identity(self.query_plan(interface)) == _plan_identity(plan)
        assert value == self.reference.manipulation_cost(
            interface, penalize_uncovered, plan
        )
        self.checked["manipulation"] += 1
        return value

    def manipulation_cost(self, interface: Interface, penalize_uncovered: bool = True) -> float:
        return self.check_manipulation(interface, penalize_uncovered)

    def navigation_cost(self, interface: Interface) -> float:
        value = super().navigation_cost(interface)
        assert value == self.reference.navigation_cost(interface)
        self.checked["navigation"] += 1
        return value

    def check_leaf(self, interface: Interface, complete: bool) -> None:
        assert complete == self.reference.is_complete(interface)
        # the search scores only complete leaves; score the rest here
        if not complete:
            self.check_manipulation(interface, True)
        self.checked["leaves"] += 1


@pytest.fixture()
def checked_pipeline(monkeypatch):
    """Route the pipeline's cost models, and every completeness check of a
    searchM leaf, through the reference; yields the cost models built."""
    models: list[CheckedCostModel] = []

    def make(queries, config=None):
        model = CheckedCostModel(queries, config)
        models.append(model)
        return model

    original_is_complete = Interface.is_complete

    def checked_is_complete(interface: Interface) -> bool:
        complete = original_is_complete(interface)
        models[-1].check_leaf(interface, complete)
        return complete

    monkeypatch.setattr(pipeline, "CostModel", make)
    monkeypatch.setattr(Interface, "is_complete", checked_is_complete)
    return models


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cost_model_matches_reference(workload, catalog, fast_config, checked_pipeline):
    queries = list(WORKLOADS[workload].queries)
    result = generate_interface(queries, catalog=catalog, config=fast_config)
    final = checked_pipeline[-1]
    assert final.checked["leaves"] > 0
    assert final.checked["navigation"] > 0

    # random reward samples on the searched trees and on the initial ones;
    # drawn here so they are checked whichever search backend ran the search
    asts = parse_queries(queries)
    model = CheckedCostModel(asts)
    mapper = InterfaceMapper(catalog, Executor(catalog), model, MapperConfig())
    for trees in (result.state.trees, initial_difftrees(asts)):
        samples = mapper.random_interfaces(trees, 6, random.Random(3))
        assert len(samples) == 6
    assert model.checked["manipulation"] >= 12
    assert model.checked["navigation"] >= 12


# -- the cached choice nodes cannot be corrupted by callers ------------------------


def test_mutating_choice_nodes_result_changes_nothing(catalog):
    asts = parse_queries(list(WORKLOADS["sdss"].queries))
    tree = merge_difftrees(initial_difftrees(asts))
    twin = tree.copy()  # same structure and node ids, nothing cached yet
    snapshot = tuple(tree.choice_nodes())
    assert snapshot

    # corrupt the handed-out lists before anything else reads the tree
    tree.choice_nodes().clear()
    tree.choice_nodes().reverse()

    assert tuple(tree.choice_nodes()) == snapshot
    assert tree.mapping_key() == twin.mapping_key()
    assert tree.choice_node_ids() == twin.choice_node_ids()
    mapper = InterfaceMapper(catalog, Executor(catalog), CostModel(asts), MapperConfig())
    costs = [
        CostModel(asts).manipulation_cost(
            mapper.random_interfaces([subject], 1, random.Random(0))[0]
        )
        for subject in (tree, twin)
    ]
    assert costs[0] == costs[1]


def test_overlapping_mappings_resolve_to_the_first(catalog):
    """Two mappings covering one node: the interface is incomplete and the
    node resolves to the first mapping in ``all_mappings()`` order."""
    asts = parse_queries(list(WORKLOADS["sdss"].queries))
    tree = merge_difftrees(initial_difftrees(asts))
    model = CheckedCostModel(asts)
    mapper = InterfaceMapper(catalog, Executor(catalog), model, MapperConfig())
    interface = mapper.random_interfaces([tree], 1, random.Random(0))[0]
    assert interface.widgets and interface.is_complete()
    first = interface.widgets[0]
    interface.widgets.append(AppliedWidget(first.candidate, first.view_index))

    assert not interface.is_complete()
    assert not model.reference.is_complete(interface)
    model.check_manipulation(interface, True)
    manipulated = [m for _, ms in model.query_plan(interface) for m in ms]
    assert any(m is first for m in manipulated)
    assert not any(m is interface.widgets[-1] for m in manipulated)


# -- one cost model scoring several tree sets ------------------------------------


def _two_tree_sets(catalog, model: CostModel) -> list[list[Interface]]:
    """Random interfaces over the initial trees and over their merge."""
    mapper = InterfaceMapper(catalog, Executor(catalog), model, MapperConfig())
    trees = initial_difftrees(model.queries)
    return [
        mapper.random_interfaces(tree_set, 3, random.Random(5))
        for tree_set in (trees, [merge_difftrees(trees)])
    ]


def test_alternating_tree_sets_match_reference(catalog):
    """Under the thread backend one cost model scores the states of several
    workers in turn; every answer must still match the reference."""
    model = CheckedCostModel(parse_queries(list(WORKLOADS["sdss"].queries)))
    first, second = _two_tree_sets(catalog, model)
    before = model.checked["manipulation"]
    for _ in range(2):
        for a, b in zip(first, second):
            for interface in (a, b):
                model.check_manipulation(interface, True)
                model.check_manipulation(interface, False)
                model.navigation_cost(interface)
    assert model.checked["manipulation"] - before == 24


class InterleavedCostModel(CheckedCostModel):
    """Another worker stores its tree set's schedule right after every read
    of the one-slot schedule cache — the worst interleaving of threads."""

    other: tuple | None = None

    @property
    def _last_schedule(self):
        value = self._slot
        if self.other is not None:
            self._slot = self.other
        return value

    @_last_schedule.setter
    def _last_schedule(self, value):
        self._slot = value


def test_schedule_slot_read_is_not_torn_by_another_writer(catalog):
    asts = parse_queries(list(WORKLOADS["sdss"].queries))
    model = InterleavedCostModel(asts)
    first, second = _two_tree_sets(catalog, model)
    plain = CostModel(asts)
    plain.manipulation_cost(second[0])
    model.other = plain._last_schedule
    for interface in first:
        # first call misses and stores; the repeat hits the slot just as the
        # other writer replaces it
        model.check_manipulation(interface, True)
        model.check_manipulation(interface, True)
