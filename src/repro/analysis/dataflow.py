"""Worklist fixpoint engine for interprocedural summaries.

The interprocedural rules (:mod:`repro.analysis.flows`) both follow
the same shape: each function gets a *summary* value drawn from a
finite lattice (a frozenset of escaping exception types, a record of
taint bits), computed from its own body plus the summaries of its
callees.  Because the call graph has cycles (recursion, mutual
dispatch), summaries are computed to a fixpoint with a classic
worklist: when a function's summary grows, its callers are re-queued.

The engine is lattice-agnostic: a :class:`SummaryProblem` supplies the
bottom element and a transfer function, and promises only that the
values it produces are comparable with ``==`` and form a finite
ascending chain (so termination is guaranteed).  A generous iteration
cap turns an accidental infinite ascent into a loud error rather than
a hang.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, Mapping, TypeVar

__all__ = ["SummaryProblem", "fixpoint"]

Value = TypeVar("Value")
Node = Hashable


class SummaryProblem(Generic[Value]):
    """One dataflow problem over the call graph.

    Subclasses (or duck-typed equivalents) provide:

    ``bottom()``
        The least lattice element every summary starts at.

    ``transfer(node, summaries)``
        The node's new summary given the current summary map.  Must be
        monotone: growing an input summary may only grow the output.
    """

    def bottom(self) -> Value:
        raise NotImplementedError

    def transfer(self, node: Node, summaries: Mapping[Node, Value]) -> Value:
        raise NotImplementedError


def fixpoint(
    nodes: Iterable[Node],
    dependents: Mapping[Node, Iterable[Node]],
    problem: SummaryProblem[Value],
    max_steps: int | None = None,
) -> dict[Node, Value]:
    """Solve ``problem`` to a fixpoint over ``nodes``.

    ``dependents`` maps each node to the nodes whose transfer reads
    its summary (for call-graph summaries: a function's callers), so a
    change re-queues exactly the affected nodes.  Returns the summary
    map at the fixpoint.
    """
    ordered = list(nodes)
    summaries: dict[Node, Value] = {node: problem.bottom() for node in ordered}
    # Seed in deterministic order; a deque-of-set hybrid keeps each
    # node queued at most once.
    queue: list[Node] = list(ordered)
    queued: set[Node] = set(ordered)
    steps = 0
    cap = max_steps if max_steps is not None else max(10_000, 50 * len(ordered))
    while queue:
        steps += 1
        if steps > cap:
            raise RuntimeError(
                f"dataflow fixpoint did not converge after {cap} steps; "
                "a transfer function is not monotone"
            )
        node = queue.pop(0)
        queued.discard(node)
        updated = problem.transfer(node, summaries)
        if updated != summaries[node]:
            summaries[node] = updated
            for dependent in dependents.get(node, ()):  # type: ignore[union-attr]
                if dependent not in queued and dependent in summaries:
                    queue.append(dependent)
                    queued.add(dependent)
    return summaries

