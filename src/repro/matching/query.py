"""Boolean query subscriptions over a dissemination system.

The query language itself — AST, parser, anchor extraction — lives in
:mod:`repro.model.query` (so :class:`repro.model.Subscription` can
embed a predicate without an upward import); this module re-exports it
for backward compatibility and keeps the thin
:class:`QueryEngine` wrapper that predates first-class predicate
subscriptions.

New code should prefer ``system.subscribe(["storm AND flood"])`` —
the system evaluates predicates at the delivery boundary itself, on
every scheme and backend.  :class:`QueryEngine` remains
as the client-side post-filtering formulation of the same idea.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from ..model import Document, Filter
from ..model.query import (  # noqa: F401  (re-exported compat surface)
    And,
    Not,
    Or,
    QueryError,
    QueryNode,
    Term,
    anchor_candidates,
    parse_query,
)
from ..model.subscription import Subscription


@dataclass(frozen=True)
class QuerySubscription:
    """A parsed query bound to its routing filter."""

    query_id: str
    node: QueryNode
    routing_filter: Filter

    def matches(self, document: Document) -> bool:
        return self.node.matches(document.terms)


def compile_subscription(
    query_id: str, text: str, owner: str = ""
) -> QuerySubscription:
    """Parse ``text`` and build the anchor-term routing filter.

    Raises :class:`QueryError` when the query has no positive anchors
    (e.g. ``NOT sports``) — such a query cannot be routed by shared
    terms and would have to flood.
    """
    node = parse_query(text)
    anchors = node.anchors()
    if not anchors:
        raise QueryError(
            f"query {text!r} has no positive anchors and cannot be "
            "routed (a query must require at least one term)"
        )
    routing = Filter.from_terms(query_id, anchors, owner=owner)
    return QuerySubscription(
        query_id=query_id, node=node, routing_filter=routing
    )


class QueryEngine:
    """Boolean-query subscriptions over a dissemination system.

    Registration routes each subscription by its anchor terms through
    the unchanged system; ``publish`` post-filters the candidate set by
    evaluating each hit's full predicate.  Anchor soundness guarantees
    no query is missed: every satisfying document shares an anchor
    term with the routing filter, so the system surfaces it as a
    candidate.
    """

    def __init__(self, system) -> None:
        self.system = system
        self._subscriptions = {}

    def subscribe(
        self, query_id: str, text: str, owner: str = ""
    ) -> QuerySubscription:
        subscription = compile_subscription(query_id, text, owner)
        self.system.subscribe([subscription.routing_filter])
        self._subscriptions[query_id] = subscription
        return subscription

    def unsubscribe(self, query_id: str) -> None:
        self._subscriptions.pop(query_id, None)
        self.system.unregister(query_id)

    def publish(self, document: Document) -> Set[str]:
        """Query ids whose full predicate the document satisfies."""
        plan = self.system.publish(document)
        satisfied = set()
        for query_id in plan.matched_filter_ids:
            subscription = self._subscriptions.get(query_id)
            if subscription is None:
                continue  # plain filter registered outside the engine
            if subscription.matches(document):
                satisfied.add(query_id)
        return satisfied

    def __len__(self) -> int:
        return len(self._subscriptions)


__all__ = [
    "QueryError",
    "QueryNode",
    "Term",
    "And",
    "Or",
    "Not",
    "parse_query",
    "anchor_candidates",
    "Subscription",
    "QuerySubscription",
    "compile_subscription",
    "QueryEngine",
]
