"""Semi-automatic taxonomy and schema matching.

§3.1 C3: "When a new taxonomy is to be added to an integrated model, matches
need to be found, conflicts identified, and ambiguities resolved ...
Semi-automatic schemes that combine system suggestions with user editing are
absolutely critical here."

:class:`TaxonomyMatcher` scores every (source category, master category)
pair on up to three signals -- label similarity, structural (parent label)
similarity, and instance overlap -- and classifies each source category as
*auto* (confident single match), *review* (plausible candidates, human must
choose), *conflict* (two candidates too close to call), or *unmatched*.
:class:`MatchSession` is the human-in-the-loop workflow around the
suggestions; the number of decisions it forces a human to make is exactly
what experiment E7 measures against an all-manual baseline.

:class:`SchemaMatcher` applies the same machinery to field names between two
relational schemas (Characteristic 2's mapping problem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.errors import TaxonomyError
from repro.core.schema import Schema
from repro.ir.fuzzy import combined_similarity
from repro.workbench.taxonomy import Taxonomy, TaxonomyNode


@dataclass
class MatchSuggestion:
    """The system's proposal for one source category (or field)."""

    source_code: str
    source_label: str
    candidates: list[tuple[str, float]]  # (master code, score), best first
    status: str  # "auto" | "review" | "conflict" | "unmatched"

    @property
    def best(self) -> str | None:
        return self.candidates[0][0] if self.candidates else None

    @property
    def best_score(self) -> float:
        return self.candidates[0][1] if self.candidates else 0.0


def _instance_overlap(a: set[Hashable], b: set[Hashable]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


class TaxonomyMatcher:
    """Scores source categories against a master taxonomy.

    Signal weights are exposed so E7 can ablate: name-only matching versus
    name+structure versus name+structure+instances.
    """

    def __init__(
        self,
        master: Taxonomy,
        auto_threshold: float = 0.85,
        review_threshold: float = 0.45,
        conflict_margin: float = 0.05,
        name_weight: float = 0.6,
        structure_weight: float = 0.25,
        instance_weight: float = 0.15,
        candidate_limit: int = 3,
    ) -> None:
        self.master = master
        self.auto_threshold = auto_threshold
        self.review_threshold = review_threshold
        self.conflict_margin = conflict_margin
        self.name_weight = name_weight
        self.structure_weight = structure_weight
        self.instance_weight = instance_weight
        self.candidate_limit = candidate_limit

    def _score(
        self,
        source_node: TaxonomyNode,
        master_node: TaxonomyNode,
        source_items: set[Hashable],
        master_items: set[Hashable],
    ) -> float:
        total_weight = self.name_weight + self.structure_weight + self.instance_weight
        name_score = combined_similarity(source_node.label, master_node.label)

        structure_score = 0.0
        if source_node.parent is not None and master_node.parent is not None:
            structure_score = combined_similarity(
                source_node.parent.label, master_node.parent.label
            )
        elif source_node.parent is None and master_node.parent is None:
            structure_score = 1.0  # both are roots

        instance_score = _instance_overlap(source_items, master_items)
        weighted = (
            self.name_weight * name_score
            + self.structure_weight * structure_score
            + self.instance_weight * instance_score
        )
        return weighted / total_weight if total_weight else 0.0

    def suggest(
        self,
        source: Taxonomy,
        source_items: dict[str, set[Hashable]] | None = None,
        master_items: dict[str, set[Hashable]] | None = None,
    ) -> list[MatchSuggestion]:
        """One suggestion per source category, in taxonomy order.

        ``source_items``/``master_items`` optionally map category codes to
        sets of comparable instance keys (normalized product names work
        well); when omitted the instance signal contributes zero.
        """
        source_items = source_items or {}
        master_items = master_items or {}
        master_nodes = self.master.all_nodes()
        suggestions = []
        for source_node in source.all_nodes():
            scored = []
            for master_node in master_nodes:
                score = self._score(
                    source_node,
                    master_node,
                    source_items.get(source_node.code, set()),
                    master_items.get(master_node.code, set()),
                )
                scored.append((master_node.code, score))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            candidates = [
                (code, score)
                for code, score in scored[:self.candidate_limit]
                if score >= self.review_threshold
            ]
            suggestions.append(
                MatchSuggestion(
                    source_node.code,
                    source_node.label,
                    candidates,
                    self._classify(candidates),
                )
            )
        return suggestions

    def _classify(self, candidates: list[tuple[str, float]]) -> str:
        if not candidates:
            return "unmatched"
        best_score = candidates[0][1]
        if len(candidates) > 1 and best_score - candidates[1][1] < self.conflict_margin:
            return "conflict"
        if best_score >= self.auto_threshold:
            return "auto"
        return "review"


@dataclass
class MatchDecision:
    """The recorded outcome for one source category."""

    source_code: str
    master_code: str | None
    action: str  # "auto" | "accepted" | "edited" | "rejected"


class MatchSession:
    """The human-in-the-loop workflow over a suggestion list.

    Auto suggestions are applied immediately; everything else waits in
    :meth:`pending` until the content manager calls :meth:`accept`,
    :meth:`edit` or :meth:`reject`.  ``human_decisions`` counts the manual
    interventions -- the cost metric of E7.
    """

    def __init__(self, master: Taxonomy, suggestions: list[MatchSuggestion]) -> None:
        self.master = master
        self.suggestions = {s.source_code: s for s in suggestions}
        self.decisions: dict[str, MatchDecision] = {}
        self.human_decisions = 0
        for suggestion in suggestions:
            if suggestion.status == "auto":
                self.decisions[suggestion.source_code] = MatchDecision(
                    suggestion.source_code, suggestion.best, "auto"
                )

    def pending(self) -> list[MatchSuggestion]:
        """Suggestions still awaiting a human decision, worst-first."""
        waiting = [
            s for code, s in self.suggestions.items() if code not in self.decisions
        ]
        waiting.sort(key=lambda s: (s.best_score, s.source_code))
        return waiting

    def accept(self, source_code: str) -> MatchDecision:
        """Human accepts the system's top suggestion."""
        suggestion = self._suggestion(source_code)
        if suggestion.best is None:
            raise TaxonomyError(
                f"cannot accept {source_code!r}: the system has no candidate"
            )
        return self._decide(source_code, suggestion.best, "accepted")

    def edit(self, source_code: str, master_code: str) -> MatchDecision:
        """Human overrides with an explicit master category."""
        self.master.node(master_code)  # validate
        return self._decide(source_code, master_code, "edited")

    def reject(self, source_code: str) -> MatchDecision:
        """Human declares the category unmappable."""
        self._suggestion(source_code)
        return self._decide(source_code, None, "rejected")

    def mapping(self) -> dict[str, str]:
        """The final source-code -> master-code map (decided pairs only)."""
        return {
            code: decision.master_code
            for code, decision in self.decisions.items()
            if decision.master_code is not None
        }

    def _suggestion(self, source_code: str) -> MatchSuggestion:
        if source_code not in self.suggestions:
            raise TaxonomyError(f"unknown source category {source_code!r}")
        return self.suggestions[source_code]

    def _decide(self, source_code: str, master_code: str | None, action: str) -> MatchDecision:
        decision = MatchDecision(source_code, master_code, action)
        previously_decided = source_code in self.decisions
        self.decisions[source_code] = decision
        if not previously_decided or action != "auto":
            self.human_decisions += 1
        return decision


class SchemaMatcher:
    """Suggests field correspondences between two relational schemas.

    Three signals, mirroring Characteristic 2's "data-driven mappings":
    string similarity of the field names, full token containment
    (``qty`` is inside ``stock_qty``), and an optional synonym table of
    known field-name equivalences (``sku`` = ``part_num``) that a vertical
    accumulates over time.
    """

    def __init__(
        self,
        auto_threshold: float = 0.85,
        review_threshold: float = 0.4,
        synonyms=None,
    ) -> None:
        self.auto_threshold = auto_threshold
        self.review_threshold = review_threshold
        self.synonyms = synonyms  # duck-typed: needs are_synonyms(a, b)

    def _field_score(self, source_name: str, target_name: str) -> float:
        from repro.ir.tokenize import tokenize

        score = combined_similarity(source_name, target_name)
        source_tokens = set(tokenize(source_name))
        target_tokens = set(tokenize(target_name))
        if source_tokens and target_tokens:
            containment = len(source_tokens & target_tokens) / min(
                len(source_tokens), len(target_tokens)
            )
            if containment == 1.0:
                score = max(score, 0.8)
        if self.synonyms is not None and self.synonyms.are_synonyms(
            source_name, target_name
        ):
            score = max(score, 0.95)
        return score

    def suggest(self, source: Schema, target: Schema) -> list[MatchSuggestion]:
        suggestions = []
        for source_field in source.fields:
            scored = []
            for target_field in target.fields:
                score = self._field_score(source_field.name, target_field.name)
                if source_field.dtype is target_field.dtype:
                    score = min(1.0, score + 0.1)  # type agreement bonus
                scored.append((target_field.name, score))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            candidates = [
                (name, score) for name, score in scored[:3]
                if score >= self.review_threshold
            ]
            if not candidates:
                status = "unmatched"
            elif candidates[0][1] >= self.auto_threshold:
                status = "auto"
            else:
                status = "review"
            suggestions.append(
                MatchSuggestion(source_field.name, source_field.name, candidates, status)
            )
        return suggestions
