"""Fuzzy (approximate) string matching.

The paper demands that a query for ``"drlls: crdlss"`` fetch records similar
to ``"cordless drills"`` (§3.2 C7).  Two complementary signals are provided:

* :func:`levenshtein` edit distance -- strong on typos and dropped vowels
  within a token;
* :func:`ngram_jaccard` -- order-insensitive, strong on token reordering
  ("ink, black" vs "black ink") and partial overlap.

:func:`combined_similarity` mixes both; experiment E6 ablates the mix.
"""

from __future__ import annotations

import re

from repro.ir.tokenize import ngrams, tokenize

_VOWELS_RE = re.compile(r"[aeiou]")


def consonant_skeleton(text: str) -> str:
    """Strip vowels from every token ("cordless drills" -> "crdlss drlls").

    Users abbreviate by dropping vowels; the paper's own example query
    "drlls: crdlss" *is* the consonant skeleton of "drills cordless".
    Comparing skeletons makes such queries nearly exact matches.
    """
    return " ".join(_VOWELS_RE.sub("", token) for token in tokenize(text))


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert / delete / substitute, all cost 1)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the shorter string in the inner loop for memory locality.
    if len(b) < len(a):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, char_b in enumerate(b, start=1):
        current = [j]
        for i, char_a in enumerate(a, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(
                    previous[i] + 1,      # delete
                    current[i - 1] + 1,   # insert
                    previous[i - 1] + cost,  # substitute
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalized into [0, 1]; 1.0 means equal."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Jaccard overlap of character n-gram sets, in [0, 1]."""
    grams_a = ngrams(a, n)
    grams_b = ngrams(b, n)
    if not grams_a and not grams_b:
        return 1.0
    if not grams_a or not grams_b:
        return 0.0
    intersection = len(grams_a & grams_b)
    union = len(grams_a | grams_b)
    return intersection / union


def combined_similarity(a: str, b: str, edit_weight: float = 0.5) -> float:
    """Blend of edit-distance and n-gram similarity over whole strings.

    Comparison is done on the token-sorted normalization of each string so
    word order does not penalize ("ink, black" == "black ink" exactly).
    Vowel-dropped abbreviations are handled by also comparing consonant
    skeletons and taking the better score (slightly damped, so a true
    spelled-out match still wins over a skeleton-only match).
    """
    normalized_a = " ".join(sorted(tokenize(a)))
    normalized_b = " ".join(sorted(tokenize(b)))

    def blend(x: str, y: str) -> float:
        edit = levenshtein_similarity(x, y)
        grams = ngram_jaccard(x, y)
        return edit_weight * edit + (1.0 - edit_weight) * grams

    direct = blend(normalized_a, normalized_b)
    skeleton = blend(
        " ".join(sorted(consonant_skeleton(normalized_a).split())),
        " ".join(sorted(consonant_skeleton(normalized_b).split())),
    )
    return max(direct, 0.95 * skeleton)
