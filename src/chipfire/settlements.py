"""Right-part theory: the settlement sequence, dormancy, and closed forms.

A settlement is the stabilized right part after the origin has fired some
number of times, the right side being settled in between.  Settlements evolve
by one simple move per origin firing; eventually they cycle through c tail
patterns (the delta strings) behind a growing run of the digit c*(b-a), where
c = ceil(a/(b-a)).

Indexing note: enumeration shows the periodic regime starts at index
c*(c+3)/2 (= T_{c+1} - 1 in triangular numbers) and the highest dormant
settlement sits at (c-1)*(c+2)/2.  A tetrahedral-number indexing of the same
milestones (Te_c + 1 and Te_{c-1} + 1) is sometimes quoted; it coincides with
the true indices for small c only (c <= 2 for the anchor, 2 <= c <= 3 for the
last dormant) and drifts above that.  The verify suites surface the
difference with concrete counterexamples; everything here is validated
against the iterated sequence.
"""

from __future__ import annotations

import functools

# oracle_states stays importable here because span tracers patch it by module.
from .engine import GameParams, oracle_states  # noqa: F401
from .errors import CensusMismatch, InvalidParams
from .words import DigitWord, segment_digits

__all__ = [
    "tetrahedral",
    "periodic_start",
    "tetrahedral_periodic_start",
    "highest_dormant_index",
    "tetrahedral_highest_dormant_index",
    "settlement_next",
    "settlement",
    "delta_strings",
    "dormant_census",
    "lemma8_inequalities",
    "SettlementSeq",
    "seq_for",
]


def tetrahedral(i: int) -> int:
    return i * (i + 1) * (i + 2) // 6


def periodic_start(params: GameParams) -> int:
    """First index k at which xi_k = .(cb-ca) delta_0 and the cycle begins.

    Equals c*(c+3)/2: the run from one leading-digit milestone to the next
    takes k+2 moves (one threshold bump, one append, k defect shifts), so the
    milestones sit at triangular numbers minus one rather than tetrahedral
    ones.
    """
    c = params.c
    return c * (c + 3) // 2


def tetrahedral_periodic_start(params: GameParams) -> int:
    """Te_c + 1: the tetrahedral variant of the anchor (exact only for c <= 2)."""
    return tetrahedral(params.c) + 1


def highest_dormant_index(params: GameParams) -> int:
    """(c-1)*(c+2)/2: index of the last dormant settlement."""
    c = params.c
    return (c - 1) * (c + 2) // 2


def tetrahedral_highest_dormant_index(params: GameParams) -> int:
    """Te_{c-1} + 1: tetrahedral variant (exact only for 2 <= c <= 3)."""
    return tetrahedral(params.c - 1) + 1


def settlement_next(word: tuple[int, ...], params: GameParams) -> tuple[int, ...]:
    """The settlement following the right part ``word`` (one more origin
    firing, right side settled).

    One move: find the first digit below a (j = len+1 if none); bump
    position 1 by b if j == 1, else shift a from j-1 onto j.
    """
    params.require_structured()
    a, b = params.a, params.b
    if any(d >= a + b for d in word):
        raise InvalidParams("input is not settled: digit >= a+b")
    j = len(word) + 1
    for i, d in enumerate(word, start=1):
        if d < a:
            j = i
            break
    out = list(word)
    if j == 1:
        if not out:
            out = [b]
        else:
            out[0] += b
    else:
        out[j - 2] -= a
        if j <= len(out):
            out[j - 1] += b
        else:
            out.append(b)
    assert all(0 <= d < a + b for d in out), "settlement move left a firable digit"
    return tuple(out)


def _delta_tuples(a: int, b: int, c: int) -> list[tuple[int, ...]]:
    """delta_0 .. delta_{c-1}: the cyclic tail patterns of late settlements."""
    base = [i * b - (i - 1) * a for i in range(c, 0, -1)]  # ends ... (2b-a) b
    deltas = [tuple(base)]
    for m in range(1, c):
        with_insert = list(base)
        with_insert.insert(c - m, m * (b - a))  # right after ((m+1)b - ma)
        deltas.append(tuple(with_insert))
    return deltas


class SettlementSeq:
    """Memoized settlement sequence for one structured parameter pair.

    The iterated prefix, indices 0..start, is built lazily as far as the
    highest index read so far; indices past the periodic start are served by
    the closed form .(cb-ca)_{p+1} delta_q with k = start + p*c + q.
    """

    def __init__(self, params: GameParams):
        params.require_structured()
        self.params = params
        self.c = params.c
        self.start = periodic_start(params)
        # The one-digit block c*(b-a) that the periodic regime repeats.
        self.lead = (self.c * (params.b - params.a),)
        self._words: list[tuple[int, ...]] = [()]
        self._deltas: list[tuple[int, ...]] | None = None

    @property
    def deltas(self) -> list[tuple[int, ...]]:
        """delta_0 .. delta_{c-1}, built on first read: O(c^2) digits."""
        if self._deltas is None:
            self._deltas = _delta_tuples(self.params.a, self.params.b, self.c)
        return self._deltas

    def _cached(self, k: int) -> tuple[int, ...]:
        words = self._words
        while len(words) <= k:
            words.append(settlement_next(words[-1], self.params))
        return words[k]

    def _periodic(self, k: int) -> tuple[int, int] | None:
        """(p, q) with k = start + p*c + q past the periodic start, else None."""
        if k < 0:
            raise InvalidParams("settlement index must be non-negative")
        if k <= self.start:
            return None
        return divmod(k - self.start, self.c)

    def word(self, k: int) -> tuple[int, ...]:
        return segment_digits(self.segments(k))

    def segments(self, k: int) -> tuple:
        """xi_k as (digits, count) segments: p+1 copies of the lead digit, then
        delta_q, past the periodic start; else the cached word as one segment
        (none when it is empty)."""
        pq = self._periodic(k)
        if pq is None:
            word = self._cached(k)
            return ((word, 1),) if word else ()
        p, q = pq
        # The built list is read directly: the property call adds 25% here.
        return ((self.lead, p + 1), ((self._deltas or self.deltas)[q], 1))


@functools.cache
def seq_for(params: GameParams) -> SettlementSeq:
    """The settlement sequence of a structured pair, one per process for
    equal parameters."""
    return SettlementSeq(params)


def settlement(k: int, params: GameParams) -> DigitWord:
    """xi_k as a right-part word: iterated below the periodic start, closed
    form above it."""
    return DigitWord.fraction(seq_for(params).word(k))


def delta_strings(params: GameParams) -> list[DigitWord]:
    return [DigitWord.fraction(t) for t in seq_for(params).deltas]


def dormant_census(params: GameParams) -> tuple[int, int]:
    """(count, highest index) of dormant settlements, by enumeration.

    Enumerates the full pre-periodic prefix plus a margin of two cycles and
    checks the enumerated truth against the closed formulas count == c and
    highest == (c-1)(c+2)/2; any disagreement is an engine bug and raises
    CensusMismatch.
    """
    seq = seq_for(params)
    a = params.a
    upper = seq.start + 2 * seq.c
    # Dormant: the origout digit, the word's first, is below a (an empty
    # word has origout digit 0), so an origin firing triggers no fire-back.
    dormant = [k for k in range(upper + 1) if (seq.word(k) or (0,))[0] < a]
    count = len(dormant)
    highest = dormant[-1]
    if count != seq.c or highest != highest_dormant_index(params):
        raise CensusMismatch(
            f"enumerated dormant settlements {dormant} for ({params.a},{params.b}) "
            f"disagree with count=c={seq.c}, highest={highest_dormant_index(params)}"
        )
    return count, highest


def lemma8_inequalities(params: GameParams) -> bool:
    """Digit-range inequalities behind the delta strings.

    For every 1 <= m <= c:  m*b - (m-1)*a < a+b <= (m+1)*b - (m-1)*a,
    and c*(b-a) < a+b.
    """
    params.require_structured()
    a, b, c = params.a, params.b, params.c
    for m in range(1, c + 1):
        if not (m * b - (m - 1) * a < a + b <= (m + 1) * b - (m - 1) * a):
            return False
    return c * (b - a) < a + b
