"""Core chip-firing engine on the integer line.

A vertex holding at least a+b chips may fire, sending a chips to its left
neighbor and b chips to its right neighbor.  This module is the ground-truth
oracle: it represents states sparsely, fires them to completion under
pluggable schedules, and logs per-vertex firing counts.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from math import gcd

from .errors import InvalidParams, InvariantViolation
from .words import numerator

__all__ = [
    "GameParams",
    "ChipState",
    "FiringLog",
    "FiringStrategy",
    "LEFTMOST",
    "RIGHTMOST",
    "PARALLEL_ROUNDS",
    "new_state",
    "stabilize",
    "settle_right",
    "oracle_states",
    "oracle_rows",
    "stabilize_line",
]


@dataclass(frozen=True)
class GameParams:
    """The pair (a, b): a chips go left and b chips go right per firing."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise InvalidParams(f"need a >= 1 and b >= 1, got ({self.a}, {self.b})")

    @property
    def threshold(self) -> int:
        return self.a + self.b

    @property
    def d(self) -> int:
        return gcd(self.a, self.b)

    def is_structured(self) -> bool:
        """True when the structure theory applies: gcd(a,b)=1 and a<b."""
        return self.d == 1 and self.a < self.b

    def require_structured(self) -> None:
        if not self.is_structured():
            raise InvalidParams(
                f"({self.a}, {self.b}) must be coprime with a < b for this operation"
            )

    @property
    def c(self) -> int:
        """ceil(a / (b-a)); defined only for coprime a < b."""
        self.require_structured()
        return -(-self.a // (self.b - self.a))


@dataclass(frozen=True)
class FiringStrategy:
    """A firing schedule.

    kind is one of "leftmost", "rightmost", "parallel", "random".  The random
    schedule draws from Python's Mersenne Twister seeded with ``seed``, so a
    given (seed, state) pair always replays the same firing sequence.
    """

    kind: str
    seed: int | None = None

    _KINDS = ("leftmost", "rightmost", "parallel", "random")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise InvalidParams(f"unknown strategy kind {self.kind!r}")
        if self.kind == "random":
            if self.seed is None or not 0 <= self.seed < 2**64:
                raise InvalidParams("random strategy needs a 64-bit unsigned seed")
        elif self.seed is not None:
            raise InvalidParams(f"{self.kind} strategy takes no seed")

    @classmethod
    def random(cls, seed: int) -> "FiringStrategy":
        return cls("random", seed)


LEFTMOST = FiringStrategy("leftmost")
RIGHTMOST = FiringStrategy("rightmost")
PARALLEL_ROUNDS = FiringStrategy("parallel")


@dataclass(frozen=True)
class FiringLog:
    """Per-vertex firing counters for one run."""

    fires: dict[int, int]

    @property
    def total(self) -> int:
        """The number of firings in the run."""
        return sum(self.fires.values())


class ChipState:
    """Sparse chip configuration: vertex index -> positive count.

    Zero entries are never stored.  ``n`` is the conserved total.
    """

    __slots__ = ("params", "chips", "n")

    def __init__(self, params: GameParams, chips: dict[int, int]):
        self.params = params
        self.chips = {v: c for v, c in chips.items() if c != 0}
        if any(c < 0 for c in self.chips.values()):
            raise InvalidParams("negative chip count")
        self.n = sum(self.chips.values())

    def count(self, v: int) -> int:
        return self.chips.get(v, 0)

    def support(self) -> list[int]:
        return sorted(self.chips)

    def is_final(self) -> bool:
        return all(c < self.params.threshold for c in self.chips.values())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChipState)
            and self.params == other.params
            and self.chips == other.chips
        )

    def __hash__(self) -> int:
        return hash((self.params, tuple(sorted(self.chips.items()))))

    def __repr__(self) -> str:
        return f"ChipState({self.params.a}-{self.params.b}, {dict(sorted(self.chips.items()))})"


def new_state(n: int, params: GameParams) -> ChipState:
    """n chips piled on the origin."""
    if n < 0:
        raise InvalidParams("chip count must be non-negative")
    return ChipState(params, {0: n} if n > 0 else {})


# ---------------------------------------------------------------------------
# Stabilization.  The hot loops work on a flat list indexed by vertex+offset;
# strategies differ only in how the next vertex to fire is chosen.
# ---------------------------------------------------------------------------


# At 8 bytes a cell, a buffer this long would take 2**62 bytes, more than any
# machine's memory, so it is refused before allocating.  The cap also keeps
# every count of the line kernel far inside int64.
_MAX_CELLS = 2**59


def _cells(size: int, n: int, zeros=lambda size: [0] * size,
           buffer: str = "an oracle buffer") -> tuple:
    """The chip and firing-count buffers of ``size`` cells each, made by
    ``zeros``, for the n-chip game, or a refusal naming ``buffer`` when they do
    not fit in memory."""
    if size < _MAX_CELLS:
        try:
            return zeros(size), zeros(size)
        except MemoryError:
            pass
    raise InvalidParams(f"n={n} needs {buffer} of {size} cells, more than memory holds")


class _Buffer:
    """Flat chip array over a window no reachable state can escape."""

    __slots__ = ("off", "buf", "fcount", "lo", "hi")

    def __init__(self, state: ChipState):
        support = state.support()
        lo0 = min(support, default=0)
        hi0 = max(support, default=0)
        n = state.n
        # Any state reachable from here keeps its support within
        # [lo0 - n, hi0 + n]: extending the support by one vertex consumes
        # at least one chip permanently parked there.
        self.off = n + 1 - lo0
        self.buf, self.fcount = _cells((hi0 + n + 1) + self.off + 1, n)
        for v, c in state.chips.items():
            self.buf[v + self.off] = c
        self.lo = lo0 + self.off
        self.hi = hi0 + self.off

    def recenter(self, n: int) -> None:
        """Re-allocate for every state of the n-chip game started at the
        origin, that is for vertices -n..n, keeping chips and firing counts.

        Expects the support to lie within that range already.
        """
        shift = n + 1 - self.off
        lo, hi = self.lo, self.hi
        buf, fcount = _cells(2 * n + 3, n)
        buf[lo + shift : hi + shift + 1] = self.buf[lo : hi + 1]
        fcount[lo + shift : hi + shift + 1] = self.fcount[lo : hi + 1]
        self.buf, self.fcount = buf, fcount
        self.off, self.lo, self.hi = n + 1, lo + shift, hi + shift

    def check_bound(self) -> None:
        if not (1 <= self.lo and self.hi <= len(self.buf) - 2):
            raise InvariantViolation("support escaped the [lo-n, hi+n] bound")

    def to_state(self, params: GameParams) -> ChipState:
        self.check_bound()
        buf, off = self.buf, self.off
        chips = {i - off: buf[i] for i in range(self.lo, self.hi + 1) if buf[i]}
        return ChipState(params, chips)

    def log(self) -> FiringLog:
        fcount, off = self.fcount, self.off
        fires = {i - off: fcount[i] for i in range(self.lo, self.hi + 1) if fcount[i]}
        return FiringLog(fires)


class _Checker:
    """Exact conservation checks on the raw buffer.

    Verifies sum(s) == n together with the scaled identity
    sum(s_m * a^(m-lo) * b^(hi-m)) == n * a^(-lo) * b^(hi), which is the
    state polynomial at t=b/a cleared of denominators, with (a, b) in lowest
    terms.  The left side is words.numerator over the cells lo..hi, the
    integer core of eval_base, so the check is exact at any size.  The
    kernels call ``check`` after every ``every``-th firing, counting down
    inline and only when there is a checker, so an unchecked run pays one
    ``is not None`` test per firing.
    """

    __slots__ = ("a", "b", "n", "every")

    def __init__(self, params: GameParams, n: int, every: int):
        d = params.d
        self.a = params.a // d
        self.b = params.b // d
        self.n = n
        self.every = every

    def check(self, bb: _Buffer) -> None:
        lo = min(bb.lo, bb.off)
        hi = max(bb.hi, bb.off)
        cells = bb.buf[lo : hi + 1]
        total = sum(cells)
        if total != self.n:
            raise InvariantViolation(
                f"chip total {total} != n {self.n} after {sum(bb.fcount)} firings"
            )
        a, b = self.a, self.b
        if numerator(cells, a, b) != self.n * a ** (bb.off - lo) * b ** (hi - bb.off):
            raise InvariantViolation(
                f"state polynomial at b/a deviates from n={self.n} "
                f"after {sum(bb.fcount)} firings"
            )


def _scan(bb: _Buffer, T: int, a: int, b: int, v: int, step: int, floor: int,
          checker: _Checker | None) -> None:
    """Scan schedule: a cursor sweeps by ``step`` from buffer index v and fires
    what it meets, stepping back one cell whenever a firing makes the cell
    behind it firable.

    Needs every cell strictly behind the start (down to ``floor`` when step
    is +1) to hold fewer than T chips; cells below ``floor`` never fire.
    step=+1 from lo is the leftmost schedule, step=-1 from hi the rightmost.
    """
    buf = bb.buf
    fcount = bb.fcount
    lo, hi = bb.lo, bb.hi
    due = checker.every if checker is not None else 0
    # Firing v can only push v-step back over the threshold, so the cursor
    # retreats at most one cell per firing; the floor is only consulted then.
    while lo <= v <= hi:
        if buf[v] >= T:
            buf[v] -= T
            buf[v - 1] += a
            buf[v + 1] += b
            fcount[v] += 1
            if v - 1 < lo:
                lo = v - 1
            if v + 1 > hi:
                hi = v + 1
            if checker is not None:
                due -= 1
                if not due:
                    due = checker.every
                    bb.lo, bb.hi = lo, hi
                    checker.check(bb)
            back = v - step
            if buf[back] >= T and back >= floor:
                v = back
        else:
            v += step
    bb.lo, bb.hi = lo, hi


def _run_parallel(bb: _Buffer, T: int, a: int, b: int, checker: _Checker | None) -> None:
    """Each round fires every vertex firable at the round start exactly once."""
    buf = bb.buf
    fcount = bb.fcount
    lo, hi = bb.lo, bb.hi
    due = checker.every if checker is not None else 0
    while True:
        firable = [i for i in range(lo, hi + 1) if buf[i] >= T]
        if not firable:
            break
        lo = min(lo, firable[0] - 1)
        hi = max(hi, firable[-1] + 1)
        for i in firable:
            buf[i] -= T
            buf[i - 1] += a
            buf[i + 1] += b
            fcount[i] += 1
            if checker is not None:
                due -= 1
                if not due:
                    due = checker.every
                    bb.lo, bb.hi = lo, hi
                    checker.check(bb)
    bb.lo, bb.hi = lo, hi


def _run_random(bb: _Buffer, T: int, a: int, b: int, seed: int,
                checker: _Checker | None) -> None:
    """Fire a uniformly chosen member of the firable set, one at a time.

    The set is kept as a swap-pop list holding exactly the cells with at
    least T chips, and the pick uses Random(seed).random(), so the whole
    firing sequence is a pure function of (seed, initial state).
    """
    rand = _random.Random(seed).random
    buf = bb.buf
    fcount = bb.fcount
    lo, hi = bb.lo, bb.hi
    due = checker.every if checker is not None else 0
    candidates = [i for i in range(lo, hi + 1) if buf[i] >= T]
    while candidates:
        j = int(rand() * len(candidates))
        v = candidates[j]
        last = candidates.pop()
        if last is not v:
            candidates[j] = last
        buf[v] -= T
        vm = v - 1
        vp = v + 1
        buf[vm] += a
        buf[vp] += b
        fcount[v] += 1
        if vm < lo:
            lo = vm
        if vp > hi:
            hi = vp
        # Only the three touched cells can have changed membership: v left
        # the list and rejoins if still firable, and a neighbour joins when
        # this firing lifted it from below T to T or more.
        if buf[v] >= T:
            candidates.append(v)
        if T <= buf[vm] < T + a:
            candidates.append(vm)
        if T <= buf[vp] < T + b:
            candidates.append(vp)
        if checker is not None:
            due -= 1
            if not due:
                due = checker.every
                bb.lo, bb.hi = lo, hi
                checker.check(bb)
    bb.lo, bb.hi = lo, hi


def stabilize(
    state: ChipState,
    strategy: FiringStrategy = LEFTMOST,
    *,
    check_every: int = 0,
) -> tuple[ChipState, FiringLog]:
    """Fire until every vertex holds fewer than a+b chips.

    Termination is guaranteed for any finite state, and the final state and
    per-vertex firing counts are independent of the strategy (the game is
    abelian); the strategies exist so tests can exercise that fact.

    With ``check_every=k > 0`` the conserved quantities (chip total and the
    exact state-polynomial value at b/a) are re-verified from scratch on the
    initial state, after every k-th firing, and on the final state;
    InvariantViolation is raised on any deviation.
    """
    p = state.params
    bb = _Buffer(state)
    checker = _Checker(p, state.n, check_every) if check_every > 0 else None
    if checker is not None:
        checker.check(bb)
    T, a, b = p.threshold, p.a, p.b
    if strategy.kind == "leftmost":
        _scan(bb, T, a, b, bb.lo, 1, 0, checker)
    elif strategy.kind == "rightmost":
        _scan(bb, T, a, b, bb.hi, -1, 0, checker)
    elif strategy.kind == "parallel":
        _run_parallel(bb, T, a, b, checker)
    else:
        _run_random(bb, T, a, b, strategy.seed, checker)
    if checker is not None:
        checker.check(bb)
    final = bb.to_state(p)
    if not final.is_final():
        raise InvariantViolation(f"{strategy.kind} schedule stopped on a firable state")
    return final, bb.log()


def settle_right(state: ChipState) -> ChipState:
    """Fire vertices with index >= 1 until none of them can fire.

    The origin and everything left of it never fire here; vertex 0 only
    receives whatever vertex 1 sends it.
    """
    p = state.params
    bb = _Buffer(state)
    floor = bb.off + 1
    _scan(bb, p.threshold, p.a, p.b, max(bb.lo, floor), 1, floor, None)
    return bb.to_state(p)


# The chip count _increments first sizes its buffer for.
_FIRST_CAPACITY = 64


def _increments(params: GameParams, n_max: int):
    """Yield (n, buffer) for n = 0..n_max, adding one chip at the origin and
    re-stabilizing between steps.

    The one buffer is mutated in place, so a consumer reads what it needs
    before asking for the next step.  A whole table costs about as much as the
    single largest game.  The buffer's firing counts are exact for each n-chip
    game started from scratch: firing counts are schedule-independent, and
    stabilizing after each added chip is one particular schedule for the n-chip
    game.
    """
    T, a, b = params.threshold, params.a, params.b
    # Sized for a game of ``cap`` chips and doubled when n outgrows it: adding
    # chips one at a time is a schedule of the n-chip game, so every state on
    # the way stays within vertices -n..n (see _Buffer).
    cap = min(n_max, _FIRST_CAPACITY)
    bb = _Buffer(new_state(cap, params))
    buf, off = bb.buf, bb.off
    buf[off] = 0
    for n in range(n_max + 1):
        # Only the origin can cross the threshold on an increment, so the
        # scan is skipped when it stays below.
        if n > 0:
            if n > cap:
                cap = min(2 * cap, n_max)
                bb.recenter(cap)
                buf, off = bb.buf, bb.off
            buf[off] += 1
            if buf[off] >= T:
                _scan(bb, T, a, b, off, 1, 0, None)
        yield n, bb


def oracle_states(params: GameParams, n_max: int):
    """Yield (n, ChipState, FiringLog) for n = 0..n_max, incrementally."""
    for n, bb in _increments(params, n_max):
        yield n, bb.to_state(params), bb.log()


def oracle_rows(params: GameParams, n_max: int):
    """Yield (n, left, right, f0, f1) for n = 0..n_max, incrementally.

    The rows of oracle_states read straight off the chip buffer: ``left`` is
    the digit tuple of vertices lo..0, ending with the origin digit, and
    ``right`` that of vertices 1..hi (() when nothing sits right of the
    origin), the pair ``analysis.split`` gives for the row's state and the
    form in which the package passes a state's parts around; f0 and f1 are
    the origin and origout firing counts.
    """
    for n, bb in _increments(params, n_max):
        bb.check_bound()
        # No trimming needed: the outermost vertex on either side only loses
        # chips by firing, which occupies a vertex further out.
        buf, off = bb.buf, bb.off
        left = tuple(buf[bb.lo : off + 1])
        right = tuple(buf[off + 1 : bb.hi + 1])
        yield n, left, right, bb.fcount[off], bb.fcount[off + 1]


# Rounds the line kernel fires between two recomputations of its firable hull.
_HULL_EVERY = 16


def stabilize_line(n: int, params: GameParams, *,
                   buffer: str = "a line buffer") -> tuple[ChipState, FiringLog]:
    """Stabilization of n chips at the origin over a numpy buffer.

    The one kernel that plays a single game from the origin: ``bench`` times
    it and ``final --oracle`` answers with it.  ``buffer`` names its buffer
    in the refusal when the buffer does not fit in memory.  Each round fires
    every cell of a window floor(s/T) times by slice updates.  That is a
    legal schedule, so by confluence it ends in the same final state and
    firing counts as ``stabilize``.

    The window is the firable hull, the first to the last cell holding at
    least T chips, recomputed only every _HULL_EVERY rounds.  A round can
    make firable only the neighbours of cells that fired, so the hull grows
    by at most one cell a side per round; the rounds in between therefore
    fire over the hull widened by _HULL_EVERY - 1 cells a side, where every
    cell outside the true hull fires zero times.  A round with nothing
    firable is a no-op.
    """
    import numpy as np

    if n < 0:
        raise InvalidParams("chip count must be non-negative")
    T, a, b = params.threshold, params.a, params.b
    if n < T:
        return new_state(n, params), FiringLog({})
    # Cell i holds vertex i - off.  Only the vertices -n..n may fire, so
    # chips stay on -n-1..n+1, the whole buffer.  The window is clamped to the
    # cells that may fire, and an edge cell that turns firable is caught at
    # the next hull recomputation, which scans one cell past the window on
    # each side.
    off = n + 1
    chips, fires = _cells(2 * off + 1, n, lambda size: np.zeros(size, dtype=np.int64), buffer)
    chips[off] = n
    first_ok, last_ok = 1, 2 * off - 1
    lo = hi = off
    widen = _HULL_EVERY - 1
    while True:
        firable = np.flatnonzero(chips[lo - 1 : hi + 2] >= T)
        if firable.size == 0:
            break
        first = lo - 1 + int(firable[0])
        last = lo - 1 + int(firable[-1])
        if not (first >= first_ok and last <= last_ok):
            raise InvariantViolation("support escaped the [-n-1, n+1] window")
        lo, hi = max(first - widen, first_ok), min(last + widen, last_ok)
        width = hi - lo + 1
        s, f = chips[lo : hi + 1], fires[lo : hi + 1]
        to_left, to_right = chips[lo - 1 : hi], chips[lo + 1 : hi + 2]
        counts = np.empty(width, dtype=np.int64)
        # a·counts and b·counts; a factor of one reuses counts itself.
        out_a = counts if a == 1 else np.empty(width, dtype=np.int64)
        out_b = counts if b == 1 else np.empty(width, dtype=np.int64)
        for _ in range(_HULL_EVERY):
            np.floor_divide(s, T, out=counts)
            if a != 1:
                np.multiply(counts, a, out=out_a)
            if b != 1:
                np.multiply(counts, b, out=out_b)
            s -= out_a
            s -= out_b
            to_left += out_a
            to_right += out_b
            f += counts
    support = np.flatnonzero(chips)
    state = ChipState(params, {int(i) - off: int(chips[i]) for i in support})
    fired = np.flatnonzero(fires)
    log = FiringLog({int(i) - off: int(fires[i]) for i in fired})
    if not (state.n == n and state.is_final()):
        raise InvariantViolation(f"line stabilizer lost chips or stopped early at n={n}")
    return state, log
