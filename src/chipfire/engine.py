"""Core chip-firing engine on the integer line.

A vertex holding at least a+b chips may fire, sending a chips to its left
neighbor and b chips to its right neighbor.  This module is the ground-truth
oracle: it represents states sparsely, fires them to completion under
pluggable schedules, and logs per-vertex firing counts.
"""

from __future__ import annotations

import random as _random
import struct
from dataclasses import dataclass
from itertools import compress, repeat
from math import gcd
from operator import add, lshift, or_

from .errors import InvalidParams, InvariantViolation
from .words import numerator

__all__ = [
    "GameParams",
    "ChipState",
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
# machine's memory, so it is refused before allocating.
_MAX_CELLS = 2**59


def _cells(size: int, n: int, buffer: str = "an oracle buffer") -> tuple:
    """The chip and firing-count lists of ``size`` cells each for the n-chip
    game, or a refusal naming ``buffer`` when they do not fit in memory."""
    if size < _MAX_CELLS:
        try:
            return [0] * size, [0] * size
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



# Cells the line kernel's window reaches past its firing hull on each side,
# at least; a hull wider than 256 cells gets an eighth of its width.  The
# floor is all games of a few hundred chips see: over 60 games of 310 to 774
# chips on the five pairs of the oracle benchmark, floors of 24, 32 and 48
# ran alike, 16 about 5% and 8 about 15% slower.  The eighth matters from a
# few thousand chips on: on (2, 3) a quarter ran alike at n = 2·10^4 and
# 10^5, and a sixteenth 5-7% slower at 10^5 and 2·10^5.  At n < 32 the
# first window holds the whole buffer.
_MIN_MARGIN = 32

# Round pairs in one epoch of the line kernel, at most.  An epoch also ends
# when its firing hull reaches an edge of its window, after about 310 rounds
# on (2, 3) at n = 10^5, so the cap rarely binds; it bounds the firings a
# lane counts, which the lane width provides for.
_EPOCH_PAIRS = 512


def _lane_bytes(smax: int, T: int) -> int:
    """Bytes per lane of a line-kernel epoch whose cells hold at most smax
    chips.  A lane holds s·M < 2^(2·bitlen(smax) + 1) for the epoch's
    multiplier M, and the firings of up to _EPOCH_PAIRS turns of at most
    smax // T each, with its top bit to spare."""
    bits = max(2 * smax.bit_length() + T.bit_length() + 2,
               (_EPOCH_PAIRS * (smax // T)).bit_length() + 1)
    return (bits + 7) // 8


def _pack(values: list, nb: int) -> int:
    """One int holding ``values`` in lanes of nb bytes, the first lowest."""
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in values]), "little")


def _unpack(x: int, count: int, nb: int) -> list:
    """The ``count`` lanes of nb bytes of x, the inverse of _pack.

    Each lane is copied into nw whole 8-byte words, byte k of a lane at a
    stride of 8·nw, which one struct call reads; a lane wider than 8 bytes
    is then put together from its words, the highest first.  Reading each
    lane with its own int.from_bytes took 6 to 7 times as long at the 2- and
    3-byte lanes of (2, 3), and the whole game 0.75 s against 0.66 s at
    n = 10^5.
    """
    nw = -(-nb // 8)
    raw = x.to_bytes(count * nb, "little")
    words = bytearray(count * 8 * nw)
    for k in range(nb):
        words[k :: 8 * nw] = raw[k::nb]
    q = struct.unpack(f"<{count * nw}Q", words)
    lanes = q[nw - 1 :: nw]
    for j in range(nw - 2, -1, -1):
        lanes = map(or_, map(lshift, lanes, repeat(64)), q[j::nw])
    return list(lanes)


def stabilize_line(n: int, params: GameParams, *,
                   buffer: str = "a line buffer") -> tuple[ChipState, FiringLog]:
    """Stabilization of n chips at the origin, with the cells of a round
    packed into the lanes of one Python int.

    The one kernel that plays a single game from the origin: ``bench`` times
    it and ``final --oracle`` answers with it.  ``buffer`` names its lists in
    the refusal when they do not fit in memory.  They hold the cells in
    vertex order, as every kernel's buffer does, and a round fires every
    cell of one parity floor(s/T) times.  A cell's neighbours have the other
    parity, so those cells never feed each other, and rounds that alternate
    the parities are a legal schedule from any state: by confluence it ends
    in the same final state and firing counts as ``stabilize``.  From one
    pile only the vertices of one parity can fire in a round, the origin's
    parity in round 0 and the other in round 1, so the schedule fires round
    for round what firing every cell each round would, at half the work.

    The game is played in epochs over a window of cells around the firing
    hull, the first to the last cell that fires.  An epoch reads the
    window's cells of each parity through one slice of stride 2 and packs
    them into the lanes of one int, lane k the k-th cell, each holding s·M
    for its s chips, where M = ceil(2^K/T) is the invariant divisor of
    Granlund and Montgomery ("Division by invariant integers using
    multiplication", PLDI 1994): floor(s·M / 2^K) = floor(s/T) for every s
    below 2^bitlen(smax), the epoch's chip bound, with K = bitlen(smax) +
    bitlen(T).  A round is then a few int operations over all lanes at once:
    a shift and a mask give the firing counts Q, the parity that fires loses
    T·M·Q and the other gains M·(a·Q(k+1) + b·Q(k)) in lane k, one product
    by M·(a + b·2^W) for lane width W, moved down a lane when the even cells
    fire; a second int per parity adds up Q.  No lane borrows from or
    carries into the next: s·M stays below 2^(W-1), which each epoch checks
    at its start, and so do the firing sums at its end.

    The chip bound holds for the whole epoch.  The parity that just fired
    holds fewer than T chips, so a cell that gains from both neighbours
    ends with fewer than T + T·floor(m/T) for the most chips m of a firing
    cell: floor(m/T) never grows, and no cell exceeds smax = T·(floor(m0/T)
    + 1) - 1 for the most chips m0 at the epoch's start.  Lanes are sized
    from it (_lane_bytes), so they narrow as the pile spreads.

    An epoch ends when a round would fire an edge cell of the window, or a
    cell outside -n+1..n-1, or after _EPOCH_PAIRS round pairs, and the next
    epoch centres a window on the cells about to fire.  Cells outside the
    window hold fewer than T chips, and the cells it fires keep their
    neighbours inside it.

    At the first round whose parity fires no cell more than once, every
    cell of it below 2T, no cell fires more than once a turn from then on,
    and ``_walk_line`` finishes the game by updating only the cells at the
    edges of the runs that fire, two a round for one run.
    """
    if n < 0:
        raise InvalidParams("chip count must be non-negative")
    T, a, b = params.threshold, params.a, params.b
    if n < T:
        return new_state(n, params), FiringLog({})
    # Cell c holds vertex c - off.  Only the vertices -n+1..n-1 fire (see
    # _walk_line), so chips stay on -n..n, inside the lists.
    off = n + 1
    size = 2 * off + 1
    chips, fires = _cells(size, n, buffer)
    chips[off] = n
    fire_lo, fire_hi = 2, 2 * off - 2
    h = off & 1                    # the parity of the cells the next round fires
    lo = hi = off                  # the firing hull
    while True:
        # A window [w0, w1] with w0 even holds the cell w0 + g + 2k of parity
        # g in lane k, so odd lane k sits between even lanes k and k + 1.
        margin = max(_MIN_MARGIN, (hi - lo) >> 3)
        w0, w1 = max(lo - margin, 0) & ~1, min(hi + margin, size - 1)
        cuts = [slice(w0 + g, w1 + 1, 2) for g in (0, 1)]
        window = [chips[cut] for cut in cuts]
        counts = [len(cells) for cells in window]
        smax = T * (max(map(max, window)) // T + 1) - 1
        nb = _lane_bytes(smax, T)
        W = 8 * nb
        K = smax.bit_length() + T.bit_length()
        M = -(-(1 << K) // T)
        ones = int.from_bytes(b"\1".ljust(nb, b"\0") * (counts[0] + 1), "little")
        low = ones * ((1 << (W - K)) - 1)
        twice = low ^ ones         # the lanes of Q that fire more than once
        top = ones << (W - 1)
        P = [_pack(cells, nb) * M for cells in window]
        if (P[0] | P[1]) & top:
            raise InvariantViolation(f"line kernel lane of {W} bits overflowed")
        # Lane k of parity g may fire if its cell lies in a0..a1.
        a0, a1 = max(w0 + 1, fire_lo), min(w1 - 1, fire_hi)
        edge = [(1 << W * ((a0 - w0 - g + 1) >> 1)) - 1 | -1 << W * (((a1 - w0 - g) >> 1) + 1)
                for g in (0, 1)]
        # An epoch starts on round 0 or on a round that fires some cell more
        # than once, so the round before it is never needed (QY = 0).
        x, y = h, h ^ 1
        X, Y, EX, EY = P[x], P[y], edge[x], edge[y]
        sx, sy = W * (1 - x), W * (1 - y)
        TM, MAB = T * M, M * (a + (b << W))
        FX = FY = QY = 0
        turned = False
        for _ in range(_EPOCH_PAIRS):
            QX = (X >> K) & low
            if QX & EX or not QX & twice:
                break
            X -= QX * TM
            Y += (QX * MAB) >> sx
            FX += QX
            QY = (Y >> K) & low
            if QY & EY or not QY & twice:
                turned = True
                break
            Y -= QY * TM
            X += (QY * MAB) >> sy
            FY += QY
        else:
            QX = (X >> K) & low
        if (X | Y | FX | FY) & top:
            raise InvariantViolation(f"line kernel lane of {W} bits overflowed")
        F = [0, 0]
        P[x], P[y], F[x], F[y] = X, Y, FX, FY
        Q, prev = (QY, QX) if turned else (QX, QY)
        h ^= turned
        if Q:
            lo = w0 + h + 2 * (((Q & -Q).bit_length() - 1) // W)
            hi = w0 + h + 2 * ((Q.bit_length() - 1) // W)
            if not (fire_lo <= lo and hi <= fire_hi):
                raise InvariantViolation("support escaped the [-n-1, n+1] window")
        calm = not Q & twice
        if calm:
            # The walk takes parity h ^ 1 at its turn values: its chips and T
            # for each firing of the round before.
            P[h ^ 1] += TM * prev
        for g in (0, 1):
            chips[cuts[g]] = _unpack(P[g] // M, counts[g], nb)
            fires[cuts[g]] = map(add, fires[cuts[g]], _unpack(F[g], counts[g], nb))
        if calm:
            _walk_line(chips, fires, off, T, a, b, h, w0, w1)
            break
    vertices = range(-off, off + 1)
    state = ChipState(params, dict(compress(zip(vertices, chips), chips)))
    if not (state.n == n and state.is_final()):
        raise InvariantViolation(f"line stabilizer lost chips or stopped early at n={n}")
    return state, FiringLog(dict(compress(zip(vertices, fires), fires)))


def _walk_line(chips: list, fires: list, off: int, T: int, a: int, b: int, h: int,
               c0: int, c1: int) -> None:
    """Finish a line game in place, by walking the edges of its firing runs.

    ``chips`` and ``fires`` are stabilize_line's lists of cells 0..2·off in
    vertex order.  Round 0 is the turn of the cells of parity h, round 1 that
    of the other parity, and so on.  The cells of parity h hold their chips,
    fewer than 2T, which are their turn values V of round 0, the chips just
    before the turn.  The cells of the other parity hold their turn values of
    round -1: the chips they hold, fewer than T, plus T for each of the F
    firings of that turn, which ``fires`` has counted.  Each cell fires
    F = V // T times at its turn.  Every cell outside c0..c1 holds fewer than
    T chips and fired none at round -1.

    After its turn a cell holds fewer than T chips, and before its next it
    gains a·F(x+1) + b·F(x-1), at most T, since its neighbours hold fewer
    than 2T at their turns from round 0 on; so no turn value reaches 2T and
    no cell fires more than once a turn.  Between two turns of x each of its
    neighbours has exactly one, so x's next turn value is
    V - T·F(x) + a·F(x+1) + b·F(x-1), which is V again where
    F(x-1) = F(x) = F(x+1): a cell inside a run repeats its turn, and a cell
    far outside stays put.  A round therefore updates only its cells beside
    an edge, a place where F(x) != F(x+1), and the game ends when no edge is
    left, every F is 0 and the turn values are the chips.

    ``fires`` holds a cell's firings through its latest turn, at round t,
    less F·(t >> 1), which stays put while the cell repeats its turn, so a
    cell is settled up only when its F changes.

    Only the cells 2..2·off-2 may fire, the vertices -n+1..n-1 of the n-chip
    game: its chips never leave -n..n, so -n and n never fire.  Every cell
    the walk updates then fires or lies beside one that does, so no update
    reads past either end of the lists.
    """
    fire_lo, fire_hi = 2, 2 * off - 2
    # F of the cells c0..c1, which hold turn values of both parities.  fires
    # counts round -1 but not round 0, so adding F to it gives the form
    # below, firings through round t less F·(t >> 1), for t = -1 and t = 0.
    k = [s // T for s in chips[c0 : c1 + 1]]
    fires[c0 : c1 + 1] = map(add, fires[c0 : c1 + 1], k)
    F = [0, *k, 0]                 # the cells c0-1..c1+1
    firing = [c for c, f in enumerate(F, c0 - 1) if f]
    if firing and not (fire_lo <= firing[0] and firing[-1] <= fire_hi):
        raise InvariantViolation("support escaped the [-n-1, n+1] window")
    # Edge e lies between cells e and e + 1.
    edges = {e for e, (f, g) in enumerate(zip(F, F[1:]), c0 - 1) if f != g}
    twice = 2 * T
    r = 1
    while edges:
        p = h ^ (r & 1)            # the parity of the cells that take round r
        since = (r >> 1) - 1       # t >> 1 of the cell's previous turn
        for c in {e + ((e ^ p) & 1) for e in edges}:
            v = chips[c]
            fo, fl, fr = v // T, chips[c - 1] // T, chips[c + 1] // T
            v += a * fr + b * fl - T * fo
            if v >= twice:
                raise InvariantViolation(f"line walk reached a turn value of {v} >= 2T")
            chips[c] = v
            fn = v // T
            if fn != fo:
                if fn and not fire_lo <= c <= fire_hi:
                    raise InvariantViolation("support escaped the [-n-1, n+1] window")
                fires[c] += (fo - fn) * since
                if fl != fn:
                    edges.add(c - 1)
                else:
                    edges.discard(c - 1)
                if fr != fn:
                    edges.add(c)
                else:
                    edges.discard(c)
        r += 1
