"""Finite point-set topology demonstrator and the single-use branch ledger.

The branching constructions are finite stand-ins for line splitting on a
spacetime manifold: a shared past, several copies of the branch point, and
per-branch charts that are each open together with the past. A finite
space is Hausdorff only if it is discrete, so the branch copies (which
share every neighborhood) witness the failure.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import combinations
from operator import and_
from typing import Iterable

from . import serialize
from .states import _Frozen


#: The most points and opens a space document may hold, and the longest
#: label; the CLI's ``MAX_COPIES`` comment gives the measured worst case
#: under them.
MAX_SPACE_POINTS = 32
MAX_SPACE_OPENS = 1100
MAX_SPACE_LABEL = 64


class BranchError(RuntimeError):
    """Violation of the single-use branch contract."""


class _Malformed(ValueError):
    """A point or open of the wrong type; the message opens with its key."""


def _decode(mask: int, points: tuple) -> frozenset:
    """The points whose bits ``mask`` sets; bit i stands for points[i]."""
    labels = []
    while mask:
        low = mask & -mask
        labels.append(points[low.bit_length() - 1])
        mask ^= low
    return frozenset(labels)


def _open_error(family: tuple, labels) -> ValueError:
    """Why the first bad open of ``family`` has no bitmask."""
    for index, subset in enumerate(family):
        if isinstance(subset, (str, dict)) or not isinstance(subset, Iterable):
            return _Malformed(f"'opens' entry {index} must be a list, got {type(subset).__name__}")
        for label in subset:
            if not isinstance(label, str):
                return _Malformed(
                    f"'opens' entry {index} must hold only strings, got {type(label).__name__}"
                )
        if not labels.issuperset(subset):
            return ValueError(f"open set {sorted(set(subset))} contains unknown points")


def _read(points: Iterable[str], family: Iterable[Iterable[str]]):
    """Check the labels of an outside family. Returns the points, its
    distinct sets as read, and as bitmasks those sets and each U_x (the
    intersection of the sets holding x, or all points) in point order:
    bit i stands for points[i]."""
    pts = tuple(points)
    for index, point in enumerate(pts):
        if not isinstance(point, str):
            raise _Malformed(f"'points' entry {index} must be a string, got {type(point).__name__}")
    bit = {p: 1 << i for i, p in enumerate(pts)}
    if len(bit) != len(pts):
        raise ValueError("duplicate point labels")
    family = tuple(family)
    try:
        # a string or a mapping iterates as labels, but is no list of them
        if any(issubclass(kind, (str, dict)) for kind in set(map(type, family))):
            raise TypeError
        sets = dict.fromkeys(map(frozenset, family))
        # a set holds each label once, so its bits sum to their OR; a label
        # that is no point, or no string, has no bit
        masks = list(map(sum, map(partial(map, bit.__getitem__), sets)))
    except (KeyError, TypeError):
        raise _open_error(family, frozenset(pts)) from None
    full = (1 << len(pts)) - 1
    minimal = tuple(reduce(and_, [m for m in masks if m & b], full) for b in bit.values())
    return pts, tuple(sets), masks, minimal


class TopologySpace(_Frozen):
    """A finite space held as ``_minimal``, each point's minimal open U_x
    as a bitmask in point order (bit i stands for points[i]), whose unions
    are the opens (Alexandrov 1937). ``TopologySpace(points, opens)`` keeps
    an outside family as read in ``_family`` and checks the axioms once,
    into ``_violations``; the other constructors build the U_x of a
    topology and run no check. Point labels are strings."""

    __slots__ = ("points", "_minimal", "_family", "_violations")

    def __init__(self, points: Iterable[str], opens: Iterable[Iterable[str]]):
        pts, family, masks, minimal = _read(points, opens)
        self._set(points=pts, _minimal=minimal, _family=family)
        self._set(_violations=tuple(self._axiom_violations(masks, minimal)))

    @classmethod
    def _trusted(cls, points, minimal: tuple) -> "TopologySpace":
        """Store, unchecked, U_x with x in U_x and U_y ⊆ U_x for y in U_x."""
        space = cls.__new__(cls)
        space._set(points=tuple(points), _minimal=tuple(minimal), _family=None, _violations=())
        return space

    @property
    def opens(self) -> tuple:
        """The family as read, or else every union of the U_x in (size,
        labels) order. Line splitting with k copies lists 2^k + 3 sets, so
        the CLI never asks for them."""
        if self._family is not None:
            return self._family
        # bits in descending label order, so that among sets of one size
        # the one with the smaller labels has the larger mask
        labels = tuple(sorted(self.points, reverse=True))
        bit = {p: 1 << i for i, p in enumerate(labels)}
        opens = {0}
        for u in {sum(map(bit.__getitem__, _decode(u, self.points))) for u in self._minimal}:
            opens |= {o | u for o in opens}
        ordered = sorted(sorted(opens, reverse=True), key=int.bit_count)
        return tuple(_decode(o, labels) for o in ordered)

    def _axiom_violations(self, sets: list, minimal: tuple) -> list:
        """Check the axioms on minimal opens, given the family's distinct
        sets and each U_x as bitmasks; returns the violations.

        A family holding the empty and the full set is a topology exactly
        when it holds every U_x and every O | U_x: an intersection of opens
        is the union of the U_x of its points, and a union is reached by
        adding one U_x at a time. That is one pass over points x opens; an
        open O holding x needs none, as U_x ⊆ O gives O | U_x = O.
        Each missing set is reported once, sorted by kind, size and labels;
        a point in no open has U_x = full, reported by the full-set message.
        """
        opens = set(sets)
        full = (1 << len(self.points)) - 1
        violations = []
        if 0 not in opens:
            violations.append("the empty set is not open")
        if full not in opens:
            violations.append("the full point set is not open")
        missing = {u: "intersection" for u in minimal if u not in opens and u != full}
        unions = set()
        for x, u in enumerate(minimal):
            if u in opens:
                bit = 1 << x
                unions |= {o | u for o in sets if not o & bit}
        for union in unions - opens - {full}:
            missing.setdefault(union, "union")
        found = [(kind, sorted(_decode(m, self.points))) for m, kind in missing.items()]
        for kind, labels in sorted(found, key=lambda f: (f[0], len(f[1]), f[1])):
            violations.append(f"{kind} {labels} of opens is not open")
        return violations

    @classmethod
    def discrete(cls, points: Iterable[str]) -> "TopologySpace":
        points = list(points)
        return cls.from_subbasis(points, [[p] for p in points])

    @classmethod
    def indiscrete(cls, points: Iterable[str]) -> "TopologySpace":
        return cls.from_subbasis(points, [])

    @classmethod
    def from_subbasis(cls, points: Iterable[str], subbasis: Iterable[Iterable[str]]) -> "TopologySpace":
        """The coarsest topology containing the given sets: U_x is the
        intersection of the generators holding x (all points if none does)."""
        pts, _, _, minimal = _read(points, subbasis)
        return cls._trusted(pts, minimal)

    def to_json(self) -> dict:
        return {"points": list(self.points), "opens": [sorted(o) for o in self.opens]}

    @classmethod
    def from_json(cls, document: dict) -> "TopologySpace":
        points, opens = (serialize.entry(document, k, list, "space") for k in ("points", "opens"))
        serialize.known_keys(document, ("points", "opens"), "space")
        for key, cap in (("points", MAX_SPACE_POINTS), ("opens", MAX_SPACE_OPENS)):
            if len(document[key]) > cap:
                raise ValueError(f"space key {key!r} holds {len(document[key])} entries; at most {cap} are allowed")
        # each missing union repeats its labels, so their length bounds the
        # report; an open's label that is no point is refused as unknown
        for index, point in enumerate(points):
            if type(point) is str and len(point) > MAX_SPACE_LABEL:
                raise ValueError(
                    f"space key 'points' entry {index} is a label of {len(point)} characters; "
                    f"at most {MAX_SPACE_LABEL} are allowed"
                )
        try:
            return cls(points, opens)
        except _Malformed as exc:
            raise ValueError(f"space key {exc}") from None


def validate_topology(space: TopologySpace):
    """The axiom check made when the space was built; returns (ok, violations)."""
    return (not space._violations, list(space._violations))


def is_hausdorff(space: TopologySpace):
    """Pairwise separation test; returns (ok, witness_pair_or_None).

    In a finite space every point has a minimal open neighborhood, and
    two points are separable exactly when those minimal opens are
    disjoint. On failure the witness is the first non-separable pair in
    point-list order.
    """
    if space._violations:
        raise ValueError(f"not a topology: {space._violations[0]}")
    for (x, u), (y, v) in combinations(zip(space.points, space._minimal), 2):
        if u & v:
            return False, (x, y)
    return True, None


def build_line_splitting(copies: int) -> TopologySpace:
    """Finite line-splitting model: one past, ``copies`` branch points,
    one future. Its minimal opens are {past}, {future} and each branch
    chart {past, branch_i, future}.

    Branch points share every neighborhood pairwise, so the space is
    never Hausdorff; branch points are listed first so they form the
    reported witness.
    """
    if copies < 2:
        raise ValueError(f"line splitting needs at least 2 copies, got {copies}")
    branch_points = [f"0_{i}" for i in range(1, copies + 1)]
    past, future = 1 << copies, 1 << copies + 1
    minimal = [past | 1 << i | future for i in range(copies)] + [past, future]
    return TopologySpace._trusted(branch_points + ["-1", "+1"], minimal)


class BranchLedger:
    """Registry enforcing single use of the CTC qubit.

    At most one branch is accessible (in_use) at a time; consuming a
    branch — merged when the loop closed, collapsed when it did not — is
    terminal, and any later access raises :class:`BranchError`. Branch ids
    run 0, 1, 2, ...; each has one status row and nothing else: whether a
    loop closed is its session's weak verdict. A ledger is single-threaded:
    it takes no lock, so it must not be shared between threads.
    """

    def __init__(self):
        self._status: list[str] = []

    def allocate(self) -> int:
        if self._status and self._status[-1] == "in_use":
            raise BranchError(
                f"branch {len(self._status) - 1} is already in use; only one branch "
                "is accessible at a time"
            )
        self._status.append("in_use")
        return len(self._status) - 1

    def status(self, branch_id: int) -> str:
        # a bare list index would read branch -1 as the newest branch
        if not 0 <= branch_id < len(self._status):
            raise BranchError(f"unknown branch id {branch_id}")
        return self._status[branch_id]

    def touch(self, branch_id: int) -> None:
        """Check that a protocol event may still use the branch."""
        status = self.status(branch_id)
        if status != "in_use":
            raise BranchError(
                f"branch {branch_id} is {status}; a used branch can never "
                "be accessed again"
            )

    def consume(self, branch_id: int, outcome: str) -> None:
        if outcome not in ("merged", "collapsed"):
            raise ValueError(f"outcome must be merged or collapsed, got {outcome!r}")
        self.touch(branch_id)
        self._status[branch_id] = "consumed" if outcome == "merged" else "collapsed"

    def summary(self) -> dict:
        return {str(bid): status for bid, status in enumerate(self._status)}
