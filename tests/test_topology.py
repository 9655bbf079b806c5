import ast
import json
import re
from itertools import combinations

import numpy as np
import pytest

from ctcsim.protocol import ProtocolConfig, run_session
from ctcsim import topology
from ctcsim.states import StateVector
from ctcsim.topology import (
    MAX_SPACE_LABEL,
    MAX_SPACE_OPENS,
    MAX_SPACE_POINTS,
    BranchError,
    BranchLedger,
    TopologySpace,
    build_line_splitting,
    is_hausdorff,
    validate_topology,
)

RNG = np.random.default_rng(2026)


def brute_force_hausdorff(space):
    """Oracle: try every pair of opens for every pair of points; returns
    (ok, first non-separable pair in point-list order or None)."""
    for x, y in combinations(space.points, 2):
        separated = False
        for o1 in space.opens:
            for o2 in space.opens:
                if x in o1 and y in o2 and not (o1 & o2):
                    separated = True
        if not separated:
            return False, (x, y)
    return True, None


def pairwise_violations(space):
    """Oracle: enumerate every pair of opens. Maps each violation message
    to its (kind, missing set); the axioms hold exactly when it is empty."""
    opens = set(space.opens)
    found = {}
    if frozenset() not in opens:
        found["the empty set is not open"] = ("empty", frozenset())
    if frozenset(space.points) not in opens:
        found["the full point set is not open"] = ("full", frozenset(space.points))
    for o1, o2 in combinations(opens, 2):
        for kind, subset in (("union", o1 | o2), ("intersection", o1 & o2)):
            if subset not in opens:
                found[f"{kind} {sorted(subset)} of opens is not open"] = (kind, subset)
    return found


def pairwise_closure(points, subbasis):
    """Oracle: the coarsest topology by closing the generators under
    pairwise intersection, then the basis under pairwise union."""
    full = frozenset(points)
    gen = [frozenset(s) for s in subbasis]
    basis = {full, frozenset()}
    frontier = {full}
    for g in gen:
        frontier = frontier | {g & f for f in frontier} | {g}
        basis |= frontier
    opens = {frozenset()}
    frontier = set(basis)
    while frontier:
        new = {b | o for b in basis for o in frontier} - opens - frontier
        opens |= frontier
        frontier = new
    return sorted(opens, key=lambda s: (len(s), sorted(s)))


def random_subsets(rng, points, count):
    return [[p for p in points if rng.random() < 0.5] for _ in range(count)]


def random_subbasis(rng, max_points=6):
    points = [f"p{i}" for i in range(int(rng.integers(2, max_points + 1)))]
    return points, random_subsets(rng, points, int(rng.integers(1, 4)))


def random_topology(rng, max_points=6):
    return TopologySpace.from_subbasis(*random_subbasis(rng, max_points))


def random_family_input(rng, max_points=6, min_points=1):
    """Points and a family of subsets that may or may not be a topology:
    random subsets, or a generated topology with one open dropped."""
    points = [f"p{i}" for i in range(int(rng.integers(min_points, max_points + 1)))]
    if rng.random() < 0.5:
        opens = random_subsets(rng, points, int(rng.integers(0, 9)))
        opens += [[], points][: int(rng.integers(0, 3))]
        return points, opens
    opens = list(TopologySpace.from_subbasis(points, random_subsets(rng, points, 3)).opens)
    if rng.random() < 0.7:
        opens.pop(int(rng.integers(len(opens))))
    return points, opens


def random_family(rng, max_points=6):
    return TopologySpace(*random_family_input(rng, max_points))


# ------------------------------------------------------------------- validate


def test_discrete_topology_is_valid():
    ok, violations = validate_topology(TopologySpace.discrete(["a", "b", "c"]))
    assert ok and violations == []


def test_missing_full_set_is_reported():
    space = TopologySpace(["a", "b"], [[], ["a"]])
    ok, violations = validate_topology(space)
    assert not ok
    assert any("full point set" in v for v in violations)


def test_union_gap_is_reported():
    space = TopologySpace(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])
    ok, violations = validate_topology(space)
    assert not ok
    assert any("union" in v for v in violations)


def test_generated_topology_validates():
    space = TopologySpace.from_subbasis(
        ["0_1", "0_2", "-1", "+1"],
        [["-1"], ["+1"], ["-1", "0_1", "+1"], ["-1", "0_2", "+1"]],
    )
    ok, violations = validate_topology(space)
    assert ok, violations


def parse_violation(message):
    """(kind, missing set) of one union or intersection message."""
    kind, rest = message.split(" ", 1)
    return kind, frozenset(ast.literal_eval(rest[: rest.index("]") + 1]))


def test_validate_matches_pairwise_oracle_on_random_families():
    rng = np.random.default_rng(11)
    invalid = 0
    for _ in range(400):
        space = random_family(rng)
        ok, violations = validate_topology(space)
        expected = pairwise_violations(space)
        assert ok == (not expected)
        invalid += not ok
        fixed = [v for v in violations if v.startswith("the ")]
        assert fixed == [v for v in expected if v.startswith("the ")]
        reported = [parse_violation(v) for v in violations[len(fixed):]]
        assert reported == sorted(reported, key=lambda r: (r[0], len(r[1]), sorted(r[1])))
        assert len({subset for _, subset in reported}) == len(reported)
        opens = set(space.opens)
        for kind, subset in reported:
            # a real missing union or intersection of listed opens
            assert subset not in opens and subset != frozenset(space.points)
            if kind == "union":
                assert subset == frozenset().union(*(o for o in opens if o <= subset))
            else:
                assert kind == "intersection"
                containing = [o for o in opens if subset <= o]
                assert containing and subset == frozenset.intersection(*containing)
    assert 100 < invalid < 400


def test_validate_agrees_with_oracle_on_generated_topologies():
    rng = np.random.default_rng(12)
    for _ in range(100):
        space = random_topology(rng)
        assert validate_topology(space) == (True, [])
        assert pairwise_violations(space) == {}


def test_point_in_no_open_gets_only_the_full_set_message():
    space = TopologySpace(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b"]])
    assert validate_topology(space) == (False, ["the full point set is not open"])


def test_violations_are_sorted_by_kind_size_and_labels():
    space = TopologySpace(
        ["a", "b", "c", "d"], [[], ["a", "b"], ["b", "c"], ["c", "d"], ["a"], ["a", "b", "c", "d"]]
    )
    assert validate_topology(space) == (
        False,
        [
            "intersection ['b'] of opens is not open",
            "intersection ['c'] of opens is not open",
            "union ['a', 'b', 'c'] of opens is not open",
            "union ['a', 'c', 'd'] of opens is not open",
            "union ['b', 'c', 'd'] of opens is not open",
        ],
    )


def test_from_subbasis_matches_pairwise_closure():
    rng = np.random.default_rng(13)
    for _ in range(200):
        points, subbasis = random_subbasis(rng)
        space = TopologySpace.from_subbasis(points, subbasis)
        assert space.opens == tuple(pairwise_closure(points, subbasis))


def test_from_subbasis_rejects_unknown_points():
    with pytest.raises(ValueError, match="unknown points"):
        TopologySpace.from_subbasis(["a", "b"], [["z"]])


def test_space_rejects_unknown_points_in_opens():
    with pytest.raises(ValueError):
        TopologySpace(["a"], [["a", "z"]])


def test_labels_must_be_strings_and_opens_must_not_be():
    """A string open is refused, not read as its characters, and a label
    that is not a string is refused, not turned into one."""
    for build in (TopologySpace, TopologySpace.from_subbasis):
        with pytest.raises(ValueError, match="'points' entry 1 must be a string, got int"):
            build(["a", 1], [])
        with pytest.raises(ValueError, match="'opens' entry 1 must be a list, got str"):
            build(["a", "b"], [["a"], "ab"])
        with pytest.raises(ValueError, match="'opens' entry 0 must be a list, got int"):
            build(["a", "b"], [5])
        with pytest.raises(ValueError, match="'opens' entry 0 must hold only strings, got tuple"):
            build(["a", "b"], [["a", ("b",)]])
    # any iterable of labels is an open
    space = TopologySpace(["a", "b"], [(), {"a"}, frozenset("ab"), iter(["b", "a"])])
    assert space._family == (frozenset(), frozenset("a"), frozenset("ab"))


# ---------------------------------------------------------------- is_hausdorff


def test_discrete_four_points_is_hausdorff():
    ok, witness = is_hausdorff(TopologySpace.discrete(["a", "b", "c", "d"]))
    assert ok and witness is None


def test_indiscrete_pair_is_not_hausdorff():
    ok, witness = is_hausdorff(TopologySpace.indiscrete(["x", "y"]))
    assert not ok
    assert set(witness) == {"x", "y"}


def test_doubled_origin_model_witness():
    space = TopologySpace.from_subbasis(
        ["0_1", "0_2", "-1", "+1"],
        [["-1"], ["+1"], ["-1", "0_1", "+1"], ["-1", "0_2", "+1"]],
    )
    ok, witness = is_hausdorff(space)
    assert not ok
    assert witness == ("0_1", "0_2")
    # oracle agrees that no separation exists anywhere
    assert brute_force_hausdorff(space) == (False, ("0_1", "0_2"))


def test_is_hausdorff_rejects_invalid_space():
    with pytest.raises(ValueError):
        is_hausdorff(TopologySpace(["a", "b"], [["a"]]))


def test_checker_agrees_with_brute_force_oracle():
    for _ in range(50):
        space = random_topology(RNG)
        assert is_hausdorff(space) == brute_force_hausdorff(space)
    for copies in range(2, 6):
        space = build_line_splitting(copies)
        assert is_hausdorff(space) == brute_force_hausdorff(space)


# ------------------------------------------------------------- line splitting


def test_line_splitting_two_copies_is_doubled_origin_model():
    built = build_line_splitting(2)
    explicit = TopologySpace.from_subbasis(
        ["0_1", "0_2", "-1", "+1"],
        [["-1"], ["+1"], ["-1", "0_1", "+1"], ["-1", "0_2", "+1"]],
    )
    assert set(built.points) == set(explicit.points)
    assert set(built.opens) == set(explicit.opens)


@pytest.mark.parametrize("copies", [2, 3, 4, 5, 6])
def test_line_splitting_never_hausdorff_with_branch_witness(copies):
    space = build_line_splitting(copies)
    ok, witness = is_hausdorff(space)
    assert not ok
    assert all(w.startswith("0_") for w in witness)


def test_line_splitting_branch_points_pairwise_non_separable():
    space = build_line_splitting(3)
    branch_points = [p for p in space.points if p.startswith("0_")]
    for x, y in combinations(branch_points, 2):
        separable = any(
            x in o1 and y in o2 and not (o1 & o2)
            for o1 in space.opens
            for o2 in space.opens
        )
        assert not separable


def test_line_splitting_charts_are_open():
    space = build_line_splitting(3)
    for bp in ("0_1", "0_2", "0_3"):
        assert frozenset({"-1", bp, "+1"}) in set(space.opens)


def subspace(space: TopologySpace, subset) -> TopologySpace:
    """The induced topology on ``subset``, in point order: the space the
    traces of the opens generate."""
    kept = frozenset(subset)
    return TopologySpace.from_subbasis(
        [p for p in space.points if p in kept], [o & kept for o in space.opens]
    )


def test_one_branch_subspace_keeps_branch_point_entangled_with_past():
    # a finite space is Hausdorff only if discrete; the branch chart keeps
    # the past inside every neighborhood of the branch point, so the
    # subspace of one branch is still not Hausdorff at the branch point
    space = build_line_splitting(2)
    sub = subspace(space, ["-1", "0_1", "+1"])
    ok, witness = is_hausdorff(sub)
    assert not ok
    assert "0_1" in witness
    # away from the branch point the subspace is discrete, hence Hausdorff
    regular = subspace(space, ["-1", "+1"])
    assert is_hausdorff(regular) == (True, None)


@pytest.mark.parametrize("copies", range(2, 9))
def test_line_splitting_lists_the_generated_opens_in_order(copies):
    branch_points = [f"0_{i}" for i in range(1, copies + 1)]
    points = branch_points + ["-1", "+1"]
    subbasis = [["-1"], ["+1"]] + [["-1", bp, "+1"] for bp in branch_points]
    built = build_line_splitting(copies)
    generated = TopologySpace.from_subbasis(points, subbasis)
    assert built.points == generated.points == tuple(points)
    assert built.opens == generated.opens == tuple(pairwise_closure(points, subbasis))
    assert len(built.opens) == 2**copies + 3


def test_line_splitting_requires_two_copies():
    with pytest.raises(ValueError):
        build_line_splitting(1)


def built_spaces(rng):
    """Spaces built from their U_x: generated topologies, discrete and
    indiscrete spaces, line splittings with 2-8 copies, and a random
    subspace of each."""
    spaces = [random_topology(rng) for _ in range(100)]
    for labels in ([], ["a"], ["c", "a", "b"], ["p1", "p0", "p3", "p2"]):
        spaces += [TopologySpace.discrete(labels), TopologySpace.indiscrete(labels)]
    spaces += [build_line_splitting(k) for k in range(2, 9)]
    return spaces + [subspace(s, [p for p in s.points if rng.random() < 0.5]) for s in spaces]


def test_built_spaces_pass_the_boundary_check():
    for space in built_spaces(np.random.default_rng(14)):
        again = TopologySpace(space.points, space.opens)
        assert validate_topology(again) == (True, [])
        assert again._minimal == space._minimal
        assert list(space.opens) == sorted(space.opens, key=lambda s: (len(s), sorted(s)))
        if len(space.opens) <= 64:
            assert is_hausdorff(space) == brute_force_hausdorff(space)


# ------------------------------------------------------------ frozenset oracle


def oracle_read(points, family):
    """Oracle: the frozenset reader; returns the points, the distinct sets
    as read, and each U_x."""
    pts = tuple(str(p) for p in points)
    labels = frozenset(pts)
    if len(labels) != len(pts):
        raise ValueError("duplicate point labels")
    sets = {}
    for subset in family:
        fs = frozenset(str(p) for p in subset)
        if not fs <= labels:
            raise ValueError(f"open set {sorted(fs)} contains unknown points")
        sets[fs] = None
    minimal = {p: labels.intersection(*(s for s in sets if p in s)) for p in pts}
    return pts, tuple(sets), minimal


def oracle_violations(points, family, minimal):
    """Oracle: the frozenset axiom pass, one O | U_x per point and open."""
    opens = set(family)
    full = frozenset(points)
    violations = []
    if frozenset() not in opens:
        violations.append("the empty set is not open")
    if full not in opens:
        violations.append("the full point set is not open")
    missing = {u: "intersection" for u in minimal.values() if u not in opens and u != full}
    for x, u in minimal.items():
        if u in opens:
            for union in {o | u for o in family if x not in o} - opens - {full}:
                missing.setdefault(union, "union")
    for subset, kind in sorted(missing.items(), key=lambda m: (m[1], len(m[0]), sorted(m[0]))):
        violations.append(f"{kind} {sorted(subset)} of opens is not open")
    return violations


def oracle_opens(minimal):
    """Oracle: every union of the U_x as frozensets, in (size, labels) order."""
    opens = {frozenset()}
    for u in set(minimal.values()):
        opens |= {o | u for o in opens}
    return tuple(sorted(opens, key=lambda s: (len(s), sorted(s))))


def shuffled_splitting(rng, copies):
    """A line splitting as an outside document: the built space's opens,
    with points, opens and each open's labels in seeded order."""
    space = build_line_splitting(copies)
    points = [space.points[i] for i in rng.permutation(len(space.points))]
    opens = [sorted(o) for o in space.opens]
    opens = [[o[i] for i in rng.permutation(len(o))] for o in opens]
    return points, [opens[i] for i in rng.permutation(len(opens))]


def relisted(rng, points, opens):
    """The family with one open listed again, labels reversed, and one open
    with a label repeated; the distinct sets stay the same."""
    opens = [list(o) for o in opens]
    if opens:
        opens.append(opens[int(rng.integers(len(opens)))][::-1])
        chosen = opens[int(rng.integers(len(opens)))]
        if chosen:
            opens.append(chosen + chosen[:1])
    return points, opens


def oracle_inputs(rng):
    inputs = [random_family_input(rng) for _ in range(300)]
    inputs += [(s.points, s.opens) for s in built_spaces(rng)]
    inputs += [shuffled_splitting(rng, k) for k in range(2, 11) for _ in range(2)]
    # 65 to 100 points, so a mask passes one 64-bit word
    inputs += [random_family_input(rng, 100, min_points=65) for _ in range(40)]
    return inputs + [relisted(rng, *pair) for pair in inputs[::3]]


@pytest.mark.parametrize("key, cap", [("points", MAX_SPACE_POINTS), ("opens", MAX_SPACE_OPENS)])
def test_space_documents_are_capped_before_they_are_read(monkeypatch, key, cap):
    labels = [f"p{i}" for i in range(MAX_SPACE_POINTS)]
    document = {"points": labels, "opens": [[], labels]}
    document[key] = document[key] + document[key][-1:] * (cap - len(document[key]))
    assert len(TopologySpace.from_json(document).points) == len(document["points"])
    document[key] = document[key] + document[key][-1:]
    monkeypatch.setattr(topology, "_read", None)  # any read would fail another way
    message = f"space key '{key}' holds {cap + 1} entries; at most {cap} are allowed"
    with pytest.raises(ValueError, match=re.escape(message)):
        TopologySpace.from_json(document)


def test_space_labels_are_capped_before_they_are_read(monkeypatch):
    label = "x" * MAX_SPACE_LABEL
    document = {"points": ["a", label], "opens": [[], ["a", label]]}
    assert TopologySpace.from_json(document).points == ("a", label)
    # a longer label in an open is no point
    with pytest.raises(ValueError, match="contains unknown points"):
        TopologySpace.from_json({**document, "opens": [[], ["a", label + "x"]]})
    document["points"][1] += "x"
    monkeypatch.setattr(topology, "_read", None)  # any read would fail another way
    message = (
        f"space key 'points' entry 1 is a label of {MAX_SPACE_LABEL + 1} characters; "
        f"at most {MAX_SPACE_LABEL} are allowed"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TopologySpace.from_json(document)


def test_bitmask_kernel_matches_the_frozenset_oracle():
    rng = np.random.default_rng(16)
    invalid = wide = 0
    for points, family in oracle_inputs(rng):
        document = json.loads(
            json.dumps({"points": list(points), "opens": [list(o) for o in family]})
        )
        if len(points) <= MAX_SPACE_POINTS:
            space = TopologySpace.from_json(document)
        else:  # past the file cap, through the constructor the cap guards
            space = TopologySpace(document["points"], document["opens"])
        pts, sets, minimal = oracle_read(*document.values())
        # U_x as a bitmask in point order: bit i stands for pts[i]
        masks = tuple(sum(1 << pts.index(p) for p in minimal[x]) for x in pts)
        assert space.points == pts
        assert space._family == sets
        assert space._minimal == masks
        assert list(space._violations) == oracle_violations(pts, sets, minimal)
        invalid += bool(space._violations)
        wide += len(pts) > 64
        if len(set(minimal.values())) <= 12:
            built = TopologySpace._trusted(pts, masks)
            assert built.opens == oracle_opens(minimal)
    assert 100 < invalid and wide >= 40


def test_subspace_keeps_the_traces_of_the_opens():
    rng = np.random.default_rng(15)
    for _ in range(100):
        space = random_topology(rng)
        subset = [p for p in space.points if rng.random() < 0.5]
        traces = {frozenset(subset) & o for o in space.opens}
        sub = subspace(space, subset)
        assert sub.points == tuple(subset)
        assert set(sub.opens) == traces and len(sub.opens) == len(traces)


def test_built_spaces_reject_duplicate_labels():
    for build in (
        TopologySpace.discrete,
        TopologySpace.indiscrete,
        lambda points: TopologySpace.from_subbasis(points, [["a"]]),
    ):
        with pytest.raises(ValueError, match="duplicate point labels"):
            build(["a", "b", "a"])


def test_topology_json_round_trip():
    space = build_line_splitting(2)
    again = TopologySpace.from_json(space.to_json())
    assert set(space.opens) == set(again.opens)
    assert space.points == again.points


# ---------------------------------------------------------------- branch ledger


def test_allocate_and_consume_lifecycle():
    ledger = BranchLedger()
    first = ledger.allocate()
    assert ledger.status(first) == "in_use"
    ledger.consume(first, "merged")
    assert ledger.status(first) == "consumed"
    second = ledger.allocate()
    assert second != first


def test_single_branch_in_use():
    ledger = BranchLedger()
    ledger.allocate()
    with pytest.raises(BranchError):
        ledger.allocate()


def test_consumed_branch_rejects_all_access():
    ledger = BranchLedger()
    bid = ledger.allocate()
    ledger.consume(bid, "collapsed")
    with pytest.raises(BranchError):
        ledger.touch(bid)
    with pytest.raises(BranchError):
        ledger.consume(bid, "merged")


def test_unknown_branch_errors():
    ledger = BranchLedger()
    with pytest.raises(BranchError):
        ledger.status(5)
    with pytest.raises(BranchError):
        ledger.consume(5, "merged")


def test_branch_ids_never_reused():
    ledger = BranchLedger()
    seen = set()
    for _ in range(25):
        bid = ledger.allocate()
        assert bid not in seen
        seen.add(bid)
        ledger.consume(bid, "merged" if bid % 2 else "collapsed")
    assert len(seen) == 25


def test_invalid_consume_outcome():
    ledger = BranchLedger()
    bid = ledger.allocate()
    with pytest.raises(ValueError):
        ledger.consume(bid, "vanished")


def test_merged_branch_loop_closure_error_is_zero():
    ledger = BranchLedger()
    cfg = ProtocolConfig(input_state=StateVector.qubit(0.6, 0.8), seed=4)
    transcript = run_session(cfg, ledger)
    assert not transcript.collapse_flag
    assert ledger.status(transcript.branch_id) == "consumed"
    # a merged branch's loop closure is its session's weak verdict
    assert transcript.final_verdicts["weak"].residual <= 1e-12


def test_sequential_sessions_allocate_distinct_branches():
    ledger = BranchLedger()
    ids = []
    for seed in range(10):
        cfg = ProtocolConfig(input_state=StateVector.qubit(0.6, 0.8), seed=seed)
        ids.append(run_session(cfg, ledger).branch_id)
    assert len(set(ids)) == 10


# ------------------------------------------------------------ work counts


def test_validation_runs_once_at_construction(monkeypatch):
    """The axiom pass runs once for a family read from outside and never
    for a space built from its U_x."""
    calls = []
    axiom_pass = TopologySpace._axiom_violations

    def counted(space, *masks):
        calls.append(space)
        return axiom_pass(space, *masks)

    monkeypatch.setattr(TopologySpace, "_axiom_violations", counted)
    built = [
        build_line_splitting(10),
        TopologySpace.discrete(["a", "b", "c"]),
        TopologySpace.indiscrete(["a", "b"]),
        TopologySpace.from_subbasis(["a", "b"], [["a"]]),
        subspace(build_line_splitting(3), ["-1", "0_1"]),
    ]
    assert calls == []
    family = TopologySpace(["a", "b"], [["a"]])
    assert calls == [family]
    calls.clear()
    for space in built + [family]:
        ok, _ = validate_topology(space)
        if ok:
            is_hausdorff(space)
        else:
            with pytest.raises(ValueError, match="not a topology"):
                is_hausdorff(space)
    assert calls == []


def test_line_splitting_of_1000_copies_runs_no_axiom_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(TopologySpace, "_axiom_violations", lambda space, *masks: calls.append(space))
    space = build_line_splitting(1000)
    assert calls == []
    assert len(space.points) == 1002
    assert validate_topology(space) == (True, [])
    assert is_hausdorff(space) == (False, ("0_1", "0_2"))


# ------------------------------------------------------------ branch ids


def test_out_of_range_branch_ids_are_unknown():
    """-1 and the next unallocated id are unknown, with no branch, a
    consumed one, and a consumed one plus one in use."""
    ledger = BranchLedger()
    for setup in (None, lambda: ledger.consume(ledger.allocate(), "merged"), ledger.allocate):
        if setup is not None:
            setup()
        for branch_id in (-1, len(ledger.summary())):
            for access in (
                ledger.status,
                ledger.touch,
                lambda bid: ledger.consume(bid, "merged"),
            ):
                with pytest.raises(BranchError, match=f"unknown branch id {branch_id}"):
                    access(branch_id)
