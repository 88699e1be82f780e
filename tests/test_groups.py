"""Groups, exact factorizations, and the derived matched-pair actions."""

import dataclasses

import numpy as np
import pytest

from hopfclifford.errors import FactorizationError, PreconditionError, SizeLimitError
from hopfclifford.groups import (FiniteGroup, MatchedPair, Subgroup,
                                 all_subgroups, compose, cycle_string,
                                 derive_actions,
                                 group_from_permutations,
                                 is_exact_factorization,
                                 is_invariant_subgroup_under_lact,
                                 orbit_and_stabilizer, parse_cycles,
                                 subgroup_closure, verify_matched_pair)

# the two action tables of the order-24 example, transcribed cell by cell
RACT_TABLE = {
    "t": {"g": "g", "g^2": "g^3", "g^3": "g^2"},
    "s": {"g": "g^2", "g^2": "g^3", "g^3": "g"},
    "s^2": {"g": "g^3", "g^2": "g", "g^3": "g^2"},
    "st": {"g": "g^3", "g^2": "g^2", "g^3": "g"},
    "ts": {"g": "g^2", "g^2": "g", "g^3": "g^3"},
}
LACT_TABLE = {
    "g": {"t": "ts", "s": "t", "s^2": "s", "st": "st", "ts": "s^2"},
    "g^2": {"t": "s^2", "s": "ts", "s^2": "t", "st": "st", "ts": "s"},
    "g^3": {"t": "s", "s": "s^2", "s^2": "ts", "st": "st", "ts": "t"},
}


def test_cycle_parsing_round_trip():
    p = parse_cycles("(1 2 3 4)")
    assert p == (1, 2, 3, 0)
    assert cycle_string(p) == "(1 2 3 4)"
    assert parse_cycles("(1 2)(3 4)") == (1, 0, 3, 2)
    assert parse_cycles("e", degree=3) == (0, 1, 2)
    with pytest.raises(ValueError):
        parse_cycles("(1 1 2)")


def test_closure_orders():
    assert group_from_permutations(["(1 2 3 4)"]).order == 4
    assert group_from_permutations(["(1 2)", "(1 2 3)"]).order == 6
    assert group_from_permutations(["(1 2 3 4)", "(1 2)"]).order == 24


def test_closure_is_validated_group(s4_sigma):
    n = s4_sigma.order
    for row in s4_sigma.cayley:
        assert sorted(row) == list(range(n))
    assert s4_sigma.labels[0] == "1"
    assert list(s4_sigma.cayley[0]) == list(range(n))


def test_size_cap():
    with pytest.raises(SizeLimitError):
        group_from_permutations(["(1 2 3 4)", "(1 2)"], size_cap=10)


@pytest.mark.parametrize("gens,names", [
    (["(1 2 3 4)", "(1 2)", "(1 2 3)"], ["g", "t", "s"]),      # S4
    (["(1 2 3 4 5)", "(1 2 3)", "(1 2)(3 4)"], None),         # A5
    (["(1 2 3 4 5)", "(1 2)"], ["c", "t"]),                   # S5
])
def test_cayley_table_matches_pairwise_composition(gens, names):
    G = group_from_permutations(gens, names=names)
    index = {p: i for i, p in enumerate(G.perms)}
    want = [[index[compose(p, q)] for q in G.perms] for p in G.perms]
    assert G.cayley.dtype == np.int64
    assert np.array_equal(G.cayley, want)
    # the element order and the labels come from the closure, not the table
    again = group_from_permutations(gens, names=names, size_cap=G.order)
    assert again.perms == G.perms and again.labels == G.labels
    with pytest.raises(SizeLimitError):
        group_from_permutations(gens, names=names, size_cap=G.order - 1)


def test_bad_cayley_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])


def test_non_associative_table_rejected():
    # a loop of order 5: a Latin square with identity 0 in which (1 2) 3 != 1 (2 3)
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(loop)


def _normalized_latin_squares(n):
    """Every n x n Latin square whose row 0 and column 0 are 0..n-1: the
    Cayley tables of all loops on n elements with identity 0."""
    table = [[j if i == 0 else (i if j == 0 else None) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in table]
            return
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                table[i][j] = v
                yield from fill(k + 1)
        table[i][j] = None

    return list(fill(0))


def _associative_by_rows(c):
    """The full check: (ab)x = a(bx) for every a, one row at a time."""
    return all(np.array_equal(c[c[a]], c[a][c]) for a in range(c.shape[0]))


# a loop of order 6 whose non-associativity (x 1) y = x (1 y) does not show:
# Light's test needs its second generator, 2
LOOP_6 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
          [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]


def test_light_test_matches_the_full_check():
    # all 63 loops of order <= 5 (groups and not), LOOP_6 and a few permutation groups
    tables = [np.array(t) for n in range(1, 6) for t in _normalized_latin_squares(n)]
    assert len(tables) == 1 + 1 + 1 + 4 + 56
    c = np.array(LOOP_6)
    assert np.array_equal(c[c[:, 1]], c[:, c[1]]) and not _associative_by_rows(c)
    tables.append(c)
    tables += [group_from_permutations(gens).cayley
               for gens in (["(1 2)", "(1 2 3)"], ["(1 2 3 4)", "(1 2)"],
                            ["(1 2 3 4 5)", "(1 2 3)"])]
    verdicts = []
    for c in tables:
        try:
            FiniteGroup(c)
            verdicts.append(True)
        except ValueError as exc:
            assert "not associative" in str(exc)
            verdicts.append(False)
        assert verdicts[-1] is _associative_by_rows(c)
    assert verdicts.count(False) > 0 and verdicts.count(True) > 3


def test_subgroup_validation(s3_group):
    with pytest.raises(ValueError):
        Subgroup(s3_group, (0, s3_group.label_index("t"), s3_group.label_index("s")))
    sub = subgroup_closure(s3_group, [s3_group.label_index("s")])
    assert sub.order == 3


def test_exact_factorization_s4(s4_sigma):
    f = subgroup_closure(s4_sigma, [s4_sigma.label_index("t"),
                                    s4_sigma.label_index("s")])
    g = subgroup_closure(s4_sigma, [s4_sigma.label_index("g")])
    assert is_exact_factorization(s4_sigma, f, g)
    # F = G = S3 fixing 4: intersection is everything
    assert not is_exact_factorization(s4_sigma, f, f)


def test_exact_factorization_s3_by_hand(s3_group):
    f = subgroup_closure(s3_group, [s3_group.label_index("t")])
    g = subgroup_closure(s3_group, [s3_group.label_index("s")])
    # oracle: enumerate the six products directly
    products = sorted(s3_group.mul(a, x) for a in g.members for x in f.members)
    assert products == list(range(6))
    assert is_exact_factorization(s3_group, f, g)


def test_derived_tables_match_reference(s4_pair):
    for x_label, row in RACT_TABLE.items():
        for g_label, want in row.items():
            assert s4_pair.ract_label(g_label, x_label) == want
    for g_label, row in LACT_TABLE.items():
        for x_label, want in row.items():
            assert s4_pair.lact_label(g_label, x_label) == want


def test_unit_laws(s4_pair):
    F, G = s4_pair.f_group, s4_pair.g_group
    for x in F.elements():
        assert s4_pair.lact[0, x] == x
        assert s4_pair.ract[0, x] == 0
    for g in G.elements():
        assert s4_pair.lact[g, 0] == 0
        assert s4_pair.ract[g, 0] == g


def test_verify_matched_pair_passes(s4_pair):
    rep = verify_matched_pair(s4_pair)
    assert rep.ok
    assert rep.violations == []


def test_corrupted_pair_reported(s4_pair):
    bad = MatchedPair(f_group=s4_pair.f_group, g_group=s4_pair.g_group,
                      ract=s4_pair.ract.copy(), lact=s4_pair.lact.copy(),
                      sigma=s4_pair.sigma, f_sub=s4_pair.f_sub,
                      g_sub=s4_pair.g_sub)
    bad.ract[1, 1] = (bad.ract[1, 1] + 1) % bad.g_group.order
    rep = verify_matched_pair(bad)
    assert not rep.ok
    assert any("reconstruction" in v for v in rep.violations)


def test_corrupted_lact_breaks_compatibility(s4_pair):
    bad = MatchedPair(f_group=s4_pair.f_group, g_group=s4_pair.g_group,
                      ract=s4_pair.ract.copy(), lact=s4_pair.lact.copy())
    bad.lact[1, 1] = (bad.lact[1, 1] + 1) % bad.f_group.order
    rep = verify_matched_pair(bad)
    assert not rep.ok
    assert any("|> over product" in v or "<| over product" in v
               for v in rep.violations)


# one fault per matched-pair law on hand-built pairs (rows g, columns x),
# with the violations it must produce: each law names its first failing cell.
# 1 <| x and g |> 1 cannot fail alone: at (1, 1, x) and (g, 1, 1) the
# product laws then read a = a^2 with a != 1
LAW_FAULTS = [
    ("1 |> x", "c3", "u2", [[0, 0, 0], [1, 1, 1]], [[0, 2, 1], [0, 1, 2]],
     ["unit law 1 |> c failed"]),
    ("1 <| x", "r2", "u2", [[0, 1], [1, 0]], [[0, 1], [0, 1]],
     ["unit law 1 <| r failed", "<| over product failed at (1, 1, r)"]),
    ("g |> 1", "r2", "u2", [[0, 0], [1, 1]], [[0, 1], [1, 0]],
     ["unit law u |> 1 failed", "|> over product failed at (u, 1, 1)"]),
    ("g <| 1", "r2", "g3", [[0, 0], [2, 1], [1, 2]], [[0, 1], [0, 1], [0, 1]],
     ["unit law g <| 1 failed"]),
    ("|> over products", "c3", "u2", [[0, 0, 0], [1, 1, 1]], [[0, 1, 2], [0, 1, 1]],
     ["|> over product failed at (u, c, c)"]),
    ("<| over products", "r2", "g3", [[0, 0], [1, 1], [2, 1]], [[0, 1], [0, 1], [0, 1]],
     ["<| over product failed at (g, g, r)"]),
]
CYCLIC = {"c3": (["(1 2 3)"], ["c"]), "r2": (["(1 2)"], ["r"]),
          "u2": (["(1 2)"], ["u"]), "g3": (["(1 2 3)"], ["g"])}


@pytest.mark.parametrize("f,g,ract,lact,violations", [c[1:] for c in LAW_FAULTS],
                         ids=[c[0] for c in LAW_FAULTS])
def test_each_matched_pair_law_fails_on_its_own_fault(f, g, ract, lact, violations):
    mp = MatchedPair(f_group=group_from_permutations(*CYCLIC[f]),
                     g_group=group_from_permutations(*CYCLIC[g]),
                     ract=np.array(ract), lact=np.array(lact))
    rep = verify_matched_pair(mp)
    assert not rep.ok and rep.violations == violations


def test_reconstruction_fails_on_its_own_fault(c4c2_pair):
    # the trivial actions form a matched pair, that of C4 x C2, but not D4's
    G, F = c4c2_pair.g_group, c4c2_pair.f_group
    trivial = dataclasses.replace(
        c4c2_pair, ract=np.repeat(np.arange(G.order)[:, None], F.order, axis=1),
        lact=np.repeat(np.arange(F.order)[None, :], G.order, axis=0))
    assert verify_matched_pair(trivial).violations == ["reconstruction failed at (g, r)"]
    assert verify_matched_pair(dataclasses.replace(trivial, sigma=None)).ok


def _loop_violations(mp):
    """verify_matched_pair cell by cell: each law's first failing cell."""
    F, G, ract, lact = mp.f_group, mp.g_group, mp.ract, mp.lact
    fl, gl, xs, gs = F.labels, G.labels, F.elements(), G.elements()
    laws = [
        [f"unit law 1 |> {fl[x]} failed" for x in xs if lact[0, x] != x],
        [f"unit law 1 <| {fl[x]} failed" for x in xs if ract[0, x] != 0],
        [f"unit law {gl[g]} |> 1 failed" for g in gs if lact[g, 0] != 0],
        [f"unit law {gl[g]} <| 1 failed" for g in gs if ract[g, 0] != g],
        [f"|> over product failed at ({gl[s]}, {fl[x]}, {fl[y]})"
         for s in gs for x in xs for y in xs
         if lact[s, F.mul(x, y)] != F.mul(lact[s, x], lact[ract[s, x], y])],
        [f"<| over product failed at ({gl[s]}, {gl[t]}, {fl[x]})"
         for s in gs for t in gs for x in xs
         if ract[G.mul(s, t), x] != G.mul(ract[s, lact[t, x]], ract[t, x])],
        [f"reconstruction failed at ({gl[g]}, {fl[x]})" for g in gs for x in xs
         if mp.sigma.mul(mp.g_sub.members[g], mp.f_sub.members[x])
         != mp.sigma.mul(mp.f_sub.members[lact[g, x]], mp.g_sub.members[ract[g, x]])],
    ]
    return [cells[0] for cells in laws if cells]


def test_whole_table_laws_match_the_cell_loops(s4_pair, c4c2_pair):
    # every single-cell change of either table of two derived pairs
    for mp in (s4_pair, c4c2_pair):
        assert verify_matched_pair(mp).violations == _loop_violations(mp) == []
        for table, n in (("ract", mp.g_group.order), ("lact", mp.f_group.order)):
            for cell in np.ndindex(mp.ract.shape):
                for value in range(n):
                    bad = dataclasses.replace(mp, **{table: getattr(mp, table).copy()})
                    getattr(bad, table)[cell] = value
                    assert verify_matched_pair(bad).violations == _loop_violations(bad)


def test_abstract_inversion_pair():
    c2 = group_from_permutations(["(1 2)"], names=["r"])
    c4 = group_from_permutations(["(1 2 3 4)"], names=["g"])
    # rows g, columns x: g <| r = g^{-1}, left action trivial
    ract = np.array([[a, c4.inverse[a]] for a in range(4)])
    lact = np.array([[x for x in range(2)] for _ in range(4)])
    mp = MatchedPair(f_group=c2, g_group=c4, ract=ract, lact=lact)
    rep = verify_matched_pair(mp)
    assert rep.ok
    orbit, stab = orbit_and_stabilizer(mp, 2)
    assert orbit == (2,)
    assert stab.members == (0, 1)


def test_orbit_and_stabilizer_rejects_a_non_action():
    # r moves the elements of C3 along the 3-cycle a -> a + 1: the unit law
    # holds, but (a <| r) <| r = a + 2 while a <| r^2 = a
    c2 = group_from_permutations(["(1 2)"], names=["r"])
    c3 = group_from_permutations(["(1 2 3)"], names=["g"])
    ract = np.array([[a, (a + 1) % 3] for a in range(3)])
    lact = np.array([[x for x in range(2)] for _ in range(3)])
    mp = MatchedPair(f_group=c2, g_group=c3, ract=ract, lact=lact)
    with pytest.raises(PreconditionError, match=r"not a right action$"):
        orbit_and_stabilizer(mp, 0)
    ract[1, 0] = 2
    with pytest.raises(PreconditionError, match="unit law"):
        orbit_and_stabilizer(mp, 0)


def test_orbit_and_stabilizer_counterexample(s4_pair):
    G, F = s4_pair.g_group, s4_pair.f_group
    orbit, stab = orbit_and_stabilizer(s4_pair, G.label_index("g"))
    assert sorted(G.labels[i] for i in orbit) == ["g", "g^2", "g^3"]
    assert [F.labels[i] for i in stab.members] == ["1", "t"]
    # identity is fixed by everything
    orbit, stab = orbit_and_stabilizer(s4_pair, 0)
    assert orbit == (0,)
    assert stab.order == F.order


def test_invariance_under_left_action(s4_pair):
    F = s4_pair.f_group
    stab = Subgroup(F, (0, F.label_index("t")))
    assert not is_invariant_subgroup_under_lact(s4_pair, stab)
    # g |> t = ts leaves the subgroup
    assert s4_pair.lact_label("g", "t") == "ts"
    assert is_invariant_subgroup_under_lact(s4_pair, Subgroup(F, tuple(F.elements())))
    assert is_invariant_subgroup_under_lact(s4_pair, Subgroup(F, (0,)))


def _exact_factorizations(group):
    subs = all_subgroups(group)
    for f in subs:
        for g in subs:
            if f.order * g.order == group.order and is_exact_factorization(group, f, g):
                yield f, g


@pytest.mark.parametrize("gens", [["(1 2)", "(1 2 3)"], ["(1 2 3 4)", "(1 2)"]])
def test_every_exact_factorization_gives_matched_pair(gens):
    group = group_from_permutations(gens)
    count = 0
    for f, g in _exact_factorizations(group):
        mp = derive_actions(group, f, g)
        assert verify_matched_pair(mp).ok
        count += 1
    assert count > 0


def test_orbits_partition_g(s4_pair, c4c2_pair):
    for mp in (s4_pair, c4c2_pair):
        F, G = mp.f_group, mp.g_group
        covered = set()
        for g in G.elements():
            orbit, stab = orbit_and_stabilizer(mp, g)
            assert len(orbit) * stab.order == F.order
            assert g in orbit
            covered.update(orbit)
        assert covered == set(G.elements())


def test_derive_actions_requires_exact(s3_group):
    f = subgroup_closure(s3_group, [s3_group.label_index("t")])
    with pytest.raises(FactorizationError):
        derive_actions(s3_group, f, f)


def test_group_json_round_trip(s4_sigma):
    data = s4_sigma.to_json_dict()
    back = FiniteGroup.from_json_dict(data)
    assert np.array_equal(back.cayley, s4_sigma.cayley)
    assert back.labels == s4_sigma.labels


def test_all_subgroups_s4(s4_sigma):
    subs = all_subgroups(s4_sigma)
    assert len(subs) == 30
    orders = sorted({s.order for s in subs})
    assert orders == [1, 2, 3, 4, 6, 8, 12, 24]


def test_all_subgroups_s5():
    assert len(all_subgroups(group_from_permutations(["(1 2 3 4 5)", "(1 2)"]))) == 156
