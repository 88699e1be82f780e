"""Finite groups as explicit Cayley tables, plus exact factorizations.

Permutations are tuples of images on 0-based points and compose as
(p * q)(i) = p(q(i)), i.e. the right factor acts first.  An exact
factorization Sigma = G.F (every element uniquely a product g*x with
g in G, x in F) induces the two actions

    g * x = (g |> x) * (g <| x),     g |> x in F,  g <| x in G,

stored as lookup tables on the standalone groups built from F and G.

Each group law -- associativity, subgroup closure, the matched-pair laws
-- is checked as one comparison of whole Cayley or action tables, indexed
by numpy arrays, not cell by cell.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import FactorizationError, PreconditionError, SizeLimitError

DEFAULT_SIZE_CAP = 10000


# ---------------------------------------------------------------------------
# permutation helpers

def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def parse_cycles(text: str, degree: Optional[int] = None,
                 limit: Optional[int] = None) -> tuple[int, ...]:
    """Parse 1-based cycle notation like "(1 2 3 4)" or "(1 2)(3 4)" into at least
    `degree` points; a point above `limit` is rejected before anything is built."""
    text = text.strip()
    if text in ("e", "()", "1", "id"):
        return identity_perm(degree or 1)
    cycles = []
    for chunk in re.findall(r"\(([^()]*)\)", text):
        pts = [int(tok) for tok in re.split(r"[,\s]+", chunk.strip()) if tok]
        if len(pts) != len(set(pts)) or any(p < 1 for p in pts):
            raise ValueError(f"bad cycle {chunk!r} in {text!r}")
        if limit is not None and any(p > limit for p in pts):
            raise ValueError(f"point {max(pts)} in {text!r} is above {limit}")
        cycles.append(pts)
    if not cycles:
        raise ValueError(f"cannot parse permutation {text!r}")
    n = max(max(c) for c in cycles)
    if degree is not None:
        n = max(n, degree)
    images = list(range(n))
    seen: set[int] = set()
    for c in cycles:
        for a in c:
            if a - 1 in seen:
                raise ValueError(f"point {a} repeated in {text!r}")
            seen.add(a - 1)
        for i, a in enumerate(c):
            images[a - 1] = c[(i + 1) % len(c)] - 1
    return tuple(images)


def cycle_string(p: Sequence[int]) -> str:
    """Canonical 1-based cycle form; identity prints as 'e'."""
    seen: set[int] = set()
    out = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        cur = p[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = p[cur]
        out.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(out) if out else "e"


def _collapse_word(word: Sequence[str]) -> str:
    """Compact a generator word: () -> '1', ('s','s') -> 's^2'."""
    if not word:
        return "1"
    parts = []
    for name, run in itertools.groupby(word):
        k = len(list(run))
        parts.append(name if k == 1 else f"{name}^{k}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# groups

class FiniteGroup:
    """A finite group given by its Cayley table; element 0 is the identity."""

    def __init__(self, cayley, labels: Optional[Sequence[str]] = None,
                 perms: Optional[Sequence[tuple[int, ...]]] = None,
                 validate: bool = True):
        self.cayley = np.asarray(cayley, dtype=np.int64)
        self.order = int(self.cayley.shape[0])
        if labels is None:
            labels = ["1"] + [f"x{i}" for i in range(1, self.order)]
        self.labels = list(labels)
        if len(self.labels) != self.order or len(set(self.labels)) != self.order:
            raise ValueError(f"need {self.order} distinct labels, got {self.labels!r}")
        self.perms = list(perms) if perms is not None else None
        if validate:
            self._validate()
        self.inverse = np.argmin(np.abs(self.cayley), axis=1)
        if validate and not np.all(self.cayley[np.arange(self.order), self.inverse] == 0):
            raise ValueError("inverse table inconsistent with Cayley table")

    def _validate(self) -> None:
        n, c = self.order, self.cayley
        if c.shape != (n, n):
            raise ValueError("Cayley table must be square")
        ref = np.arange(n)
        if not np.all(np.sort(c, axis=1) == ref):
            raise ValueError("Cayley table rows are not permutations")
        if not np.all(np.sort(c, axis=0) == ref[:, None]):
            raise ValueError("Cayley table columns are not permutations")
        if not (np.array_equal(c[0], ref) and np.array_equal(c[:, 0], ref)):
            raise ValueError("element 0 is not the identity")
        # Light's test: (x s) y = x (s y) for all x, y and every s of a set S
        # that generates the table as a magma implies associativity
        if not all(np.array_equal(c[c[:, s]], c[:, c[s]]) for s in _magma_generators(c)):
            raise ValueError("Cayley table is not associative")

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def elements(self) -> range:
        return range(self.order)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "cayley": [int(v) for v in self.cayley.reshape(-1)],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteGroup":
        n, flat, labels = data.get("order"), data.get("cayley"), data.get("labels")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"group order must be a positive integer, got {n!r}")
        if not isinstance(flat, list) or len(flat) != n * n or any(
                isinstance(v, bool) or not isinstance(v, int) for v in flat):
            raise ValueError(f"Cayley table must be a list of {n * n} integers")
        if labels is not None and not (isinstance(labels, list)
                                       and all(isinstance(x, str) for x in labels)):
            raise ValueError("group labels must be a list of strings")
        return cls(np.asarray(flat, dtype=np.int64).reshape(n, n), labels=labels)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _magma_generators(c: np.ndarray) -> list[int]:
    """A set S whose left-normed products (..((s1 s2) s3)..), with the
    identity 0, cover the table: the first element not yet covered is added
    to S until none is left.

    The identity passes Light's test by itself, so it starts covered; the
    covered set grows by right multiplication by S until it is closed.
    """
    gens: list[int] = []
    covered = np.zeros(c.shape[0], dtype=bool)
    covered[0] = True
    while not covered.all():
        gens.append(int(np.argmin(covered)))
        _close_right(c, gens, covered)
    return gens


def _close_right(c: np.ndarray, gens: Sequence[int], covered: np.ndarray) -> None:
    """Mark in `covered` the gens and every product of a covered element with
    gens on the right, until the marked set is closed under them."""
    gens = np.asarray(gens, dtype=np.intp)
    covered[gens] = True
    frontier = np.flatnonzero(covered)
    while frontier.size:
        reached = np.zeros_like(covered)
        reached[c[np.ix_(frontier, gens)]] = True
        frontier = np.flatnonzero(reached & ~covered)
        covered[frontier] = True


def group_from_permutations(generators: Iterable, names: Optional[Sequence[str]] = None,
                            size_cap: int = DEFAULT_SIZE_CAP) -> FiniteGroup:
    """Close a set of permutations under composition into a Cayley-table group.

    Element 0 is the identity.  With `names` given, labels are shortest
    generator words ('1', 'g', 'g^2', 'st', ...); otherwise cycle forms.
    """
    gens = []
    for g in generators:
        gens.append(parse_cycles(g, limit=size_cap) if isinstance(g, str) else tuple(g))
    degree = max(len(g) for g in gens)
    gens = [tuple(g) + tuple(range(len(g), degree)) for g in gens]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation: {g}")
    if names is not None and len(names) != len(gens):
        raise ValueError("need one name per generator")

    ident = identity_perm(degree)
    elems = {ident: 0}
    order_list = [ident]
    words: list[tuple[str, ...]] = [()]
    queue = [ident]
    while queue:
        nxt = []
        for p in queue:
            w = words[elems[p]]
            for k, g in enumerate(gens):
                q = compose(p, g)
                if q not in elems:
                    if len(elems) >= size_cap:
                        raise SizeLimitError(
                            f"closure exceeded the size cap of {size_cap}")
                    elems[q] = len(order_list)
                    order_list.append(q)
                    words.append(w + (names[k] if names else f"#{k}",))
                    nxt.append(q)
        queue = nxt

    # row i of the table is p_i composed with every element, P[i][P], looked
    # up among the sorted elements: memory O(n * degree) per row
    n = len(order_list)
    P = np.array(order_list, dtype=np.intp)
    keys = _row_keys(P)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    cayley = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        cayley[i] = order[np.searchsorted(sorted_keys, _row_keys(P[i][P]))]
    if names is not None:
        labels = [_collapse_word(w) for w in words]
    else:
        labels = [cycle_string(p) if p != ident else "1" for p in order_list]
    return FiniteGroup(cayley, labels=labels, perms=order_list)


def _row_keys(P: np.ndarray) -> np.ndarray:
    """One sortable key per row of P: its bytes, as a void scalar."""
    P = np.ascontiguousarray(P)
    return P.view(np.dtype((np.void, P.itemsize * P.shape[1]))).ravel()


# ---------------------------------------------------------------------------
# subgroups

@dataclass(frozen=True)
class Subgroup:
    """Subset of a parent group, stored as a sorted tuple of element indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", members)
        if 0 not in members:
            raise ValueError("subgroup must contain the identity")
        # a finite subset closed under multiplication is closed under inverses
        if not np.isin(self.parent.cayley[np.ix_(members, members)], members).all():
            raise ValueError("subgroup not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)


def closure_members(parent: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Sorted members of the subgroup generated by `gens`: in a finite group
    the products of generators, with the identity, already form it."""
    covered = np.zeros(parent.order, dtype=bool)
    covered[0] = True
    _close_right(parent.cayley, [int(g) for g in gens], covered)
    return tuple(np.flatnonzero(covered).tolist())


def subgroup_closure(parent: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup(parent, closure_members(parent, gens))


def subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    """Standalone group on the subgroup's members, labels inherited."""
    members = sub.members
    cayley = np.searchsorted(members, sub.parent.cayley[np.ix_(members, members)])
    labels = [sub.parent.labels[m] for m in members]
    perms = None
    if sub.parent.perms is not None:
        perms = [sub.parent.perms[m] for m in members]
    return FiniteGroup(cayley, labels=labels, perms=perms)


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closing cyclic subgroups under pairwise joins."""
    found: set[tuple[int, ...]] = {(0,)}
    for a in group.elements():
        found.add(closure_members(group, [a]))
    grown = True
    while grown:
        grown = False
        current = sorted(found)
        for ma, mb in itertools.combinations(current, 2):
            join = closure_members(group, set(ma) | set(mb))
            if join not in found:
                found.add(join)
                grown = True
    return [Subgroup(group, m) for m in sorted(found, key=lambda m: (len(m), m))]


# ---------------------------------------------------------------------------
# exact factorizations and matched pairs

def is_exact_factorization(sigma: FiniteGroup, f: Subgroup, g: Subgroup) -> bool:
    """True iff every element of sigma is uniquely a product g*x, g in G, x in F."""
    if f.parent is not sigma or g.parent is not sigma:
        raise PreconditionError("subgroups must live in the ambient group")
    products = sigma.cayley[np.ix_(g.members, f.members)]
    hit = np.zeros(sigma.order, dtype=bool)
    hit[products] = True
    return products.size == sigma.order and bool(hit.all())


@dataclass
class MatchedPair:
    """Exact factorization data with the two derived action tables.

    ract[g, x] is the index of g <| x in `g_group`; lact[g, x] the index of
    g |> x in `f_group`.  `sigma` may be None for hand-built pairs.
    """

    f_group: FiniteGroup
    g_group: FiniteGroup
    ract: np.ndarray
    lact: np.ndarray
    sigma: Optional[FiniteGroup] = None
    f_sub: Optional[Subgroup] = None
    g_sub: Optional[Subgroup] = None

    def ract_label(self, g_label: str, x_label: str) -> str:
        g = self.g_group.label_index(g_label)
        x = self.f_group.label_index(x_label)
        return self.g_group.labels[int(self.ract[g, x])]

    def lact_label(self, g_label: str, x_label: str) -> str:
        g = self.g_group.label_index(g_label)
        x = self.f_group.label_index(x_label)
        return self.f_group.labels[int(self.lact[g, x])]


def derive_actions(sigma: FiniteGroup, f: Subgroup, g: Subgroup) -> MatchedPair:
    """Factor each product g*x as f'*g' and tabulate g |> x = f', g <| x = g'."""
    if not is_exact_factorization(sigma, f, g):
        raise FactorizationError("not an exact factorization")
    # sigma = G F exactly, so sigma = F G exactly (take inverses): each element
    # is f_i g_j for one (i, j), at i * |G| + j of the flat F-by-G table, and
    # the position of g x = (g |> x)(g <| x) there gives both actions
    fg = sigma.cayley[np.ix_(f.members, g.members)].ravel()
    position = np.empty(sigma.order, dtype=np.int64)
    position[fg] = np.arange(fg.size)
    lact, ract = np.divmod(position[sigma.cayley[np.ix_(g.members, f.members)]], g.order)
    return MatchedPair(f_group=subgroup_as_group(f), g_group=subgroup_as_group(g),
                       ract=ract, lact=lact,
                       sigma=sigma, f_sub=f, g_sub=g)


@dataclass
class MatchedPairReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def verify_matched_pair(mp: MatchedPair) -> MatchedPairReport:
    """Check unit laws, both compatibility conditions, and reconstruction.

    Each law is one comparison of whole tables; a violation names the law
    and its first failing cell.
    """
    F, G = mp.f_group, mp.g_group
    fc, gc, fl, gl = F.cayley, G.cayley, F.labels, G.labels
    ract, lact = np.asarray(mp.ract), np.asarray(mp.lact)
    laws = [
        (lact[0], np.arange(F.order), lambda x: f"unit law 1 |> {fl[x]} failed"),
        (ract[0], 0, lambda x: f"unit law 1 <| {fl[x]} failed"),
        (lact[:, 0], 0, lambda g: f"unit law {gl[g]} |> 1 failed"),
        (ract[:, 0], np.arange(G.order), lambda g: f"unit law {gl[g]} <| 1 failed"),
        # s |> xy = (s |> x)((s <| x) |> y), cell [s, x, y]
        (lact[:, fc], fc[lact[:, :, None], lact[ract]],
         lambda s, x, y: f"|> over product failed at ({gl[s]}, {fl[x]}, {fl[y]})"),
        # st <| x = (s <| (t |> x))(t <| x), cell [s, t, x]
        (ract[gc], gc[ract[:, lact], ract],
         lambda s, t, x: f"<| over product failed at ({gl[s]}, {gl[t]}, {fl[x]})"),
    ]
    if mp.sigma is not None and mp.f_sub is not None and mp.g_sub is not None:
        fm, gm = np.asarray(mp.f_sub.members), np.asarray(mp.g_sub.members)
        # g x = (g |> x)(g <| x) in sigma, cell [g, x]
        laws.append((mp.sigma.cayley[np.ix_(gm, fm)], mp.sigma.cayley[fm[lact], gm[ract]],
                     lambda g, x: f"reconstruction failed at ({gl[g]}, {fl[x]})"))
    bad = []
    for lhs, rhs, describe in laws:
        cells = np.argwhere(lhs != rhs)
        if cells.size:
            bad.append(describe(*cells[0]))
    return MatchedPairReport(ok=not bad, violations=bad)


def orbit_and_stabilizer(mp: MatchedPair, g: int) -> tuple[tuple[int, ...], Subgroup]:
    """Orbit of g under <| and its stabilizer subgroup of F."""
    F, G = mp.f_group, mp.g_group
    ract = np.asarray(mp.ract)
    if not np.array_equal(ract[:, 0], np.arange(G.order)):
        raise PreconditionError("<| is not a right action (unit law fails)")
    # a <| (xy) = (a <| x) <| y for every a, x, y, as one (|G|, |F|, |F|) comparison
    if not np.array_equal(ract[:, F.cayley], ract[ract]):
        raise PreconditionError("<| is not a right action")
    orbit = tuple(np.flatnonzero(np.bincount(ract[g], minlength=G.order)).tolist())
    return orbit, Subgroup(F, np.flatnonzero(ract[g] == g).tolist())


def is_invariant_subgroup_under_lact(mp: MatchedPair, h: Subgroup) -> bool:
    """True iff g |> h lands in H for every g in G and h in H."""
    if h.parent is not mp.f_group:
        raise PreconditionError("H must be a subgroup of the F side")
    return bool(np.isin(mp.lact[:, h.members], h.members).all())
