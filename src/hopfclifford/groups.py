"""Finite groups as explicit Cayley tables, plus exact factorizations.

Permutations are tuples of images on 0-based points and compose as
(p * q)(i) = p(q(i)), i.e. the right factor acts first.  An exact
factorization Sigma = G.F (every element uniquely a product g*x with
g in G, x in F) induces the two actions

    g * x = (g |> x) * (g <| x),     g |> x in F,  g <| x in G,

stored as lookup tables on the standalone groups built from F and G.
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
        if not all(np.array_equal(np.sort(c[i]), ref) for i in range(n)):
            raise ValueError("Cayley table rows are not permutations")
        if not all(np.array_equal(np.sort(c[:, j]), ref) for j in range(n)):
            raise ValueError("Cayley table columns are not permutations")
        if not (np.array_equal(c[0], ref) and np.array_equal(c[:, 0], ref)):
            raise ValueError("element 0 is not the identity")
        if not np.array_equal(c[c, :], c[:, c]):
            raise ValueError("Cayley table is not associative")

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

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

    n = len(order_list)
    cayley = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(order_list):
        for j, q in enumerate(order_list):
            cayley[i, j] = elems[compose(p, q)]
    if names is not None:
        labels = [_collapse_word(w) for w in words]
    else:
        labels = [cycle_string(p) if p != ident else "1" for p in order_list]
    return FiniteGroup(cayley, labels=labels, perms=order_list)


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
        mset = set(members)
        for a in members:
            if int(self.parent.inverse[a]) not in mset:
                raise ValueError("subgroup not closed under inverse")
            for b in members:
                if int(self.parent.cayley[a, b]) not in mset:
                    raise ValueError("subgroup not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in set(self.members)


def closure_members(parent: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    members = {0}
    queue = [0] + [int(g) for g in gens]
    members.update(queue)
    while queue:
        a = queue.pop()
        for b in list(members):
            for c in (parent.mul(a, b), parent.mul(b, a)):
                if c not in members:
                    members.add(c)
                    queue.append(c)
    return tuple(sorted(members))


def subgroup_closure(parent: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup(parent, closure_members(parent, gens))


def subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    """Standalone group on the subgroup's members, labels inherited."""
    idx = {m: i for i, m in enumerate(sub.members)}
    n = len(sub.members)
    cayley = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(sub.members):
        for j, b in enumerate(sub.members):
            cayley[i, j] = idx[sub.parent.mul(a, b)]
    labels = [sub.parent.labels[m] for m in sub.members]
    perms = None
    if sub.parent.perms is not None:
        perms = [sub.parent.perms[m] for m in sub.members]
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
    products = [sigma.mul(a, x) for a in g.members for x in f.members]
    return len(products) == sigma.order and len(set(products)) == sigma.order


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

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma.to_json_dict() if self.sigma is not None else None,
            "f_members": list(self.f_sub.members) if self.f_sub else None,
            "g_members": list(self.g_sub.members) if self.g_sub else None,
            "f_group": self.f_group.to_json_dict(),
            "g_group": self.g_group.to_json_dict(),
            "ract": [[int(v) for v in row] for row in self.ract],
            "lact": [[int(v) for v in row] for row in self.lact],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MatchedPair":
        sigma = f_sub = g_sub = None
        if data.get("sigma") is not None:
            sigma = FiniteGroup.from_json_dict(data["sigma"])
            f_sub = Subgroup(sigma, tuple(data["f_members"]))
            g_sub = Subgroup(sigma, tuple(data["g_members"]))
        return cls(
            f_group=FiniteGroup.from_json_dict(data["f_group"]),
            g_group=FiniteGroup.from_json_dict(data["g_group"]),
            ract=np.asarray(data["ract"], dtype=np.int64),
            lact=np.asarray(data["lact"], dtype=np.int64),
            sigma=sigma, f_sub=f_sub, g_sub=g_sub,
        )


def derive_actions(sigma: FiniteGroup, f: Subgroup, g: Subgroup) -> MatchedPair:
    """Factor each product g*x as f'*g' and tabulate g |> x = f', g <| x = g'."""
    if not is_exact_factorization(sigma, f, g):
        raise FactorizationError("not an exact factorization")
    f_group = subgroup_as_group(f)
    g_group = subgroup_as_group(g)
    g_set = set(g.members)
    ract = np.zeros((g_group.order, f_group.order), dtype=np.int64)
    lact = np.zeros((g_group.order, f_group.order), dtype=np.int64)
    g_pos = {m: i for i, m in enumerate(g.members)}
    f_pos = {m: i for i, m in enumerate(f.members)}
    for gi, a in enumerate(g.members):
        for xi, x in enumerate(f.members):
            p = sigma.mul(a, x)
            hits = [(fp, sigma.mul(sigma.inv(fp), p)) for fp in f.members
                    if sigma.mul(sigma.inv(fp), p) in g_set]
            if len(hits) != 1:
                raise FactorizationError(
                    f"product {sigma.labels[p]} does not factor uniquely as F*G")
            fp, gp = hits[0]
            lact[gi, xi] = f_pos[fp]
            ract[gi, xi] = g_pos[gp]
    return MatchedPair(f_group=f_group, g_group=g_group, ract=ract, lact=lact,
                       sigma=sigma, f_sub=f, g_sub=g)


@dataclass
class MatchedPairReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    checks_run: int = 0


def verify_matched_pair(mp: MatchedPair) -> MatchedPairReport:
    """Check unit laws, both compatibility conditions, and reconstruction."""
    F, G = mp.f_group, mp.g_group
    ract, lact = mp.ract, mp.lact
    bad: list[str] = []
    checks = 0

    for x in F.elements():
        checks += 1
        if lact[0, x] != x:
            bad.append(f"unit law 1 |> {F.labels[x]} failed")
        checks += 1
        if ract[0, x] != 0:
            bad.append(f"unit law 1 <| {F.labels[x]} failed")
    for g in G.elements():
        checks += 1
        if lact[g, 0] != 0:
            bad.append(f"unit law {G.labels[g]} |> 1 failed")
        checks += 1
        if ract[g, 0] != g:
            bad.append(f"unit law {G.labels[g]} <| 1 failed")

    # s |> xy = (s |> x)((s <| x) |> y)
    for s in G.elements():
        for x in F.elements():
            for y in F.elements():
                checks += 1
                lhs = lact[s, F.mul(x, y)]
                rhs = F.mul(lact[s, x], lact[ract[s, x], y])
                if lhs != rhs:
                    bad.append(
                        f"|> over product failed at ({G.labels[s]}, "
                        f"{F.labels[x]}, {F.labels[y]})")

    # st <| x = (s <| (t |> x))(t <| x)
    for s in G.elements():
        for t in G.elements():
            for x in F.elements():
                checks += 1
                lhs = ract[G.mul(s, t), x]
                rhs = G.mul(ract[s, lact[t, x]], ract[t, x])
                if lhs != rhs:
                    bad.append(
                        f"<| over product failed at ({G.labels[s]}, "
                        f"{G.labels[t]}, {F.labels[x]})")

    if mp.sigma is not None and mp.f_sub is not None and mp.g_sub is not None:
        sig = mp.sigma
        for gi, a in enumerate(mp.g_sub.members):
            for xi, x in enumerate(mp.f_sub.members):
                checks += 1
                lhs = sig.mul(a, x)
                rhs = sig.mul(mp.f_sub.members[int(mp.lact[gi, xi])],
                              mp.g_sub.members[int(mp.ract[gi, xi])])
                if lhs != rhs:
                    bad.append(
                        f"reconstruction failed at ({G.labels[gi]}, {F.labels[xi]})")

    return MatchedPairReport(ok=not bad, violations=bad, checks_run=checks)


def orbit_and_stabilizer(mp: MatchedPair, g: int) -> tuple[tuple[int, ...], Subgroup]:
    """Orbit of g under <| and its stabilizer subgroup of F."""
    F, G = mp.f_group, mp.g_group
    ract = mp.ract
    for a in G.elements():
        if ract[a, 0] != a:
            raise PreconditionError("<| is not a right action (unit law fails)")
        for x in F.elements():
            for y in F.elements():
                if ract[a, F.mul(x, y)] != ract[ract[a, x], y]:
                    raise PreconditionError("<| is not a right action")
    orbit = tuple(sorted({int(ract[g, x]) for x in F.elements()}))
    stab = tuple(sorted(x for x in F.elements() if ract[g, x] == g))
    return orbit, Subgroup(F, stab)


def is_invariant_subgroup_under_lact(mp: MatchedPair, h: Subgroup) -> bool:
    """True iff g |> h lands in H for every g in G and h in H."""
    if h.parent is not mp.f_group:
        raise PreconditionError("H must be a subgroup of the F side")
    hset = set(h.members)
    return all(int(mp.lact[g, x]) in hset
               for g in mp.g_group.elements() for x in h.members)
