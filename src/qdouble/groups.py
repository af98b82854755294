"""Finite groups as Cayley tables, conjugacy classes and class contexts.

A group is generated from permutations; elements are discovered by
breadth-first search from the identity with the generator order fixed, so
element indices are reproducible across runs.  Every group and subgroup
has a greedy generating set, and conditions closed under products (the
group axioms, homomorphisms, cocycle identities) are checked on it.

A ``ClassContext`` packages one conjugacy class C with a base point r, the
centralizer C_G, a section q_c (with q_c r q_c^-1 = c and q_r = e) and the
full twisted-cocycle table zeta_c(g) = q^-1_{g c g^-1} g q_c, which takes
values in C_G.
``orbit_representatives`` walks a stabiliser chain for one tuple per orbit
of a permutation group on range(n)**arity.
"""

from __future__ import annotations

from functools import cached_property


class ConfigError(ValueError):
    """Scenario data the engine cannot use: a bad input, not an engine fault."""


def _compose(p, q):
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _identity_perm(n):
    return tuple(range(n))


def orbit_representatives(n: int, arity: int, perms):
    """The least tuple of each orbit of range(n)**arity, in lexicographic
    order, under the group whose elements permute range(n) as ``perms``
    (empty for the trivial group) on every factor: the least point x of each
    orbit on the first factor, then the stabiliser of x on the rest."""
    if arity == 0:
        yield ()
        return
    seen = set()
    for x in range(n):
        if x not in seen:
            seen.update(p[x] for p in perms)
            for rest in orbit_representatives(n, arity - 1, [p for p in perms if p[x] == x]):
                yield (x, *rest)


def parse_cycles(cycles: list[list[int]], degree: int | None = None) -> tuple[int, ...]:
    """Permutation from 1-based disjoint cycles, e.g. [[1,2],[3,4]]."""
    top = max((max(c) for c in cycles if c), default=0)
    n = degree if degree is not None else top
    if top > n:
        raise ValueError("cycle entry exceeds the permutation degree")
    img = list(range(n))
    for cycle in cycles:
        for i, a in enumerate(cycle):
            img[a - 1] = cycle[(i + 1) % len(cycle)] - 1
    return tuple(img)


class FiniteGroup:
    """Cayley-table group with deterministic element order."""

    def __init__(self, table, labels=None, perms=None):
        self.n = len(table)
        self.table = [list(row) for row in table]
        self.labels = list(labels) if labels else [f"g{i}" for i in range(self.n)]
        self._by_label = {}
        for i, lab in enumerate(self.labels):
            if self._by_label.setdefault(lab, i) != i:
                raise ValueError(f"label {lab!r} names two elements")
        self.perms = list(perms) if perms else None
        self.inv = [0] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.table[i][j] == 0:
                    self.inv[i] = j
                    break
        self._check_axioms()
        self._classes = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, generators, labels=None, degree=None, relabel=None):
        """Close a set of permutations under composition (BFS order).

        generators may be permutation tuples (0-based images) or cycle
        lists (1-based).  labels, if given, name the generators, one each;
        the default names are a, b, c, d, f, ..., skipping the identity's e.
        Words in them name the remaining elements, and relabel renames words;
        no two elements may share a name.
        """
        if not generators:
            raise ConfigError("at least one generator is required")
        perms = []
        for g in generators:
            if g and isinstance(g[0], (list, tuple)):
                perms.append(parse_cycles(list(g), degree))
            else:
                perms.append(tuple(g))
        deg = max(len(p) for p in perms)
        perms = [p + tuple(range(len(p), deg)) for p in perms]
        for p in perms:
            if sorted(p) != list(range(deg)):
                raise ValueError(f"not a permutation of 0..{deg - 1}: {p}")
        if labels is None:
            labels = [chr(ord("a") + i + (i >= 4)) for i in range(len(perms))]
        elif len(labels) != len(perms):
            raise ValueError(f"{len(labels)} labels for {len(perms)} generators")
        e = _identity_perm(deg)
        order = [e]
        names = {e: "e"}
        queue = [e]
        while queue:
            current = queue.pop(0)
            for p, nm in zip(perms, labels):
                nxt = _compose(current, p)
                if nxt not in names:
                    names[nxt] = nm if current == e else names[current] + nm
                    order.append(nxt)
                    queue.append(nxt)
        index = {p: i for i, p in enumerate(order)}
        table = [[index[_compose(a, b)] for b in order] for a in order]
        labs = [names[p] for p in order]
        if relabel:
            labs = [relabel.get(l, l) for l in labs]
        return cls(table, labels=labs, perms=order)

    @classmethod
    def symmetric(cls, n: int):
        # S_1 has no adjacent transposition; its one element is generated by the identity
        gens = [parse_cycles([[i, i + 1]], n) for i in range(1, n)] or [_identity_perm(n)]
        return cls.from_generators(gens, labels=[f"s{i}" for i in range(1, len(gens) + 1)])

    @classmethod
    def cyclic(cls, n: int):
        return cls.from_generators([parse_cycles([list(range(1, n + 1))], n)], labels=["r"])

    @classmethod
    def s3_with_uvw_labels(cls):
        """S3 on generators u=(12), v=(23), with w=(13)=uvu."""
        return cls.from_generators(
            [parse_cycles([[1, 2]], 3), parse_cycles([[2, 3]], 3)],
            labels=["u", "v"],
            relabel={"uvu": "w"},
        )

    # -- internals ----------------------------------------------------------

    def _check_axioms(self):
        n = self.n
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValueError("malformed multiplication table")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("index 0 is not an identity")
            if self.table[i][self.inv[i]] != 0 or self.table[self.inv[i]][i] != 0:
                raise ValueError("inverse law fails")
        # Light's test: the s with (a s) c = a (s c) for all a, c are closed
        # under products, and every element is a product of generators.
        t = self.table
        for s in self.generators:
            for a in range(n):
                a_s, row_a = t[a][s], t[a]
                for c in range(n):
                    if t[a_s][c] != row_a[t[s][c]]:
                        raise ValueError("multiplication table is not associative")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy generating set in index order: g joins when the earlier
        choices do not generate it.  A condition that is closed under
        products holds on the group once it holds on these."""
        gens, generated = [], {0}
        for g in range(1, self.n):
            if g not in generated:
                gens.append(g)
                generated = set(self.subgroup_generated(gens))
                if len(generated) == self.n:
                    break
        return tuple(gens)

    # -- basic operations -----------------------------------------------------

    def word(self, *elements: int) -> int:
        out = 0
        for x in elements:
            out = self.table[out][x]
        return out

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inv[g]]

    def commutator(self, h: int, g: int) -> int:
        """Group commutator h^-1 g^-1 h g."""
        return self.word(self.inv[h], self.inv[g], h, g)

    def element(self, label: str) -> int:
        return self._by_label[label]

    def order_of(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.table[x][g]
            k += 1
        return k

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugation orbits, each sorted, ordered by minimal element."""
        if self._classes is None:
            seen = [False] * self.n
            classes = []
            for g in range(self.n):
                if seen[g]:
                    continue
                orbit = sorted({self.conj(h, g) for h in range(self.n)})
                for x in orbit:
                    seen[x] = True
                classes.append(orbit)
            self._classes = sorted(classes, key=lambda c: c[0])
        return self._classes

    def class_of(self, g: int) -> list[int]:
        for c in self.conjugacy_classes():
            if g in c:
                return c
        raise ValueError(f"element {g} out of range")

    def per_class(self, values: dict, what: str) -> dict:
        """{class representative: value} of a map keyed by elements or their
        labels; two keys in one conjugacy class are refused, naming both."""
        out, named = {}, {}
        for key, value in values.items():
            rep = self.element(key) if isinstance(key, str) else key
            c0 = self.class_of(rep)[0]
            if c0 in named:
                raise ConfigError(
                    f"{what}: {named[c0]!r} and {self.labels[rep]!r} name one conjugacy class"
                )
            named[c0] = self.labels[rep]
            out[c0] = value
        return out

    def class_function(self, values: dict, what: str) -> dict:
        """{element: value} of a map with one key per conjugacy class, read
        by ``per_class``; a class that no key names is refused, naming it."""
        by_class = self.per_class(values, what)
        classes = self.conjugacy_classes()
        missing = [self.labels[c[0]] for c in classes if c[0] not in by_class]
        if missing:
            raise ValueError(f"{what}: no key names the class of " + ", ".join(map(repr, missing)))
        return {g: by_class[c[0]] for c in classes for g in c}

    def class_inverse(self, cls_: list[int]) -> list[int]:
        return sorted(self.inv[c] for c in cls_)

    def centralizer(self, g: int) -> list[int]:
        return [h for h in range(self.n) if self.table[h][g] == self.table[g][h]]

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(self.table[a][b] == self.table[b][a] for a in gens for b in gens)

    def subgroup_generated(self, gens: list[int]) -> list[int]:
        seen = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return sorted(seen)

    def subgroup_view(self, elements: list[int]) -> "Subgroup":
        return Subgroup(self, elements)

    def __repr__(self):
        return f"FiniteGroup(order={self.n}, labels={self.labels[:6]}{'...' if self.n > 6 else ''})"


class Subgroup(FiniteGroup):
    """A subgroup with its own Cayley table plus the embedding into the parent;
    it keeps the parent's permutation images of its elements."""

    def __init__(self, parent: FiniteGroup, elements: list[int]):
        elements = sorted(set(elements))
        if 0 not in elements:
            raise ValueError("a subgroup must contain the identity (index 0)")
        pos = {g: i for i, g in enumerate(elements)}
        for a in elements:
            for b in elements:
                if parent.table[a][b] not in pos:
                    raise ValueError("subset is not closed under multiplication")
        table = [[pos[parent.table[a][b]] for b in elements] for a in elements]
        self.parent = parent
        self.embedding = elements
        self.position = pos
        perms = [parent.perms[g] for g in elements] if parent.perms else None
        super().__init__(table, labels=[parent.labels[g] for g in elements], perms=perms)


class ClassContext:
    """One conjugacy class with section and cocycle data: the class ``cls``
    of the base point ``rep`` in ``group``, its ``centralizer``, the section
    ``q`` and the cocycle table ``zeta``."""

    def __init__(self, group: FiniteGroup, rep: int, q_override: dict[int, int] | None = None):
        self.group = group
        self.rep = rep
        self.cls = group.class_of(rep)
        self.centralizer = group.subgroup_view(group.centralizer(rep))
        if q_override is not None:
            q = dict(q_override)
            for c in q:
                if c not in self.cls:
                    raise ConfigError(f"q_override: {group.labels[c]!r} is not in the class of {group.labels[rep]!r}")
            for c in self.cls:
                if c not in q:
                    raise ConfigError(f"q_override missing class element {group.labels[c]}")
                if group.conj(q[c], rep) != c:
                    raise ConfigError(
                        f"q_override[{group.labels[c]}] = {group.labels[q[c]]} does not conjugate r to it"
                    )
            if q[rep] != 0:
                raise ConfigError("q at the base point must be the identity")
        else:
            q = {}
            for c in self.cls:
                q[c] = 0 if c == rep else next(
                    g for g in range(group.n) if group.conj(g, rep) == c
                )
        self.q = q
        # zeta[c][g] as parent-group element indices, verified to live in C_G
        zeta = [[0] * group.n for _ in range(group.n)]
        for c in self.cls:
            for g in range(group.n):
                value = group.word(group.inv[q[group.conj(g, c)]], g, q[c])
                if value not in self.centralizer.position:
                    raise RuntimeError("cocycle value escaped the centralizer")
                zeta[c][g] = value
        self.zeta = zeta
        self._verify()

    def _verify(self):
        g_, q = self.group, self.q
        for c in self.cls:
            assert g_.conj(q[c], self.rep) == c
        # zeta_c(g h) = zeta_{h c h^-1}(g) zeta_c(h) for generators h extends
        # to all h by induction on word length
        for c in self.cls:
            for g in range(g_.n):
                for h in g_.generators:
                    lhs = self.zeta[c][g_.table[g][h]]
                    rhs = g_.table[self.zeta[g_.conj(h, c)][g]][self.zeta[c][h]]
                    if lhs != rhs:
                        raise RuntimeError("cocycle identity failed")

    def zeta_in_centralizer(self, c: int, g: int) -> int:
        """zeta_c(g) as an index into the centralizer subgroup."""
        return self.centralizer.position[self.zeta[c][g]]

    def factorize(self, g: int) -> tuple[int, int]:
        """Unique (q_c, n) with g = q_c n, n in C_G; c = g r g^-1."""
        c = self.group.conj(g, self.rep)
        qc = self.q[c]
        n = self.group.table[self.group.inv[qc]][g]
        return qc, n

    def table_report(self) -> dict:
        labels = self.group.labels
        return {
            "class": [labels[c] for c in self.cls],
            "representative": labels[self.rep],
            "centralizer": [labels[g] for g in self.centralizer.embedding],
            "q": {labels[c]: labels[qc] for c, qc in sorted(self.q.items())},
            "zeta": {
                labels[c]: [labels[self.zeta[c][g]] for g in range(self.group.n)]
                for c in self.cls
            },
        }


def class_context(group: FiniteGroup, rep, q_override=None) -> ClassContext:
    """Build the (C, r, C_G, q, zeta) data for the class of rep."""
    if isinstance(rep, str):
        rep = group.element(rep)
    if q_override:
        q_override = {
            (group.element(k) if isinstance(k, str) else k): (
                group.element(v) if isinstance(v, str) else v
            )
            for k, v in q_override.items()
        }
    return ClassContext(group, rep, q_override)
