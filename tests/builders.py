"""Hand-rolled root data for tests, independent of the package's catalog.

Classical types use coordinate realizations; exceptional types are generated
from Cartan matrices by reflection closure.  Keeping these separate from the
library's own constructions is deliberate: goldens should not test the catalog
against itself.

The helpers at the end are tools only tests use: a search for a unimodular
identification of two based data, the spin-to-so isogeny of the catalog's
groups, the canonical JSON text of a CLI job config, the catalog's preset
names, and a comparison of two actions by their twist pairings.
"""

import json
from fractions import Fraction
from itertools import permutations

from oracles import solve_rational

from rootfold import catalog
from rootfold.duality_conorm import Isogeny, validate_isogeny
from rootfold.exact_lattice import LatticeMap, dot
from rootfold.root_datum import BasedRootDatum, RootDatum, generate_datum


def _e(n, i, s=1):
    v = [0] * n
    v[i] = s
    return tuple(v)


def gl(n) -> BasedRootDatum:
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                r = [0] * n
                r[i], r[j] = 1, -1
                roots.append(tuple(r))
    rd = RootDatum(n, roots, roots)
    simples = [rd.root_index(tuple(a - b for a, b in zip(_e(n, i), _e(n, i + 1))))
               for i in range(n - 1)]
    return BasedRootDatum(rd, simples)


def sl2_weight() -> BasedRootDatum:
    rd = RootDatum(1, [(2,), (-2,)], [(1,), (-1,)])
    return BasedRootDatum(rd, (0,))


def sp(n) -> BasedRootDatum:
    """Sp(2n), type C_n: long roots +-2e_i, short +-e_i+-e_j."""
    roots, coroots = [], []
    for i in range(n):
        for s in (1, -1):
            roots.append(_e(n, i, 2 * s))
            coroots.append(_e(n, i, s))
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
                    coroots.append(tuple(v))
    rd = RootDatum(n, roots, coroots)
    simples = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simples.append(rd.root_index(tuple(v)))
    simples.append(rd.root_index(_e(n, n - 1, 2)))
    return BasedRootDatum(rd, simples)


def so_odd(n) -> BasedRootDatum:
    """SO(2n+1), type B_n: short roots +-e_i, long +-e_i+-e_j."""
    roots, coroots = [], []
    for i in range(n):
        for s in (1, -1):
            roots.append(_e(n, i, s))
            coroots.append(_e(n, i, 2 * s))
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
                    coroots.append(tuple(v))
    rd = RootDatum(n, roots, coroots)
    simples = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simples.append(rd.root_index(tuple(v)))
    simples.append(rd.root_index(_e(n, n - 1)))
    return BasedRootDatum(rd, simples)


def so_even(n) -> BasedRootDatum:
    """SO(2n), type D_n: roots +-e_i+-e_j, self-dual coordinates."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
    rd = RootDatum(n, roots, roots)
    simples = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simples.append(rd.root_index(tuple(v)))
    v = [0] * n
    v[n - 2], v[n - 1] = 1, 1
    simples.append(rd.root_index(tuple(v)))
    return BasedRootDatum(rd, simples)


def from_cartan_sc(cartan) -> BasedRootDatum:
    """Weight-lattice convention: simple coroots are the standard basis."""
    n = len(cartan)
    simples = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
    return generate_datum(n, simples, [_e(n, j) for j in range(n)])


def from_cartan_ad(cartan) -> BasedRootDatum:
    """Root-lattice convention: simple roots are the standard basis."""
    n = len(cartan)
    return generate_datum(n, [_e(n, j) for j in range(n)],
                          [tuple(cartan[i]) for i in range(n)])


A2_CARTAN = [[2, -1], [-1, 2]]
A3_CARTAN = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
G2_CARTAN = [[2, -1], [-3, 2]]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
E6_CARTAN = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]


def e_cartan(n):
    """Bourbaki E_n for n = 6, 7, 8: chain 1-3-4-...-n with node 2 on node 4."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in [(0, 2), (1, 3)] + [(k, k + 1) for k in range(2, n - 1)]:
        c[i][j] = c[j][i] = -1
    return c


def an_cartan(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def torus(n):
    return BasedRootDatum(RootDatum(n, [], []), ())


def direct_sum(b1, b2):
    """Block direct sum of two based data."""
    d1, d2 = b1.datum, b2.datum
    n1, n2 = d1.rank, d2.rank
    roots = ([r + (0,) * n2 for r in d1.roots]
             + [(0,) * n1 + r for r in d2.roots])
    coroots = ([r + (0,) * n2 for r in d1.coroots]
               + [(0,) * n1 + r for r in d2.coroots])
    rd = RootDatum(n1 + n2, roots, coroots)
    simples = ([rd.root_index(tuple(d1.roots[i]) + (0,) * n2) for i in b1.simple_indices]
               + [rd.root_index((0,) * n1 + tuple(d2.roots[i])) for i in b2.simple_indices])
    return BasedRootDatum(rd, tuple(simples))


def based_isomorphism(source: BasedRootDatum, target: BasedRootDatum):
    """Unimodular character-lattice map identifying two based data, or None.

    Tries every assignment of target simple roots to source simple roots and
    solves for the matrix sending one simple system to the other; a hit must
    be integral, unimodular, and carry all roots and coroots across.  Used to
    pin down which isogeny form a folded datum is.
    """
    n = target.datum.rank
    if (source.datum.rank != n or len(target.simple_indices) != n
            or len(source.simple_indices) != n):
        return None
    inv = solve_rational(LatticeMap.from_columns(target.simple_roots, n),
                         LatticeMap.identity(n))
    if inv is None:
        return None
    src = source.simple_roots
    for perm in permutations(range(len(src))):
        cols = [src[p] for p in perm]
        rows = [[sum(Fraction(cols[k][i]) * inv[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        if any(x.denominator != 1 for row in rows for x in row):
            continue
        m = LatticeMap([[int(x) for x in row] for row in rows])
        if abs(m.det()) != 1:
            continue
        if validate_isogeny(Isogeny(source, target, m)).ok:
            return m
    return None


def isogeny_spin_to_so(n) -> Isogeny:
    """The isogeny catalog.spin(n) -> catalog.so(n).

    Each coordinate character is paired against the simple coroots of so(n).
    """
    target = catalog.so(n)
    m_rank = n // 2
    cols = [tuple(dot(_e(m_rank, i), cv) for cv in target.simple_coroots)
            for i in range(m_rank)]
    return Isogeny(catalog.spin(n), target, LatticeMap.from_columns(cols, m_rank))


def serialize_config(cfg) -> str:
    """Canonical JSON text of a ``rootfold.cli.JobConfig``: its keys that are not the default."""
    doc = {key: val for key, val in cfg._asdict().items() if val != cfg._field_defaults[key]}
    return json.dumps(doc, sort_keys=True, indent=2)


def preset_names():
    """The fixed preset names, sorted, then the numbered patterns (each number written <n>)."""
    return sorted(catalog._FIXED_PRESETS) + list(catalog._NUMBERED_PRESETS)


def same_action(a, b) -> bool:
    """Same group table, base and diagram parts, and twists that pair alike with every root.

    Twists that differ by a central element compare equal here, though
    ``fold`` keys them apart.
    """
    roots = a.base.datum.roots
    return (a.base == b.base and a.group.table == b.group.table and a.diagram == b.diagram
            and all(s.pairing(r) == t.pairing(r) for s, t in zip(a.twist, b.twist)
                    for r in roots))
