"""Hand-rolled root data for tests, independent of the package's catalog.

Classical types use coordinate realizations; exceptional types are generated
from Cartan matrices by reflection closure.  Keeping these separate from the
library's own constructions is deliberate: goldens should not test the catalog
against itself.
"""

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
