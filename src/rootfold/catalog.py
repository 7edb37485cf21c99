"""Named root data, actions, and isogenies with the conventions fixed once.

Every group is the closure of its simple roots and coroots under its own
reflections (``generate_datum``).  Classical groups give them in Euclidean
coordinates (characters of the diagonal torus); exceptional groups and
simply connected and adjoint forms read them off Cartan matrices with
Bourbaki node numbering.  Exceptional types above rank six are deliberately
absent.

Three presets carry fixed torus twists: the inner twist of the split
involution of adjoint E6 whose fold is C4 rather than F4, the inner twist of
the cyclic triality on D4 whose fold is A2 rather than G2, and the twisted
full graph symmetry of D4 whose fold drops short restricted roots and so
breaks the short-root inclusion that cyclic stabilizers would guarantee.
"""

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .duality_conorm import Isogeny
from .exact_lattice import LatticeMap, TorsionVector, vadd
from .gamma_action import FiniteGroup, GammaAction
from .root_datum import BasedRootDatum, RootDatum, generate_datum

_HALF = Fraction(1, 2)


def _cartan_a(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def _cartan_b(n):
    c = _cartan_a(n)
    c[n - 2][n - 1] = -2
    return c


def _cartan_c(n):
    c = _cartan_a(n)
    c[n - 1][n - 2] = -2
    return c


def _cartan_d(n):
    c = _cartan_a(n)
    c[n - 2][n - 1] = c[n - 1][n - 2] = 0
    c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


_CARTAN_G2 = [[2, -1], [-3, 2]]
_CARTAN_F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
# Bourbaki E6: chain 1-3-4-5-6 with node 2 attached to 4
_CARTAN_E6 = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]


def _cartan_for(family, rank):
    if family == "A":
        return _cartan_a(rank)
    if family == "B":
        return _cartan_b(rank)
    if family == "C":
        return _cartan_c(rank)
    if family == "D":
        return _cartan_d(rank)
    if family == "G" and rank == 2:
        return _CARTAN_G2
    if family == "F" and rank == 4:
        return _CARTAN_F4
    if family == "E" and rank == 6:
        return _CARTAN_E6
    if family == "E" and rank in (7, 8):
        raise ValueError(f"E{rank} is outside the catalog")
    raise ValueError(f"no Cartan matrix for type {family}{rank}")


@lru_cache(maxsize=None)
def simply_connected(family, rank) -> BasedRootDatum:
    """Weight-coordinate datum: simple root j is Cartan row j, coroot j is e_j."""
    c = _cartan_for(family, rank)
    roots = [tuple(c[j]) for j in range(rank)]
    coroots = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    return generate_datum(rank, roots, coroots)


@lru_cache(maxsize=None)
def adjoint(family, rank) -> BasedRootDatum:
    """Root-coordinate datum: simple root j is e_j, coroot j is Cartan column j."""
    c = _cartan_for(family, rank)
    roots = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    coroots = [tuple(c[i][j] for i in range(rank)) for j in range(rank)]
    return generate_datum(rank, roots, coroots)


def _e(n, i, s=1):
    v = [0] * n
    v[i] = s
    return tuple(v)


def _chain(n):
    """The simple roots e_i - e_(i+1) of type A in Z^n; each is its own coroot."""
    return [vadd(_e(n, i), _e(n, i + 1, -1)) for i in range(n - 1)]


@lru_cache(maxsize=None)
def gl(n) -> BasedRootDatum:
    chain = _chain(n)
    return generate_datum(n, chain, chain)


def sl(n) -> BasedRootDatum:
    return simply_connected("A", n - 1)


def pgl(n) -> BasedRootDatum:
    return adjoint("A", n - 1)


@lru_cache(maxsize=None)
def sp(n) -> BasedRootDatum:
    """Sp(2n) on its diagonal torus: long simple root 2e_n, short e_i - e_(i+1)."""
    chain = _chain(n)
    return generate_datum(n, chain + [_e(n, n - 1, 2)], chain + [_e(n, n - 1)])


@lru_cache(maxsize=None)
def so(n) -> BasedRootDatum:
    """Split special orthogonal group on Z^m, m = floor(n/2)."""
    m = n // 2
    chain = _chain(m)
    if n % 2:
        return generate_datum(m, chain + [_e(m, m - 1)], chain + [_e(m, m - 1, 2)])
    last = vadd(_e(m, m - 2), _e(m, m - 1))
    return generate_datum(m, chain + [last], chain + [last])


def spin(n) -> BasedRootDatum:
    """Simply connected cover of so(n), small ranks only."""
    if not 5 <= n <= 12:
        bound = "starts at spin5" if n < 5 else "ends at spin12"
        raise ValueError(f"group 'spin{n}': the catalog {bound}")
    return simply_connected("B" if n % 2 else "D", n // 2)


def e6_adjoint() -> BasedRootDatum:
    return adjoint("E", 6)


def e6_simply_connected() -> BasedRootDatum:
    return simply_connected("E", 6)


def f4() -> BasedRootDatum:
    return adjoint("F", 4)


def g2() -> BasedRootDatum:
    return adjoint("G", 2)


def d4() -> BasedRootDatum:
    return simply_connected("D", 4)


def torus(n) -> BasedRootDatum:
    return BasedRootDatum(RootDatum(n, [], []), ())


def direct_sum(b1: BasedRootDatum, b2: BasedRootDatum) -> BasedRootDatum:
    d1, d2 = b1.datum, b2.datum
    n1, n2 = d1.rank, d2.rank
    roots = [r + (0,) * n2 for r in d1.roots] + [(0,) * n1 + r for r in d2.roots]
    coroots = [r + (0,) * n2 for r in d1.coroots] + [(0,) * n1 + r for r in d2.coroots]
    rd = RootDatum(n1 + n2, roots, coroots)
    simples = ([rd.root_index(d1.roots[i] + (0,) * n2) for i in b1.simple_indices]
               + [rd.root_index((0,) * n1 + d2.roots[i]) for i in b2.simple_indices])
    return BasedRootDatum(rd, tuple(simples))


def _signed_flip(m) -> LatticeMap:
    rows = [[0] * m for _ in range(m)]
    for c in range(m):
        rows[m - 1 - c][c] = -1
    return LatticeMap(rows, m)


def _perm_matrix(perm) -> LatticeMap:
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        rows[p][i] = 1
    return LatticeMap(rows, n)


def trivial_action(base: BasedRootDatum, m: int = 1) -> GammaAction:
    g = FiniteGroup.cyclic(m)
    return GammaAction(g, base, [LatticeMap.identity(base.datum.rank)] * g.size)


def pinned_gl_action(n) -> GammaAction:
    """Transpose-inverse composed with the longest permutation, pinned."""
    return GammaAction(FiniteGroup.cyclic(2), gl(n),
                       [LatticeMap.identity(n), _signed_flip(n)])


def so_twist_gl_action(n) -> GammaAction:
    """The pinned flip of GL(2k) twisted into the orthogonal form."""
    if n % 2 != 0:
        raise ValueError("the orthogonal twist needs an even general linear group")
    tw = [_HALF] * (n // 2) + [0] * (n // 2)
    return GammaAction(FiniteGroup.cyclic(2), gl(n),
                       [LatticeMap.identity(n), _signed_flip(n)],
                       [(0,) * n, tw])


def _pinned_reversal_action(base: BasedRootDatum) -> GammaAction:
    """The pinned flip of A_r, on a base whose coordinates follow the nodes of its chain."""
    r = base.datum.rank
    return GammaAction(FiniteGroup.cyclic(2), base,
                       [LatticeMap.identity(r), _perm_matrix(range(r - 1, -1, -1))])


def pinned_sl_action(n) -> GammaAction:
    return _pinned_reversal_action(sl(n))


def pinned_pgl_action(n) -> GammaAction:
    return _pinned_reversal_action(pgl(n))


def pinned_so_even_action(n) -> GammaAction:
    """The graph involution of D_m realized as one sign flip of coordinates."""
    m = n // 2
    if n % 2 != 0 or m < 3:
        raise ValueError("need an even orthogonal group of rank at least three")
    rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    rows[m - 1][m - 1] = -1
    return GammaAction(FiniteGroup.cyclic(2), so(n),
                       [LatticeMap.identity(m), LatticeMap(rows)])


_E6_INVOLUTION = (5, 1, 4, 3, 2, 0)


def pinned_e6_action(form: str) -> GammaAction:
    """The E6 diagram involution on the ``"adjoint"`` or the ``"sc"`` (simply connected) datum."""
    if form not in ("adjoint", "sc"):
        raise ValueError(f"E6 form {form!r} is neither 'adjoint' nor 'sc'")
    base = e6_adjoint() if form == "adjoint" else e6_simply_connected()
    return GammaAction(FiniteGroup.cyclic(2), base,
                       [LatticeMap.identity(6), _perm_matrix(_E6_INVOLUTION)])


_S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
_D4_OUTER = (0, 2, 3)  # nodes 1, 3, 4 in coordinate positions; node 2 is position 1


def _d4_matrix(outer_perm) -> LatticeMap:
    perm = [0, 1, 2, 3]
    for k, pos in enumerate(_D4_OUTER):
        perm[pos] = _D4_OUTER[outer_perm[k]]
    return _perm_matrix(perm)


def d4_action(outer_perms) -> GammaAction:
    g = FiniteGroup.from_permutations(list(outer_perms))
    return GammaAction(g, d4(), [_d4_matrix(p) for p in outer_perms])


def triality_action() -> GammaAction:
    return d4_action(_S3_PERMS[:3])


def full_s3_action() -> GammaAction:
    return d4_action(_S3_PERMS)


def inner_block_gl4_action() -> GammaAction:
    """Inner twist of GL(4) by diag(-1,-1,1,1); the fold is the block Levi."""
    return GammaAction(FiniteGroup.cyclic(2), gl(4),
                       [LatticeMap.identity(4)] * 2,
                       [(0, 0, 0, 0), (_HALF, _HALF, 0, 0)])


def z4_composite_action() -> GammaAction:
    """Order four on GL(2) x GL(2): the generator maps (x, y) to (flip(y), x)."""
    base = direct_sum(gl(2), gl(2))
    g = LatticeMap([[0, 0, 1, 0], [0, 0, 0, 1], [0, -1, 0, 0], [-1, 0, 0, 0]])
    return GammaAction(FiniteGroup.cyclic(4), base,
                       [LatticeMap.identity(4), g, g @ g, g @ g @ g])


def rotation_action(base_half: BasedRootDatum, m: int) -> GammaAction:
    """Cyclic rotation of the factors of H^m."""
    n = base_half.datum.rank
    prod = base_half
    for _ in range(m - 1):
        prod = direct_sum(prod, base_half)
    mats = [_perm_matrix([(i + k * n) % (m * n) for i in range(m * n)]) for k in range(m)]
    return GammaAction(FiniteGroup.cyclic(m), prod, mats)


def twisted_e6_c4_action() -> GammaAction:
    """Inner twist of the pinned E6 involution folding to C4 instead of F4.

    The two-torsion twist at node 4 keeps eight of the involution-fixed
    roots, and the fold is the adjoint C4.
    """
    a = pinned_e6_action("adjoint")
    return GammaAction(a.group, a.base, a.diagram,
                       [(0,) * 6, (0, 0, 0, _HALF, 0, 0)])


def twisted_triality_a2_action() -> GammaAction:
    """Inner twist of the cyclic triality whose fold is A2, not G2.

    The twist kills every triality-fixed root; the six orbit restrictions
    survive and form the short hexagon.
    """
    a = triality_action()
    t = TorsionVector((0, 1, 0, 0), 3)
    return GammaAction(a.group, a.base, a.diagram,
                       [TorsionVector.zero(4), t, t + t.apply(a.coaction(1))])


def s3_twisted_d4_action() -> GammaAction:
    """Twisted full graph symmetry of D4 that drops short restricted roots.

    With a non-cyclic stabilizer the short roots of the pinned fold need not
    all survive.  The cocycle constraints tie each orbit of short roots to a
    fixed long root, so the two-torsion twists on the three reflections
    remove matched long-short pairs and the fold lands strictly inside G2;
    the short-inclusion report then carries a concrete missing root.
    """
    a = full_s3_action()
    z = (0,) * 4
    return GammaAction(a.group, a.base, a.diagram,
                       [z, z, z, (0, 0, 0, _HALF), (0, 0, 0, _HALF), (_HALF, 0, 0, 0)])


def isogeny_sl_to_pgl(n) -> Isogeny:
    """Characters of PGL(n) are the root lattice inside the weights of SL(n)."""
    c = _cartan_a(n - 1)
    m = LatticeMap([[c[i][j] for j in range(n - 1)] for i in range(n - 1)])
    return Isogeny(sl(n), pgl(n), m)


def isogeny_sl_gl1_to_gl(n) -> Isogeny:
    src = direct_sum(sl(n), torus(1))
    cols = []
    for i in range(n):
        w = [0] * (n - 1)
        if i < n - 1:
            w[i] += 1
        if i > 0:
            w[i - 1] -= 1
        cols.append(tuple(w) + (1,))
    return Isogeny(src, gl(n), LatticeMap.from_columns(cols, n))


def sl_gl1_flip_action(n) -> GammaAction:
    """Transpose-inverse on SL(n) x GL(1), compatible with the GL(n) flip."""
    base = direct_sum(sl(n), torus(1))
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[n - 2 - i][i] = 1
    rows[n - 1][n - 1] = -1
    return GammaAction(FiniteGroup.cyclic(2), base,
                       [LatticeMap.identity(n), LatticeMap(rows)])


# a record, not the bare action, because perfbench/worker.py and README read preset(name).action
class Preset(NamedTuple):
    name: str
    action: GammaAction


_FIXED_PRESETS = {
    "e6ad-pinned": lambda: pinned_e6_action("adjoint"),
    "e6sc-pinned": lambda: pinned_e6_action("sc"),
    "e6ad-twisted-c4": twisted_e6_c4_action,
    "d4-triality": triality_action,
    "d4-full-s3": full_s3_action,
    "d4-twisted-a2": twisted_triality_a2_action,
    "d4-s3-twisted": s3_twisted_d4_action,
    "gl4-inner-block": inner_block_gl4_action,
    "gl2gl2-z4": z4_composite_action,
}


# every number in a catalog name: ASCII digits with no leading zero, so each
# name has one spelling; a numbered name's pattern writes each number as <n>
_NUMBER = re.compile("0|[1-9][0-9]*")


def _pattern(name):
    """The pattern of ``name`` and its numbers: gl2-trivial-z3 gives gl<n>-trivial-z<n>, [2, 3]."""
    return _NUMBER.sub("<n>", name), [int(x) for x in _NUMBER.findall(name)]


_NAMED_GROUPS = {
    "e6ad": e6_adjoint, "e6sc": e6_simply_connected,
    "f4": f4, "g2": g2, "d4": d4,
}

# pattern of a numbered group -> builder and least number
_GROUP_FAMILIES = {
    "gl<n>": (gl, 0), "sl<n>": (sl, 1), "pgl<n>": (pgl, 1), "sp<n>": (lambda n: sp(n // 2), 2),
    "so<n>": (so, 3), "spin<n>": (spin, 5), "torus<n>": (torus, 0),
}


def group_datum(name: str) -> BasedRootDatum:
    """A based root datum by short name: gl4, sl3, sp6, so7, spin8, e6ad, ..."""
    if name in _NAMED_GROUPS:
        return _NAMED_GROUPS[name]()
    pattern, numbers = _pattern(name)
    if pattern not in _GROUP_FAMILIES:
        raise ValueError(f"unknown group {name!r}")
    (builder, least), (n,) = _GROUP_FAMILIES[pattern], numbers
    if n < least:
        raise ValueError(f"group {name!r}: the catalog starts at "
                         f"{pattern.replace('<n>', str(least))}")
    if pattern == "sp<n>" and n % 2:
        raise ValueError(f"group {name!r}: symplectic groups have even matrix size")
    return builder(n)


# pattern of a numbered preset -> the action of its numbers
_NUMBERED_PRESETS = {
    "gl<n>-pinned": pinned_gl_action,
    "gl<n>-so-twist": so_twist_gl_action,
    "sl<n>-pinned": pinned_sl_action,
    "pgl<n>-pinned": pinned_pgl_action,
    "so<n>-pinned": pinned_so_even_action,
    "gl<n>-trivial-z<n>": lambda n, m: trivial_action(gl(n), m),
    "gl<n>-product-swap": lambda n: rotation_action(gl(n), 2),
}


@lru_cache(maxsize=None)
def preset(name: str) -> Preset:
    """A named action: a fixed one, or a numbered one whose pattern ``_NUMBERED_PRESETS`` maps.

    Each name is built once per process; callers must not mutate the action.
    A builder's ``ValueError`` is raised again with the name before its reason.
    """
    if name in _FIXED_PRESETS:
        return Preset(name, _FIXED_PRESETS[name]())
    pattern, numbers = _pattern(name)
    if pattern not in _NUMBERED_PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    try:
        action = _NUMBERED_PRESETS[pattern](*numbers)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad preset {name!r}: {exc}") from exc
    return Preset(name, action)


GOLDEN_FOLDS = {
    "gl4-pinned": (("C", 2),),
    "gl6-pinned": (("C", 3),),
    "gl8-pinned": (("C", 4),),
    "gl4-so-twist": (("A", 1), ("A", 1)),
    "gl6-so-twist": (("D", 3),),
    "sl3-pinned": (("B", 1),),
    "sl5-pinned": (("B", 2),),
    "sl7-pinned": (("B", 3),),
    "e6ad-pinned": (("F", 4),),
    "e6ad-twisted-c4": (("C", 4),),
    "d4-triality": (("G", 2),),
    "d4-full-s3": (("G", 2),),
    "d4-twisted-a2": (("A", 2),),
}
