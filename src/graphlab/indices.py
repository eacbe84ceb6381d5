"""Topological indices in exact arithmetic, from one degree profile per exponent shape.

The profile reads only the prime exponents of n: on their lattice vertex 0
(the divisor 1) divides every other vertex, so distinct vertices are at
distance 1 or 2 by construction.  With V vertices, m edges, degrees d_v
summing to S, and F = C(V, 2) - m pairs at distance 2:

* W = m + 2F, WW = m + 3F, H = m + F/2;
* the transmission D_v = 2(V-1) - d_v, so DD = sum d_v * D_v and
  Gut = S**2 - M1 - M2, and Balaban reads D from the edge degree pairs;
* n_u - n_v = d_u - d_v on an edge uv, so Mo = edge sum of |d_u - d_v|;
* r(v) = S - d_v + P/d_v, P the product of all degrees (computed lazily);
  with L the lcm of the distinct degrees and Q = P/L, r(v) = a + Q*u for
  a = S - d_v and u = L/d_v, so R1 and R2 are quadratics in Q with small
  coefficients, and R3 = sum d_v * r(v) = S**2 - M1 + V*P.

Every index is thus a formula over a Profile, a module-level function of
it (wiener(p), ..., mostar(p)), and _DISPATCH is the one registry of them by
name.  Randic and Balaban pass their edge-pair counts (Balaban's as
transmissions) to exact.inv_sqrt_sum.  A divisor graph is fixed up to
isomorphism by the multiset of its prime exponents, so every index is a
function of that shape alone: profile(g) is one lookup in shape_profile, an
lru_cache of the last _MAX_PROFILES shapes, and the Profile keeps each
index's value (Profile.value, read from _DISPATCH) and, once asked for, its
report member (Profile.member, by _member) and its two cells of the CLI's
indices table (Profile.cells, by _cells).  compute_index(g, name) checks the
name and reads profile(g).value(name); compute_indices reads every kept
value from one lookup of the Profile and computes only the others.  Graphs,
listings and labels stay on each graph.  The profile lists no vertex or edge:
lattice_counts counts divisor pairs a | b by (tau(a), tau(n/a), tau(b),
tau(n/b)), which fixes both degrees.  The exponent-1 primes give their states
in closed form, by how many of them lie in a, in b only and in neither; only
the exponents >= 2 are folded one prime at a time.  On Gamma_k that is O(k**2)
states, written down at once, instead of 3**k edges.  The map a -> n/a
reverses divisibility and keeps every degree tau(a) + tau(n/a) - 2, so it
sends the pair a | b to n/b | n/a with the two degrees swapped and the sorted
degree pair unchanged; the last prime's fold therefore visits one state of
each mirror pair, at twice its count.  The enumeration definitions these
identities replace are kept as the oracle in tests/index_definitions.py.
report_text writes a report from one template: the graph descriptor by
DivisorGraph.descriptor_text, then the "indices" object as one join of its
members; table_text writes the CLI's indices table.  Both read the kept
members or cells when the Profile holds every value (Profile.holds), and
write each value by _member or _cells otherwise; no other module reads them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm, prod

from .exact import Value, _quote, format_value, inv_sqrt_sum, normalize, to_decimal, value_text

#: Canonical index names, in report order.
INDEX_NAMES = (
    "wiener",
    "hyper_wiener",
    "harary",
    "zagreb1",
    "zagreb2",
    "degree_distance",
    "gutman",
    "balaban",
    "harmonic",
    "randic",
    "r1",
    "r2",
    "r3",
    "mostar",
)

#: Profile refuses to form a degree product P of more bits, judged by the
#: bound sum c * d.bit_length(): Gamma_16 (692,782 by the bound, P itself
#: 648,869) is kept and Gamma_17 (1,463,972) is refused; P of Gamma_20 has
#: about 1.3e7 bits.
_MAX_PRODUCT_BITS = 2**20

#: shape_profile keeps the Profile, with its values and texts, of this many
#: exponent shapes, the least recently used dropped first.  With all fourteen
#: a shape holds 0.1 MB on Gamma_12, 1.8 MB on Gamma_16 and 11 MB on
#: (5, 3, 3, 2, 2, 1, 1), whose 19,508 degree pairs give megabytes of Randic
#: and Balaban terms.  The table cells add 0.05 MB on Gamma_12, 0.98 MB on
#: Gamma_16 (the digits of R1-R3, kept once for both cells) and 0.97 MB on
#: (5, 3, 3, 2, 2, 1, 1), so at most about 385 MB in all; cli-mix reads 15
#: shapes.
_MAX_PROFILES = 32

#: The newline and indent at which report_text splices each value, in
#: {"indices": {name: value}}; Profile keeps its members indented to sit
#: there.  The "indices" object itself sits at _OBJECT_PAD.
_REPORT_PAD = "\n    "
_OBJECT_PAD = "\n  "


def _member(name: str, v: Value) -> str:
    """The member '"name": ' plus value_text(v) at _REPORT_PAD of an index
    report's "indices" object."""
    text = value_text(v).replace("\n", _REPORT_PAD)
    return f"{_quote(name)}: {text}"


def _cells(v: Value) -> tuple[str, str]:
    """The exact and approx cells of v's row in an indices table,
    format_value(v) and to_decimal(v, 6); both cells of an int are its
    digits, kept once."""
    exact = format_value(v)
    return exact, exact if type(v) is int else to_decimal(v, 6)


def _exponent_pairs(e: int) -> list[tuple[int, int, int, int]]:
    """(a+1, e-a+1, b+1, e-b+1) for every 0 <= a <= b <= e: the factors one
    prime adds to (tau(a), tau(n/a), tau(b), tau(n/b))."""
    return [(a + 1, e - a + 1, b + 1, e - b + 1) for b in range(e + 1) for a in range(b + 1)]


def _squarefree_states(m: int) -> dict[tuple[int, int, int, int], int]:
    """The states of all m exponent-1 primes at once.  A pair a | b with l of
    them in a, j in b only and i = m - l - j in neither has the state
    (2**l, 2**(m-l), 2**(j+l), 2**i), reached C(m, l) * C(m-l, j) times."""
    return {(1 << l, 1 << (m - l), 1 << (j + l), 1 << (m - l - j)): comb(m, l) * comb(m - l, j)
            for l in range(m + 1) for j in range(m - l + 1)}


def lattice_counts(exponents: tuple[int, ...]) -> tuple[Counter, Counter]:
    """Degree counts {d: vertices} and sorted edge-pair counts
    {(deg u, deg v): edges} of the divisor graph of any n with these prime
    exponents, with no vertex or edge listed.

    Pairs of exponent vectors a <= b are counted by the state
    (tau(a), tau(n/a), tau(b), tau(n/b)).  The exponent-1 primes give their
    states in closed form (_squarefree_states); only exponents >= 2 are then
    folded prime by prime.  The last (largest) of them, or the identity step
    (1, 1, 1, 1) when there is none (Gamma_k, any squarefree n), is folded
    straight into the degrees: a divisor has degree tau(a) + tau(n/a) - 2,
    and tau(a) = tau(b) with a | b only when a = b.

    The mirror (a, b) -> (n/b, n/a) maps the state (x, y, z, w) to
    (w, z, y, x), which the earlier primes reach equally often, and the last
    prime's step (p, q, r, s) to (s, r, q, p); a pair and its mirror give the
    same sorted degree key.  So the last stage skips every state whose mirror
    is smaller, folds the others with weight 2c, and folds a self-mirror
    state with weight c over all of its steps.
    """
    *head, last = sorted(e for e in exponents if e > 1) or [0]
    states = _squarefree_states(exponents.count(1))
    for e in head:
        steps = _exponent_pairs(e)
        folded: dict[tuple[int, int, int, int], int] = {}
        for (x, y, z, w), c in states.items():
            for p, q, r, s in steps:
                key = (x * p, y * q, z * r, w * s)
                folded[key] = folded.get(key, 0) + c
        states = folded
    steps = _exponent_pairs(last)
    degree_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    for state, c in states.items():
        x, y, z, w = state
        mirror = (w, z, y, x)
        if mirror < state:
            continue
        if mirror != state:
            c *= 2
        for p, q, r, s in steps:
            ta, tb = x * p, z * r
            du, dv = ta + y * q - 2, tb + w * s - 2
            if ta == tb:
                degree_counts[du] = degree_counts.get(du, 0) + c
            else:
                key = (du, dv) if du < dv else (dv, du)
                pair_counts[key] = pair_counts.get(key, 0) + c
    return degree_counts, pair_counts


class Profile:
    """Order, size, degree counts, (deg u, deg v) edge-pair counts and the
    degree sum and product of one exponent lattice; every index reads only
    these.  Each index's Value, its report member (_member) and its two
    indices-table cells (_cells) are computed on first request and kept
    (value, member, cells); a refused value is not kept.  holds(values) says
    whether values are the kept objects, whose texts a writer may read.  One
    Profile serves every graph of its shape: read it, do not change it."""

    def __init__(self, exponents: tuple[int, ...]):
        self.degree_counts, self.pair_counts = lattice_counts(exponents)
        self.order = sum(self.degree_counts.values())
        self.size = sum(self.pair_counts.values())
        self.far_pairs = comb(self.order, 2) - self.size  # F
        self.degree_sum = sum(d * c for d, c in self.degree_counts.items())
        self.zagreb1 = sum(d * d * c for d, c in self.degree_counts.items())
        self.zagreb2 = sum(a * b * c for (a, b), c in self.pair_counts.items())
        self._values: dict[str, Value] = {}
        self._members: dict[str, str] = {}
        self._cells: dict[str, tuple[str, str]] = {}

    def value(self, name: str) -> Value:
        """The value of the index name on this lattice, computed once; threads
        that both compute it keep and return the first one stored."""
        if name not in self._values:
            self._values.setdefault(name, _DISPATCH[name](self))
        return self._values[name]

    def member(self, name: str) -> str:
        """_member(name, value(name)), written once, as value() is."""
        if name not in self._members:
            self._members.setdefault(name, _member(name, self.value(name)))
        return self._members[name]

    def cells(self, name: str) -> tuple[str, str]:
        """_cells(value(name)), written once, as member() is."""
        if name not in self._cells:
            self._cells.setdefault(name, _cells(self.value(name)))
        return self._cells[name]

    def holds(self, values: dict[str, Value]) -> bool:
        """Whether each of values is the object kept for its name, so that a
        writer may read its kept member or cells; an equal copy is not."""
        kept = self._values
        for name, v in values.items():
            if kept.get(name) is not v:
                return False
        return True

    @cached_property
    def degree_product(self) -> int:
        """P; only the R-indices read it.  Refused before it is formed when its
        bit length, bounded by the sum of c * d.bit_length(), may exceed
        _MAX_PRODUCT_BITS."""
        bits = sum(c * d.bit_length() for d, c in self.degree_counts.items())
        if bits > _MAX_PRODUCT_BITS:
            raise ValueError(f"the R-indices need the degree product P of up to {bits} bits, "
                             f"above the budget of {_MAX_PRODUCT_BITS} bits")
        return prod(d**c for d, c in self.degree_counts.items())

    @cached_property
    def r_quadratic(self) -> tuple[int, int, int]:
        """(L, Q, Q**2) with L the lcm of the distinct degrees and Q = P/L, so
        that r(v) = a + Q*u with a = S - d_v and u = L/d_v: the R-indices are
        quadratics in Q with small coefficients, and Q is squared once.  Not
        defined on a single vertex (degree 0)."""
        L = lcm(*self.degree_counts)
        Q = self.degree_product // L
        return L, Q, Q * Q

    def transmission(self, d: int) -> int:
        """D_v of a vertex of degree d."""
        return 2 * (self.order - 1) - d

    def r(self, d: int) -> int:
        """r(v) = S - d + P/d of a vertex of degree d; d = 0 only on a single
        vertex, where the product of the other degrees is empty."""
        return self.degree_sum - d + (self.degree_product // d if d else 1)


@lru_cache(maxsize=_MAX_PROFILES)
def shape_profile(shape: tuple[int, ...]) -> Profile:
    """The Profile of an exponent shape, given as a sorted tuple ((1,) * k for
    Gamma_k), shared by every caller in the process: the last _MAX_PROFILES
    shapes are kept."""
    return Profile(shape)


def profile(g) -> Profile:
    """shape_profile of g's sorted exponents, so every graph of one shape
    reads one Profile; a graph without exponents is refused."""
    exponents = getattr(g, "exponents", None)
    if exponents is None:
        raise ValueError(f"the index profile needs the prime exponents of a divisor "
                         f"lattice; {type(g).__name__} has none")
    return shape_profile(tuple(sorted(exponents)))


def wiener(p: Profile) -> Value:
    """Sum of distances over unordered pairs: m + 2F."""
    return p.size + 2 * p.far_pairs


def hyper_wiener(p: Profile) -> Value:
    """Half the sum of d + d**2 over unordered pairs: m + 3F."""
    return p.size + 3 * p.far_pairs


def harary(p: Profile) -> Value:
    """Sum of reciprocal distances over unordered pairs: m + F/2."""
    return normalize(Fraction(2 * p.size + p.far_pairs, 2))


def zagreb1(p: Profile) -> Value:
    """Sum of squared vertex degrees."""
    return p.zagreb1


def zagreb2(p: Profile) -> Value:
    """Sum of degree products over edges."""
    return p.zagreb2


def degree_distance(p: Profile) -> Value:
    """Sum over unordered pairs of (deg u + deg v) * d(u, v) = sum d_v * D_v."""
    return sum(d * p.transmission(d) * c for d, c in p.degree_counts.items())


def gutman(p: Profile) -> Value:
    """Sum over unordered pairs of deg u * deg v * d(u, v) = S**2 - M1 - M2."""
    return p.degree_sum**2 - p.zagreb1 - p.zagreb2


def balaban(p: Profile) -> Value:
    """m/(mu+1) times the edge sum of 1/sqrt(D_u * D_v), D = transmission."""
    if p.size == 0:
        return 0
    t = p.transmission(0)  # D_v = t - d_v
    transmissions = {(t - a, t - b): c for (a, b), c in p.pair_counts.items()}
    mu = p.size - p.order + 1
    return inv_sqrt_sum(transmissions, p.size, mu + 1)


def harmonic(p: Profile) -> Value:
    """Edge sum of 2/(deg u + deg v): one term (2c, s) per distinct degree sum
    s of c edges, added by a balanced pairwise split, (a, b) + (c, d) =
    (ad + cb, bd), so the operands of each step are of one size, and reduced
    once at the end."""
    by_sum: Counter = Counter()
    for (a, b), c in p.pair_counts.items():
        by_sum[a + b] += c
    terms = [(2 * c, s) for s, c in by_sum.items()]
    if not terms:
        return 0
    while len(terms) > 1:
        tail = terms[-1:] if len(terms) % 2 else []
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])] + tail
    return normalize(Fraction(*terms[0]))


def randic(p: Profile) -> Value:
    """Edge sum of 1/sqrt(deg u * deg v)."""
    return inv_sqrt_sum(p.pair_counts)


def r1(p: Profile) -> Value:
    """Vertex sum of r(v)**2 = sum c*a**2 + 2Q * sum c*a*u + Q**2 * sum c*u**2,
    with a = S - d and u = L/d (Profile.r_quadratic)."""
    if p.order == 1:
        return 1  # r = 1 on the single vertex
    L, Q, QQ = p.r_quadratic
    S = p.degree_sum
    c0 = c1 = c2 = 0
    for d, c in p.degree_counts.items():
        a, u = S - d, L // d
        c0 += c * a * a
        c1 += c * a * u
        c2 += c * u * u
    return c0 + 2 * c1 * Q + c2 * QQ


def r2(p: Profile) -> Value:
    """Edge sum of r(u) * r(v), over the edge classes {(x, y): c}:
    sum c*a_x*a_y + Q * sum c*(a_x*u_y + a_y*u_x) + Q**2 * sum c*u_x*u_y."""
    if p.order == 1:
        return 0
    L, Q, QQ = p.r_quadratic
    S = p.degree_sum
    c0 = c1 = c2 = 0
    for (x, y), c in p.pair_counts.items():
        ax, ay, ux, uy = S - x, S - y, L // x, L // y
        c0 += c * ax * ay
        c1 += c * (ax * uy + ay * ux)
        c2 += c * ux * uy
    return c0 + c1 * Q + c2 * QQ


def r3(p: Profile) -> Value:
    """Edge sum of r(u) + r(v) = vertex sum of deg v * r(v) = S**2 - M1 + V*P."""
    return p.degree_sum**2 - p.zagreb1 + p.order * p.degree_product


def mostar(p: Profile) -> Value:
    """Edge sum of |n_u - n_v| (closer-vertex counts) = edge sum of |d_u - d_v|."""
    return sum((b - a) * c for (a, b), c in p.pair_counts.items())


#: The registry: each index's formula over a Profile, by name.  Profile.value
#: reads it; compute_index and compute_indices check names against it.
_DISPATCH = {name: globals()[name] for name in INDEX_NAMES}


def _check_names(names) -> None:
    """Refuse any name that is not an index, listing the valid ones."""
    for name in names:
        if name not in _DISPATCH:
            raise ValueError(f"unknown index {name!r}; valid names: {', '.join(INDEX_NAMES)}")


def compute_index(g, name: str) -> Value:
    """One index by name, read from g's Profile; unknown names raise
    ValueError listing valid ones."""
    _check_names([name])
    return profile(g).value(name)


def compute_indices(g, names=None) -> dict[str, Value]:
    """Selected indices (default all) in canonical report order, read from
    one lookup of g's Profile: each kept value as it is, and Profile.value
    only for a name the Profile does not hold yet."""
    if names is None:
        names = INDEX_NAMES
    else:
        _check_names(names)
        chosen = set(names)
        names = [n for n in INDEX_NAMES if n in chosen]
    p = profile(g)
    kept = p._values
    return {n: kept[n] if n in kept else p.value(n) for n in names}


def report_text(g, values: dict[str, Value]) -> str:
    """The IndexReport JSON document {"graph": g.descriptor(), "indices":
    {name: value, ...}}, as json.dumps(doc, indent=2) plus a newline writes
    it, from one template: the descriptor by g.descriptor_text, and the
    members of the "indices" object joined at _REPORT_PAD.  They are the
    members g's Profile keeps when it holds every value (Profile.holds), and
    each value's _member otherwise."""
    p = profile(g)
    if p.holds(values):
        kept = p._members
        members = [kept[name] if name in kept else p.member(name) for name in values]
    else:
        members = [_member(name, v) for name, v in values.items()]
    body = f"{{{_REPORT_PAD}{(',' + _REPORT_PAD).join(members)}{_OBJECT_PAD}}}" if members else "{}"
    graph = g.descriptor_text(_OBJECT_PAD)
    return f'{{{_OBJECT_PAD}"graph": {graph},{_OBJECT_PAD}"indices": {body}\n}}\n'


def table_text(g, values: dict[str, Value]) -> str:
    """The CLI's indices table of values on g, one row of name, exact and
    approx cells per value under a header, each column padded to its widest
    cell.  The cells are the ones g's Profile keeps when it holds every
    value (Profile.holds), and each value's _cells otherwise."""
    p = profile(g)
    if p.holds(values):
        rows = [(name, *p.cells(name)) for name in values]
    else:
        rows = [(name, *_cells(v)) for name, v in values.items()]
    rows.insert(0, ("index", "exact", "approx"))
    w_name = max(len(r[0]) for r in rows)
    w_exact = max(len(r[1]) for r in rows)
    return "".join([f"{name.ljust(w_name)}  {exact.ljust(w_exact)}  {approx}\n"
                    for name, exact, approx in rows])
