"""d-left-regular bipartite graphs: random and code-based constructions.

A graph has p left vertices, n <= MAX_SIDE right vertices, and every left
vertex has exactly d distinct neighbors: row i of one read-only (p, d)
int64 table, strictly increasing, shared by the design matrix and capped
at MAX_TABLE entries. The JSON interchange form is an object with integer
fields ``p``, ``n``, ``d``, text field ``provenance`` and ``neighbors``, an
array of p arrays of d ascending integers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, check_power
from .fields import GF, find_irreducible, poly_eval, poly_mod_pow
from .rng import Stream

MAX_SIDE = 1 << 20
MAX_TABLE = 1 << 24  # entries of a (p, d) neighbor table: 128 MB of int64


@dataclass(frozen=True)
class BipartiteGraph:
    p: int
    n: int
    d: int
    neighbors: np.ndarray  # or nested sequences, converted once
    provenance: str

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"need p >= 1, got p={self.p}")
        if not 1 <= self.d <= self.n:
            raise ValueError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        _check_sizes(self.p, self.d, self.n)
        if not isinstance(table := self.neighbors, np.ndarray):
            if len(table) != self.p:
                raise ValueError("neighbor table length differs from p")
            for i, degree in enumerate(map(len, table)):
                if degree != self.d:
                    raise ValueError(f"left vertex {i} has degree {degree}, expected {self.d}")
            try:
                table = np.array(table, dtype=np.int64)
            except OverflowError:               # an entry past int64 is out of range
                table = np.array(table, dtype=object)
        elif table.shape != (self.p, self.d) or table.dtype.kind not in "iu":
            raise ValueError(f"neighbor table must be a ({self.p}, {self.d}) integer array")
        outside = ((table < 0) | (table >= self.n)).any(axis=1)
        unsorted = (table[:, 1:] <= table[:, :-1]).any(axis=1)
        bad = outside | unsorted
        if bad.any():
            i = int(bad.argmax())               # the first offending left vertex
            if outside[i]:
                raise ValueError(f"left vertex {i} has a neighbor outside [0, {self.n})")
            raise ValueError(f"neighbor list of left vertex {i} is not strictly increasing")
        table = np.require(table, np.int64, "CO")  # kept as it is when owned int64
        table.flags.writeable = False
        object.__setattr__(self, "neighbors", table)

    def __eq__(self, other):
        return (isinstance(other, BipartiteGraph) and self.provenance == other.provenance
                and self.n == other.n and np.array_equal(self.neighbors, other.neighbors))


@dataclass(frozen=True)
class ExpanderParams:
    """Expansion order s, constant eps (default 1/8), and the tuning
    exponent alpha / universal constant theta0 of the asymptotic bounds."""

    s: int
    eps: float = 0.125
    alpha: float = 1.0
    theta0: float = 1.0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.alpha <= 0 or self.theta0 <= 0:
            raise ValueError("alpha and theta0 must be positive")


def check_table(what: str, rows: int, cols: int) -> None:
    """CapacityError naming ``what`` when a rows x cols table would pass
    MAX_TABLE entries; called before the table is allocated."""
    if rows * cols > MAX_TABLE:
        raise CapacityError(f"{what} = {rows}*{cols} exceeds limit {MAX_TABLE}")


def _check_sizes(p: int, d: int, n: int) -> None:
    """Refuse a graph with more than MAX_TABLE table entries or MAX_SIDE
    right vertices; constructions call it before they build the table."""
    check_table("neighbor table p*d", p, d)
    if n > MAX_SIDE:
        raise CapacityError(f"right side n = {n} exceeds limit {MAX_SIDE}")


def matching_graph(n: int) -> BipartiteGraph:
    """Perfect matching i <-> i (d = 1, p = n); its design matrix is the identity."""
    _check_sizes(n, 1, n)
    return BipartiteGraph(n, n, 1, np.arange(n)[:, None], f"matching(n={n})")


def random_left_regular(p: int, d: int, n: int, seed: int) -> BipartiteGraph:
    """Each left vertex draws d right vertices uniformly without replacement.

    Draws are independent across left vertices and come from a single
    seeded stream, so identical (p, d, n, seed) give the identical graph.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    _check_sizes(p, d, n)
    return BipartiteGraph(p, n, d, Stream(seed).samples_without_replacement(n, d, p),
                          f"random(p={p},d={d},n={n},seed={seed})")


def suggest_random_params(p: int, s: int, c: float) -> tuple[int, int]:
    """Size hints d = ceil(c ln(p/s)), n = ceil(c s ln(p/s)) for the random
    construction. Requires p >= 2s so the log is bounded away from zero."""
    if p < 2 * s:
        raise ValueError(f"need p >= 2s, got p={p}, s={s}")
    if c <= 0:
        raise ValueError("c must be positive")
    lg = math.log(p / s)
    return math.ceil(c * lg), math.ceil(c * s * lg)


def suggest_pv_bounds(p: int, s: int, params: ExpanderParams) -> tuple[float, float]:
    """Asymptotic guarantees for the code-based construction, as stated:
    d <= ((theta0 log p log s)/eps)^(1+1/alpha) and
    n <= s^(1+alpha) ((theta0 log p log s)/eps)^(2+2/alpha).

    Informational only; concrete desk-scale instances must be certified by
    the verifier, never assumed to meet these bounds.
    """
    if not p > s >= 2:
        raise ValueError("need p > s >= 2")
    inner = params.theta0 * math.log(p) * math.log(s) / params.eps
    a = params.alpha
    return inner ** (1.0 + 1.0 / a), s ** (1.0 + a) * inner ** (2.0 + 2.0 / a)


def pv_expander(gf: GF, l: int, m: int, h: int) -> BipartiteGraph:
    """Deterministic graph from iterated polynomial powers over GF(q).

    Left vertices are the q**l polynomials f of degree < l over GF(q),
    enumerated by the base-q expansion of their coefficient indices (lowest
    degree least significant). Fix E, the deterministic monic irreducible
    polynomial of degree l over GF(q), and define f_i = f**(h**i) mod E.
    The neighbor of f for a field element y is the tuple
    (y, f_0(y), ..., f_{m-1}(y)) encoded in base q with y most significant,
    so d = q and n = q**(m+1). The first tuple coordinate is y, hence the d
    neighbors of a vertex are distinct and already ascending. Both sides
    are capped at MAX_SIDE vertices and the table at MAX_TABLE entries.

    The table is built for all left vertices at once: their coefficients
    are a (p, l) code array, each f_i is one ``poly_mod_pow`` call on the
    whole array, and one ``poly_eval`` call gives every f_i(y) as a (p, q)
    array, which is then encoded digit by digit.
    """
    if l < 1 or m < 1:
        raise ValueError("need l >= 1 and m >= 1")
    if h < 2:
        raise ValueError("need h >= 2")
    q = gf.q
    p = check_power("left side q**l", q, l, MAX_SIDE)
    n = check_power("right side q**(m+1)", q, m + 1, MAX_SIDE)
    _check_sizes(p, q, n)

    modulus = find_irreducible(gf, l, limit=MAX_SIDE)
    f = np.arange(p)[:, None] // q ** np.arange(l) % q    # codes, lowest degree first
    row = np.broadcast_to(np.arange(q), (p, q))
    for i in range(m):
        if i:
            f = poly_mod_pow(gf, f, h, modulus)
        row = row * q + poly_eval(gf, f)
    return BipartiteGraph(p, n, q, row, f"pv(q={q},l={l},m={m},h={h})")


def neighbor_set(g: BipartiteGraph, left: set[int] | list[int] | tuple[int, ...]) -> set[int]:
    """Union of the neighbor lists of the given left vertices."""
    out: set[int] = set()
    for i in left:
        if not 0 <= i < g.p:
            raise ValueError(f"left index {i} outside [0, {g.p})")
        out.update(g.neighbors[i].tolist())
    return out


# ---------------------------------------------------------------------------
# interchange format
# ---------------------------------------------------------------------------

def graph_to_json_dict(g: BipartiteGraph) -> dict:
    return {
        "p": g.p,
        "n": g.n,
        "d": g.d,
        "provenance": g.provenance,
        "neighbors": g.neighbors.tolist(),
    }


def graph_to_json_text(g: BipartiteGraph) -> str:
    """The graph file's text: ``json.dumps(graph_to_json_dict(g), indent=2)``,
    with the neighbor rows joined directly rather than by json's encoder."""
    rows = "\n    ],\n    [\n      ".join(",\n      ".join(map(str, nb))
                                         for nb in g.neighbors.tolist())
    return (f'{{\n  "p": {g.p},\n  "n": {g.n},\n  "d": {g.d},\n'
            f'  "provenance": {json.dumps(g.provenance)},\n'
            f'  "neighbors": [\n    [\n      {rows}\n    ]\n  ]\n}}')


def graph_from_json_dict(obj: dict) -> BipartiteGraph:
    """The graph of an interchange object. Every field must have its exact
    JSON type (a bool is not an integer); anything else is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("graph object must be a JSON object")
    try:
        p, n, d, provenance, neighbors = (obj[key] for key in
                                          ("p", "n", "d", "provenance", "neighbors"))
    except KeyError as exc:
        raise ValueError(f"graph object is missing field {exc}") from exc
    for key, value in (("p", p), ("n", n), ("d", d)):
        if type(value) is not int:              # a bool is not an integer
            raise ValueError(f"graph field {key!r} must be an integer, got {value!r}")
    if not isinstance(provenance, str):
        raise ValueError(f"graph field 'provenance' must be a string, got {provenance!r}")
    # a decoded JSON integer has type int exactly; a bool has type bool
    if not (isinstance(neighbors, list) and all(isinstance(nb, list) for nb in neighbors)
            and {*map(type, itertools.chain.from_iterable(neighbors))} <= {int}):
        raise ValueError("graph field 'neighbors' must be an array of integer arrays")
    return BipartiteGraph(p, n, d, neighbors, provenance)


def save_graph(g: BipartiteGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json_text(g) + "\n")


def load_graph(path) -> BipartiteGraph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))
