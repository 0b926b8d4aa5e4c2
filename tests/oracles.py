"""Independent checks and graph helpers that only the tests use."""

from typing import Sequence

from perronbalance.algebra import IntPoly
from perronbalance.graphs import Graph, _bits


def prs_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd (leading coefficient > 0) by the primitive
    pseudo-remainder sequence: Euclid's algorithm in which each remainder
    step first scales by the divisor's leading coefficient, so every
    quotient digit is an integer."""
    a, b = f.primitive(), g.primitive()
    while b:
        r = list(a.coeffs)
        while len(r) >= len(b.coeffs):
            k, c = len(r) - len(b.coeffs), r[-1]
            r = [x * b.leading for x in r]
            for j, bc in enumerate(b.coeffs):
                r[k + j] -= c * bc
            while r and r[-1] == 0:
                r.pop()
        a, b = b, IntPoly(r).primitive()
    return a


def induced(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph; vertex k of the result is vertices[k]."""
    idx = {v: i for i, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for v in vertices:
        for u in _bits(g.adj[v]):
            if u in idx:
                adj[idx[v]] |= 1 << idx[u]
    return Graph(len(vertices), tuple(adj))


def adjacency_rows(g: Graph) -> list:
    return [[g.adj[v] >> u & 1 for u in range(g.n)] for v in range(g.n)]


def resolvent_identity_holds(rd, A: Sequence[Sequence[int]]) -> bool:
    """Check (xI - A) * adjugate == char_poly * I coefficient-exactly,
    plus symmetry of the adjugate for symmetric input."""
    n = rd.n
    x = IntPoly([0, 1])
    for i in range(n):
        for j in range(n):
            # entry (i,j) of (xI - A) @ adjugate
            total = x * rd.adjugate[i][j]
            for k in range(n):
                if A[i][k]:
                    total = total - rd.adjugate[k][j] * A[i][k]
            want = rd.char_poly if i == j else IntPoly()
            if total != want:
                return False
    if all(A[i][j] == A[j][i] for i in range(n) for j in range(n)):
        for i in range(n):
            for j in range(i):
                if rd.adjugate[i][j] != rd.adjugate[j][i]:
                    return False
    return True


def residual_contains_zero(pd, g: Graph) -> bool:
    """Eigenvalue-equation residual check on PerronData: lam*w_v - sum_nbr
    w_u must admit zero for every vertex.

    The weights are an adjugate column, so rows other than the column
    index satisfy the equation identically; the column row's residual is
    the characteristic polynomial, which vanishes at the eigenvalue.
    """
    for v in range(g.n):
        acc = pd.lam.mul_interval(pd.weights[v])
        for u in g.neighbors(v):
            acc = acc.sub(pd.weights[u])
        if not acc.contains_zero():
            return False
    return True
