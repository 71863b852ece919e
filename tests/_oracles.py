"""Independent brute-force oracles used by the test suite.

Everything here recomputes algebra facts from first principles (explicit
2x2 matrices, permutation sums, quadrature) so that the library under
test is never trusted to check itself.  Keep these slow and obvious.
"""

import cmath
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from adsvol import reps
from adsvol.errors import InputError, IntegralityError
from adsvol.liealg import REFERENCE_FRAME, LieElement, _mat_mul
from adsvol.reps import _adjugate, _unit_distance, _wrap, relator_word

# The three basis matrices written out by hand; object dtype keeps
# Fraction arithmetic exact through numpy matmul.
MAT_H = np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]], dtype=object)
MAT_E = np.array([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]], dtype=object)
MAT_F = np.array([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]], dtype=object)
MATS = (MAT_H, MAT_E, MAT_F)


def as_array(m):
    """A library matrix (nested tuples) as an object array, so oracle
    arithmetic can run on it with numpy."""
    return np.array(m, dtype=object)


def as_rows(m):
    """An oracle matrix as nested tuples of Fraction, comparable with
    `==` to a library matrix entry by entry."""
    return tuple(tuple(Fraction(v) for v in row) for row in m)


def mat2(coords):
    """Coordinates (a, b, c) -> the trace-free matrix a*H + b*E + c*F."""
    a, b, c = (Fraction(v) for v in coords)
    return a * MAT_H + b * MAT_E + c * MAT_F


def coords_of(m):
    """Inverse of mat2; insists the matrix is trace free."""
    assert m[0, 0] + m[1, 1] == 0
    return (Fraction(m[0, 0]), Fraction(m[0, 1]), Fraction(m[1, 0]))


def oracle_bracket(x_coords, y_coords):
    """Bracket via the literal matrix commutator XY - YX."""
    xm, ym = mat2(x_coords), mat2(y_coords)
    return coords_of(xm @ ym - ym @ xm)


def oracle_ad(x_coords):
    """3x3 adjoint matrix, column j = bracket with the j-th basis matrix."""
    cols = [oracle_bracket(x_coords, coords_of(b)) for b in MATS]
    return np.array(cols, dtype=object).T


def oracle_killing(x_coords, y_coords):
    """Killing form as the honest trace of ad_x ad_y."""
    prod = oracle_ad(x_coords) @ oracle_ad(y_coords)
    return prod[0, 0] + prod[1, 1] + prod[2, 2]


def oracle_omega(x_coords, y_coords, z_coords):
    return oracle_killing(x_coords, oracle_bracket(y_coords, z_coords))


def perm_sign(perm):
    """Parity by counting inversions; no ambient helpers involved."""
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def oracle_wedge_trace(one_form_vals, two_form_vals, triple):
    """(1/6) sum over S3 of sign * tr(a(v_s1) r(v_s2, v_s3)).

    one_form_vals / two_form_vals are callables on lie elements; the
    permutation bookkeeping is done here from scratch.
    """
    total = Fraction(0)
    for perm in permutations(range(3)):
        v = [triple[i] for i in perm]
        prod = one_form_vals(v[0]) @ two_form_vals(v[1], v[2])
        tr = prod[0, 0] + prod[1, 1] + prod[2, 2]
        total += perm_sign(perm) * tr
    return total / 6


def oracle_form_evaluate(values, coords):
    """A scalar alternating form stored on increasing index tuples over
    {1, 2, 3}, at vectors given by their frame coordinates: the full
    multilinear expansion over all 3^k index tuples, each term reading
    the stored value of its sorted tuple with the permutation sign, and
    nothing on a tuple with a repeat."""
    total = Fraction(0)
    for idx in product((1, 2, 3), repeat=len(coords)):
        if len(set(idx)) < len(idx):
            continue
        coeff = Fraction(perm_sign(idx))
        for vec, i in zip(coords, idx):
            coeff *= vec[i - 1]
        total += coeff * values[tuple(sorted(idx))]
    return total


def oracle_signature(sym):
    """Signature (positives, negatives, zeros) of a symmetric Fraction
    matrix by congruence diagonalisation: simultaneous row and column
    elimination, swapping in a nonzero diagonal pivot when one is left,
    else adding a row and column with a nonzero off-diagonal entry."""
    m = [[Fraction(v) for v in row] for row in sym]
    n = len(m)
    for i in range(n):
        if m[i][i] == 0:
            pivot = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if pivot is not None:
                m[i], m[pivot] = m[pivot], m[i]
                for row in m:
                    row[i], row[pivot] = row[pivot], row[i]
            else:
                mate = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if mate is None:
                    continue
                for k in range(n):
                    m[i][k] += m[mate][k]
                for row in m:
                    row[i] += row[mate]
        for j in range(i + 1, n):
            if m[j][i] == 0:
                continue
            factor = m[j][i] / m[i][i]
            for k in range(n):
                m[j][k] -= factor * m[i][k]
            for row in m:
                row[j] -= factor * row[i]
    diag = [m[i][i] for i in range(n)]
    return (
        sum(1 for d in diag if d > 0),
        sum(1 for d in diag if d < 0),
        sum(1 for d in diag if d == 0),
    )


def random_rational_sl2(rng) -> tuple:
    """Random product of rational shear matrices; determinant exactly 1."""
    one, zero = Fraction(1), Fraction(0)
    g = ((one, zero), (zero, one))
    for turn in range(rng.randint(2, 4)):
        t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if turn % 2 == 0:
            shear = ((one, t), (zero, one))
        else:
            shear = ((one, zero), (t, one))
        g = _mat_mul(g, shear)
    return g


def adjoint_action(g, x: LieElement) -> LieElement:
    """Ad_g(x) = g X g^-1 for g a rational 2x2 matrix of determinant 1."""
    (a, b), (c, d) = g
    if a * d - b * c != 1:
        raise InputError("adjoint_action needs determinant exactly 1")
    m = _mat_mul(_mat_mul(g, x.to_matrix()), ((d, -b), (-c, a)))
    return LieElement.of(m[0][0], m[0][1], m[1][0])


def random_ad_frame(rng) -> tuple:
    """The reference frame moved by the adjoint action of a random
    rational element of SL(2, R): exactly orthonormal and positively
    oriented, because that action is a connected group of isometries."""
    g = random_rational_sl2(rng)
    return tuple(adjoint_action(g, u) for u in REFERENCE_FRAME)


def simpson_unit(f):
    """Simpson rule on [0, 1]; exact for cubics, all Fraction."""
    return (f(Fraction(0)) + 4 * f(Fraction(1, 2)) + f(Fraction(1))) / 6


def hyperbolic_distance(z, w):
    """Upper half-plane distance, textbook formula."""
    num = abs(z - w) ** 2
    den = 2 * z.imag * w.imag
    return math.acosh(1 + num / den)


def moebius_apply(mat, z):
    """Fractional-linear action of a 2x2 complex matrix."""
    a, b = mat[0]
    c, d = mat[1]
    return (a * z + b) / (c * z + d)


def naive_reduced_words(genus, max_len):
    """All reduced words as letter tuples, by breadth-first growth."""
    letters = []
    for i in range(1, 2 * genus + 1):
        letters.extend((i, -i))
    out = []
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for let in letters:
                if w and w[-1] == -let:
                    continue
                nxt.append(w + (let,))
        out.extend(nxt)
        frontier = nxt
    return out


def shortlex_key(letters, genus):
    """Sort key for letter tuples: length first, then letters ranked
    1, -1, 2, -2, ..., 2g, -2g."""
    rank = {}
    for i in range(1, 2 * genus + 1):
        rank[i] = 2 * i - 2
        rank[-i] = 2 * i - 1
    return (len(letters), tuple(rank[x] for x in letters))


def masked_reference_scan(rho_table, sigma_table, max_len, genus, block_rows, floor):
    """The Lipschitz-ratio word scan in its masked-gather form, as a
    bitwise reference for `admissibility._scan`: (best ratio, witness
    letters or None, words scanned).

    The tables are `admissibility._flat_generators` output.  Each level
    forms every (row, letter) entry of the extensions, gathers the kept
    pairs with the boolean mask once per entry and scores only the
    gathered words.  The arithmetic per entry and the np.arccosh calls
    are those of the library, so the two agree bit for bit on every CPU."""
    order = []
    for i in range(1, 2 * genus + 1):
        order += [i, -i]
    n = len(order)
    alphabet = np.arange(n, dtype=np.min_scalar_type(n))
    keep = alphabet[None, :] != (alphabet ^ 1)[:, None]
    step = max(1, block_rows // (n - 1))
    best = {"ratio": 0.0, "witness": None, "scanned": 0}

    def extend(prods, table, mask, entries):
        out = np.empty((np.count_nonzero(mask), 4))
        for k in entries:
            i, j = divmod(k, 2)
            head, tail = prods[:, 2 * i, None], prods[:, 2 * i + 1, None]
            out[:, k] = (head * table[:, j] + tail * table[:, 2 + j])[mask]
        return out

    def ratios(rho_m, sigma_m):
        half = np.abs([m[:, 0] + m[:, 3] for m in (rho_m, sigma_m)]) / 2.0
        lengths = np.zeros_like(half)
        np.arccosh(half, out=lengths, where=half > 1.0)
        lengths *= 2.0
        rho_len, sigma_len = lengths
        out = np.full_like(rho_len, -1.0)
        return np.divide(sigma_len, rho_len, out=out, where=rho_len > floor)

    def visit(rho_m, sigma_m, letters, mask):
        length = letters.shape[1] + 1
        entries = range(4) if length < max_len else (0, 3)
        rho_m = extend(rho_m, rho_table, mask, entries)
        sigma_m = extend(sigma_m, sigma_table, mask, entries)
        best["scanned"] += len(rho_m)
        ratio = ratios(rho_m, sigma_m)
        i = int(np.argmax(ratio))
        r = float(ratio[i])
        if r >= 0.0 and (
            best["witness"] is None
            or r > best["ratio"]
            or (r == best["ratio"] and length < len(best["witness"]))
        ):
            row, last = divmod(int(np.flatnonzero(mask)[i]), n)
            best["ratio"] = r
            best["witness"] = tuple(order[j] for j in (*letters[row], last))
        if length == max_len:
            return
        letters = np.column_stack((
            np.repeat(letters, np.count_nonzero(mask, axis=1), axis=0),
            np.broadcast_to(alphabet, mask.shape)[mask],
        ))
        for lo in range(0, len(letters), step):
            part = slice(lo, lo + step)
            visit(rho_m[part], sigma_m[part], letters[part], keep[letters[part, -1]])

    root = np.array([[1.0, 0.0, 0.0, 1.0]])
    visit(root, root, np.empty((1, 0), alphabet.dtype), np.ones((1, n), bool))
    return best["ratio"], best["witness"], best["scanned"]


# The numpy-scalar forms of `reps.Moebius`'s normalisation and of
# `reps.euler_class`, which read every 2x2 entry as a numpy scalar: the
# bitwise references for the library's plain-float forms.  ndarray.dot
# does every product in both, and IEEE scalar ops round the same in
# numpy and in Python, so the two must agree bit for bit.

def numpy_scalar_moebius(mat) -> np.ndarray:
    """The determinant-1, nonnegative-trace representative of `mat`."""
    m = np.array(mat, dtype=float)
    if m.shape != (2, 2) or not np.isfinite(m).all():
        raise InputError("Moebius needs a finite 2x2 real matrix")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det <= 0:
        raise InputError("PSL(2, R) requires positive determinant")
    m = m / math.sqrt(det)
    tr = m[0, 0] + m[1, 1]
    if tr < 0:
        m = -m
    elif tr == 0:
        for entry in m.flat:
            if entry != 0:
                if entry < 0:
                    m = -m
                break
    return m


def numpy_scalar_relator_residual(rep) -> float:
    """`reps.relator_residual`: the relator evaluated left to right,
    normalising every inverse and every product."""
    identity = numpy_scalar_moebius(np.eye(2))
    acc = identity
    for letter in relator_word(rep.genus):
        m = rep.images[abs(letter) - 1].mat
        g = m if letter > 0 else numpy_scalar_moebius(_adjugate(m))
        acc = numpy_scalar_moebius(acc.dot(g))
    return _unit_distance(acc.ravel().tolist(), identity.ravel().tolist())


def _numpy_scalar_polar_angle(m) -> float:
    """Angle of the rotation R in the polar decomposition m = R P, P
    symmetric positive definite."""
    return math.atan2(m[1, 0] - m[0, 1], m[0, 0] + m[1, 1])


def numpy_scalar_euler_class(rep) -> tuple:
    """`reps.euler_class`: (euler, residual), or IntegralityError when the
    relator does not close within reps.RELATOR_TOLERANCE."""
    acc = np.eye(2)
    angle = turn = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for letter in relator_word(rep.genus):
            m = rep.images[abs(letter) - 1].mat
            g = m if letter > 0 else _adjugate(m)
            step = _numpy_scalar_polar_angle(g)
            acc = acc.dot(g)
            previous, angle = angle, _numpy_scalar_polar_angle(acc)
            turn += step + _wrap(angle - previous - step)
    closure = _unit_distance(acc.ravel().tolist(), (1.0, 0.0, 0.0, 1.0))
    if not closure <= reps.RELATOR_TOLERANCE:
        raise IntegralityError(
            f"relator residual {closure:.3e} exceeds tolerance {reps.RELATOR_TOLERANCE}, "
            "so no Euler class can be read"
        )
    turn += _wrap(math.atan2(acc[1, 0], acc[0, 0]) - angle)
    ratio = turn / math.pi
    nearest = round(ratio)
    residual = abs(ratio - nearest)
    return nearest, residual
