"""Independent brute-force oracles used by the test suite.

Everything here recomputes algebra facts from first principles (explicit
2x2 matrices, permutation sums, quadrature) so that the library under
test is never trusted to check itself.  Keep these slow and obvious.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from adsvol import reps
from adsvol.errors import InputError, IntegralityError
from adsvol.liealg import REFERENCE_FRAME, LieElement
from adsvol.reps import _adjugate, _unit_distance

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


def _dot(u, v) -> Fraction:
    """Sum of the products u[k] v[k], skipping zero factors."""
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def reference_mat_mul(x, y) -> tuple:
    """Product of two square matrices of rationals given as tuples of
    rows, one Fraction product and sum per term."""
    cols = tuple(zip(*y))
    return tuple(tuple(_dot(row, col) for col in cols) for row in x)


def reference_trace_product(x, y) -> Fraction:
    """tr(xy) of two square matrices: the diagonal of the product, summed."""
    return sum((_dot(row, col) for row, col in zip(x, zip(*y))), Fraction(0))


def reference_bracket(x: LieElement, y: LieElement) -> LieElement:
    """Bracket from the structure constants in Fraction arithmetic:
    (bc' - cb') H + 2(ab' - ba') E + 2(ca' - ac') F."""
    a, b, c = x.coords
    d, e, f = y.coords
    return LieElement.of(b * f - c * e, 2 * (a * e - b * d), 2 * (c * d - a * f))


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

    one_form_vals / two_form_vals are callables on the entries of
    triple (frame indices, say); the permutation bookkeeping is done
    here from scratch.
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
        g = reference_mat_mul(g, shear)
    return g


def adjoint_action(g, x: LieElement) -> LieElement:
    """Ad_g(x) = g X g^-1 for g a rational 2x2 matrix of determinant 1."""
    (a, b), (c, d) = g
    if a * d - b * c != 1:
        raise InputError("adjoint_action needs determinant exactly 1")
    m = reference_mat_mul(reference_mat_mul(g, x.to_matrix()), ((d, -b), (-c, a)))
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


def relator_word(genus) -> tuple:
    """The letters of a1 b1 a1^-1 b1^-1 ... ag bg ag^-1 bg^-1."""
    return tuple(
        x for i in range(1, genus + 1) for x in (2 * i - 1, 2 * i, 1 - 2 * i, -2 * i)
    )


def reduce_word(letters) -> tuple:
    """Free reduction: cancel each letter against an inverse before it."""
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def evaluate(rep, letters):
    """The image of a word as a `reps.Moebius`, multiplying the images
    left to right; an inverse letter is the inverse of its image."""
    result = reps.Moebius.identity()
    for x in letters:
        image = rep.images[abs(x) - 1]
        result = result * (image if x > 0 else image.inverse())
    return result


def translation_length(m) -> float:
    """2 arccosh(|tr|/2) of a `reps.Moebius` when hyperbolic, else 0."""
    (a, _), (_, d) = m.mat.tolist()
    half = abs(a + d) / 2.0
    return 2.0 * math.acosh(half) if half > 1.0 else 0.0


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


# The numpy-scalar forms of `reps.Moebius`'s normalisation and of the
# relator products, which read every 2x2 entry as a numpy scalar: the
# bitwise references for the library's plain-float forms.  ndarray.dot
# does every product in both, and IEEE scalar ops round the same in
# numpy and in Python, so the two must agree bit for bit.  The Euler
# class here is read by the angle walk the sign sum replaced: an
# independent reference for the integer and the gate.

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


def numpy_scalar_prefix_products(rep) -> tuple:
    """(letters, prefixes): the relator's letters, each inverse the
    adjugate of the stored matrix, and their products from the left by
    ndarray.dot, the identity first and the relator product last."""
    letters, prefixes = [], [np.eye(2)]
    with np.errstate(over="ignore", invalid="ignore"):
        for x in relator_word(rep.genus):
            m = rep.images[abs(x) - 1].mat
            letters.append(m if x > 0 else _adjugate(m))
            prefixes.append(prefixes[-1].dot(letters[-1]))
    return letters, prefixes


def orientation_sign_sum(rep) -> int:
    """The sum of sign(C_k c_{k+1} C_{k+1}) over k = 1 .. 4g-2, from the
    lower-left entries C_k of the prefix products and c_k of the letters,
    with C_{4g-1} read as sign(R_11) c(b_g): the sum `reps.euler_class`
    halves, which must be even."""
    letters, prefixes = numpy_scalar_prefix_products(rep)
    lower = np.sign([p[1, 0] for p in prefixes[1:]])
    lower[-2] = np.sign(prefixes[-1][0, 0]) * np.sign(letters[-3][1, 0])
    mids = np.sign([m[1, 0] for m in letters])
    return int(sum(lower[k] * mids[k + 1] * lower[k + 1] for k in range(len(letters) - 2)))


def _exact_letter(entries) -> tuple:
    """Four floats as four ints that are the floats times one power of
    two, which changes no sign of any product."""
    ratios = [x.as_integer_ratio() for x in entries]
    scale = max(q for _, q in ratios)
    return tuple(p * (scale // q) for p, q in ratios)


def exact_orientation_sign_sum(rep) -> int:
    """`orientation_sign_sum` with the prefix products formed exactly:
    each stored letter (an inverse is the adjugate) as dyadic ints, the
    products in int arithmetic, and the same C_{4g-1} = sign(R_11) c(b_g)
    substitution, so any correctly rounded walk must halve to the same
    Euler class."""
    def sign(x):
        return (x > 0) - (x < 0)

    letters, lower = [], []
    acc = (1, 0, 0, 1)
    for x in relator_word(rep.genus):
        a, b, c, d = rep.images[abs(x) - 1].mat.ravel().tolist()
        g = _exact_letter((a, b, c, d) if x > 0 else (d, -b, -c, a))
        p, q, r, s = acc
        acc = (p * g[0] + q * g[2], p * g[1] + q * g[3], r * g[0] + s * g[2], r * g[1] + s * g[3])
        letters.append(sign(g[2]))
        lower.append(sign(acc[2]))
    lower[-2] = sign(acc[0]) * letters[-3]
    return sum(lower[k] * letters[k + 1] * lower[k + 1] for k in range(len(letters) - 2))


def _wrap(x: float) -> float:
    """x reduced mod pi into [-pi/2, pi/2)."""
    return (x + math.pi / 2) % math.pi - math.pi / 2


def _numpy_scalar_polar_angle(m) -> float:
    """Angle of the rotation R in the polar decomposition m = R P, P
    symmetric positive definite."""
    return math.atan2(m[1, 0] - m[0, 1], m[0, 0] + m[1, 1])


def numpy_scalar_euler_class(rep) -> tuple:
    """(euler, residual) read by the angle walk, or IntegralityError when
    the relator does not close within reps.RELATOR_TOLERANCE.

    Every letter lifts to the universal cover through its polar angle,
    products lift through the Guichardet-Wigner rotation cocycle reduced
    into [-pi/2, pi/2), and the lifted relator is read at the line of
    angle 0 and divided by pi."""
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


# The regular-polygon holonomy built one generator at a time, each
# SU(1, 1) product an ndarray.dot on freshly built 2x2 arrays: the
# bitwise reference for `reps.fuchsian_regular_polygon`, which stacks
# the same products as np.matmul over blocks of generator pairs.

def _su_translate(p: complex) -> np.ndarray:
    """Disc isometry sending p to 0, as an SU(1, 1) matrix."""
    s = 1.0 / math.sqrt(1.0 - abs(p) ** 2)
    return np.array([[s, -s * p], [-s * p.conjugate(), s]], dtype=complex)


def _su_rotation(t: float) -> np.ndarray:
    """Disc rotation z -> e^{it} z about 0."""
    return np.array(
        [[np.exp(1j * t / 2), 0.0], [0.0, np.exp(-1j * t / 2)]], dtype=complex
    )


def _su_apply(m: np.ndarray, z: complex) -> complex:
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _su_align(p: complex, q: complex) -> np.ndarray:
    """Disc isometry with p -> 0 and q on the positive real axis."""
    t = _su_translate(p)
    angle = np.angle(_su_apply(t, q))
    return _su_rotation(-angle).dot(t)


def _su_adjugate(m: np.ndarray) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _su_to_moebius(m: np.ndarray) -> "reps.Moebius":
    """Conjugate an SU(1, 1) matrix back to SL(2, R) through the Cayley
    map z -> (z - i)/(z + i); the result is real up to rounding noise."""
    left = np.array([[1j, 1j], [-1.0, 1.0]], dtype=complex)
    right = np.array([[1.0, -1j], [1.0, 1j]], dtype=complex)
    out = left.dot(m).dot(right) / 2j
    if np.abs(out.imag).max() > 1e-9:
        raise InputError("matrix is not conjugate to a real one")
    return reps.Moebius(out.real)


def su11_polygon_reference(genus) -> tuple:
    """The images a1, b1, ..., ag, bg of the regular 4g-gon's side
    pairings: a_i pairs sides {4i, 4i+2}, b_i is the inverse of the
    pairing of sides {4i+1, 4i+3}, and the pairing of {j, j+2} carries
    the oriented edge (v_{j+3}, v_{j+2}) to (v_j, v_{j+1})."""
    n = 4 * genus
    r = math.tanh(math.acosh(1.0 / math.tan(math.pi / n) ** 2) / 2.0)

    def pairing(v0, v1, v2, v3):
        return _su_adjugate(_su_align(v0, v1)).dot(_su_align(v3, v2))

    images = []
    for i in range(genus):
        v = [r * np.exp(2j * math.pi * (j % n) / n) for j in range(4 * i, 4 * i + 5)]
        images.append(_su_to_moebius(pairing(*v[:4])))
        images.append(_su_to_moebius(_su_adjugate(pairing(*v[1:]))))
    return tuple(images)
