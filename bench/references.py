"""Hand-written reference values for every benchmark command.

Each finite colength below was computed once by the engine and certified
once by the truncation oracle (`--oracle`), which shares no code with the
standard-basis engine.  Every value is invariant under the corpus
generator's changes of input: renaming the variables among themselves,
permuting matrix rows and columns, and scaling the 1-form by a nonzero
rational.  The renaming changes only the spelling of the expected minors.

The `dense-colength` references are not typed in: `dense_colength(k)`
derives them from the Hilbert function of a monomial complete
intersection cut by one more general form (Stanley's strong Lefschetz
property), and `check_formula()` pins it to known values.
"""

INF = "INFINITE"

# The (2,3,2) surface in C^4 and the (2,3,2) threefold in C^5.
SURFACE_VARS = ("x", "y", "z", "u")
SURFACE_MATRIX = (("z", "y+u", "x"), ("u", "x", "y"))
THREEFOLD_VARS = ("x", "y", "z", "u", "v")
THREEFOLD_MATRIX = (("x", "y", "z"), ("u", "v", "x+y^2"))


def _surface_form(k):
    """Coefficients of d(x^k + y^k + z^k + u^k + xyz) in (x, y, z, u) order."""
    return (
        "%d*x^%d + y*z" % (k, k - 1),
        "%d*y^%d + x*z" % (k, k - 1),
        "%d*z^%d + x*y" % (k, k - 1),
        "%d*u^%d" % (k, k - 1),
    )


# name -> (variables, matrix, form, alg-index, hom-index, oracle degree caps)
# The caps are where the oracle's doubling schedule stabilizes: (alg, hom);
# None where `oracle-verify` does not run that command with the oracle.
# The threefold's alg-index was certified too, at cap 8.
GERMS = {
    "surface-du": (SURFACE_VARS, SURFACE_MATRIX, ("0", "0", "0", "1"), 5, 6, (4, 4)),
    "surface-k2": (SURFACE_VARS, SURFACE_MATRIX, _surface_form(2), 12, 14, (4, 4)),
    "surface-k3": (SURFACE_VARS, SURFACE_MATRIX, _surface_form(3), INF, INF, None),
    "surface-k4": (SURFACE_VARS, SURFACE_MATRIX, _surface_form(4), 30, 32, (8, 8)),
    "surface-k5": (SURFACE_VARS, SURFACE_MATRIX, _surface_form(5), INF, INF, None),
    "threefold": (THREEFOLD_VARS, THREEFOLD_MATRIX, ("0", "0", "3*z^2", "2*u", "1"), 8, 8, (None, 8)),
}

# `check` result for each germ: (ambient_dim, dim, stratum_dims).
CHECK = {
    "surface": (4, 2, [0, 2]),
    "threefold": (5, 3, [0, 3]),
}


def check_result(kind):
    ambient, dim, strata = CHECK[kind]
    return {
        "ambient_dim": ambient,
        "codim": 2,
        "dim": dim,
        "isolated": True,
        "sing_stratum_colength_finite": True,
        "smoothable": True,
        "stratum_dims": strata,
        "transposed": False,
        "type": [2, 3, 2],
    }


# The 2x2 minors of SURFACE_MATRIX, each determined up to sign by any
# permutation of rows and columns.
SURFACE_MINORS = ("x*z - y*u - u^2", "y*z - x*u", "-x^2 + y^2 + y*u")

# Small germs for the cheap tail of `germ-session`.
ICIS_A1 = {"variables": ("x", "y", "z"), "equation": "x^2 + y^2 + z^2", "form": ("0", "0", "1"), "value": 2}
SPACE_CURVE = {
    "variables": ("x", "y", "z"),
    "matrix": (("z", "y", "x"), ("0", "x", "y")),
    "form": ("1", "0", "1"),
    "value": 4,
}
CONVERT_MANIFEST = {"type": [2, 3, 2], "N": 6, "radial": [1, 3], "chi": [1, 4], "chi_sing": 1}
CONVERT_RESULT = {
    "isolated": {"chi_sing": 1, "ph_index": {"1": 8, "2": 7, "3": 11}, "phn_index": 7},
    "ph_index": {"1": 8, "2": 7, "3": 11},
    "phn_index": 7,
    "phn_per_stratum": [1, 7],
    "radial_roundtrip": 3,
}
TABLES_RESULT = {
    "chi_bar_hyperplane": 1,
    "chi_fiber": {"1": [3, 1], "2": [2, 1], "3": [6, 1]},
    "mmat": [[1, 1], [0, 1]],
    "nmat": [[1, -1], [0, 1]],
    "type": [2, 3, 2],
}

# Cap given to the oracle on inputs whose colength is infinite: the
# doubling schedule evaluates caps 3, 4, 7, 8 and gives up honestly.
INF_ORACLE_CAP = 8

# Degrees of the `dense-colength` ideals (l^k, x^k, y^k, z^k, u^k).
DENSE_DEGREES = (4, 5, 6)

# Known colengths of (x+y+z+u)^k + pure k-th powers, for the self-check.
DENSE_KNOWN = {4: 155, 5: 381, 6: 780, 8: 2460}


def dense_colength(k, nvars=4):
    """dim O/(l^k, x_1^k, ..., x_n^k) for a linear form l with all
    coefficients nonzero: sum over d of max(0, h_d - h_{d-k}), where h is
    the Hilbert function of the monomial complete intersection."""
    h = [1]
    for _ in range(nvars):
        # multiply the series by 1 + t + ... + t^(k-1)
        nxt = [0] * (len(h) + k - 1)
        for i, c in enumerate(h):
            for j in range(k):
                nxt[i + j] += c
        h = nxt
    return sum(max(0, h[d] - (h[d - k] if d >= k else 0)) for d in range(len(h)))


def check_formula():
    """Raise if the Hilbert-function formula disagrees with a known value."""
    for k, value in DENSE_KNOWN.items():
        got = dense_colength(k)
        if got != value:
            raise AssertionError("dense_colength(%d) = %d, expected %d" % (k, got, value))
