"""Change of variables on binary forms, for the GL_2 invariance tests."""


def transform_form(form, mat):
    """Coefficients of F(a x0 + b x1, c x0 + d x1) for an integer 2x2 matrix.

    Used to exercise the change-of-variables invariance of the monomial
    model: the root-count law of F and F o g agree for g in GL_2(Z_p).
    """
    (a, b), (c, d) = mat
    deg = len(form) - 1
    out = [0] * (deg + 1)
    for k, coeff in enumerate(form):
        # (a x0 + b x1)^(deg-k) (c x0 + d x1)^k
        poly = [coeff]
        for _ in range(deg - k):
            poly = _mul_linear(poly, a, b)
        for _ in range(k):
            poly = _mul_linear(poly, c, d)
        for i, v in enumerate(poly):
            out[i] += v
    return out


def _mul_linear(poly, a, b):
    out = [0] * (len(poly) + 1)
    for i, v in enumerate(poly):
        out[i] += v * a
        out[i + 1] += v * b
    return out
