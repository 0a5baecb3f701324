"""The expansion-form extraction that substitutes all of F into a focal
frame and decodes every term of F(t x + y + w): the oracle that the tests
hold ``systems.extract_expansion_forms``, which expands F from its squares,
to.  Nothing here grades a term before it is decoded or skips one."""

from fractions import Fraction

from octoverify.poly import MultiPoly, monomial_exponents, monomial_key, rt2_poly


def frame_forms(frame, nvars: int) -> list:
    """x_r = sum_j v_j[r] u_j over the frame's variables (t, tangent, normal)."""
    vecs = [frame.point, *frame.tangent, *frame.normals]
    forms = []
    for r in range(nvars):
        lf = MultiPoly(len(vecs))
        for j, v in enumerate(vecs):
            if v.coords[r]:
                lf = lf + v.coords[r] * MultiPoly.variable(len(vecs), j)
        forms.append(lf)
    return forms


def decoded_expansion_forms(f: MultiPoly, frame) -> tuple[list, list]:
    """(p, q) as ``Rt2Poly`` lists, read off F(t x + y + w) term by term;
    ``ValueError`` with the extraction's texts for a t^4 coefficient that
    carries sqrt2 or is not 1."""
    tcount = len(frame.tangent)
    ncount = len(frame.normals)
    halves = [v.half for v in (frame.point, *frame.tangent, *frame.normals)]
    fc = f.substitute_linear(frame_forms(frame, f.nvars))
    p_terms: list = [[] for _ in range(ncount)]
    q_terms: list = [[] for _ in range(ncount)]
    t4_coeff = Fraction(0)
    for key, cv in fc.terms.items():
        tdeg, wslots, tangent_vars, kfold = 0, [], [], 0
        for idx, e in monomial_exponents(key):
            kfold += halves[idx] * e
            if idx == 0:
                tdeg = e
            elif idx <= tcount:
                tangent_vars += [idx - 1] * e
            else:
                wslots.append((idx - 1 - tcount, e))
        if tdeg == 4 and not wslots and not tangent_vars:
            if kfold % 2 != 0:
                raise ValueError("t^4 coefficient carries sqrt2; frame is inconsistent")
            t4_coeff = Fraction(cv, fc.den) * Fraction(2) ** (kfold // 2)
            continue
        if len(wslots) != 1 or wslots[0][1] != 1:
            continue
        widx = wslots[0][0]
        if tdeg == 1 and len(tangent_vars) == 2:
            p_terms[widx].append((monomial_key(*tangent_vars), cv, kfold))
        elif tdeg == 0 and len(tangent_vars) == 3:
            q_terms[widx].append((monomial_key(*tangent_vars), cv, kfold))
    if t4_coeff != 1:
        raise ValueError(f"expansion point is not on the +1 focal locus (t^4 coeff {t4_coeff})")
    return [rt2_poly(tcount, t, 8 * fc.den) for t in p_terms], [rt2_poly(tcount, t, 8 * fc.den) for t in q_terms]
