import json
import math

import numpy as np
import pytest

from certifem import (
    MissingNormMetadata,
    NotNonBluntError,
    SourceTerm,
    StrategyInapplicableError,
    build_fh,
    build_mesh,
    certify,
    certify_closed_form_2d,
    generate_fan_refined,
    inscribed_regular_polygon,
    poincare_bound,
    registry,
    solve_poisson,
)
from certifem.estimator import _guard
from certifem.geometry import _BLOCK
from certifem.interp_constants import NONBLUNT_COEFF
from oracles import structured_square_mesh

SQUARE = registry()["square2d"]
DISK = registry()["disk2d"]


def test_poincare_bound_values():
    assert poincare_bound(2, 2.0) == pytest.approx(math.sqrt(2) / math.pi, rel=1e-14)
    assert poincare_bound(2, 2.0) == pytest.approx(0.4501582, abs=1e-7)
    assert poincare_bound(2, 0.0) == 0.0
    for dim in (3, 4):
        with pytest.raises(ValueError, match=f"unsupported dimension {dim}"):
            poincare_bound(dim, 1.0)


def test_certify_square_exact_mode():
    mesh = structured_square_mesh(8)
    cb = certify(SQUARE.domain, mesh, SQUARE.f, "exact", "nonblunt")
    assert cb.term_boundary == 0.0
    assert cb.term_source == 0.0
    assert cb.total == cb.term_fem
    assert cb.total == cb.term_boundary + cb.term_source + cb.term_fem
    assert cb.metadata["gap"] == 0.0
    assert cb.metadata["strategy"] == "nonblunt"
    assert cb.metadata["fh_mode"] == "exact"
    assert cb.metadata["guard_factor"] == pytest.approx(1.0, abs=1e-11)


def test_certify_disk_reproduces_prediction_form():
    m = 50
    poly = inscribed_regular_polygon(DISK.domain, m)
    mesh = generate_fan_refined(poly, 3)
    cb = certify(DISK.domain, mesh, DISK.f, "exact", "elementwise")
    assert cb.term_source == 0.0
    delta = 2 * math.sin(math.pi / (2 * m)) ** 2
    assert cb.term_boundary == pytest.approx(math.sqrt(math.pi) * delta, rel=1e-12)
    # fem term uses |meshed region|^(1/2) <= sqrt(pi), so the total is below
    # the closed-form prediction sqrt(pi) (A_m^2 + 2 sin^2(pi/2m))
    from certifem.interp_constants import _kobayashi_batch_2d
    from oracles import element_metrics

    em = element_metrics(mesh)
    a_m = float(_kobayashi_batch_2d(em.edge_sq, em.measures).max())
    prediction = math.sqrt(math.pi) * (a_m**2 + delta)
    assert cb.term_boundary + cb.term_fem <= prediction + 1e-12


def test_certify_linear_in_source_scale():
    mesh = structured_square_mesh(4)
    base = certify(SQUARE.domain, mesh, SQUARE.f, "nodal", "nonblunt")
    scaled_f = SourceTerm(
        evaluate=lambda p: 3.0 * SQUARE.f.evaluate(p),
        sup_norm=3.0 * SQUARE.f.sup_norm,
        grad_sup_norm=3.0 * SQUARE.f.grad_sup_norm,
        h2_seminorm=3.0 * SQUARE.f.h2_seminorm,
        l2_norm=3.0 * SQUARE.f.l2_norm,
    )
    scaled = certify(SQUARE.domain, mesh, scaled_f, "nodal", "nonblunt")
    assert scaled.term_source == pytest.approx(3.0 * base.term_source, rel=1e-12)
    assert scaled.term_fem == pytest.approx(3.0 * base.term_fem, rel=1e-12)
    assert scaled.total == pytest.approx(3.0 * base.total, rel=1e-12)


def test_strategy_dominance():
    mesh = structured_square_mesh(8)
    ew = certify(SQUARE.domain, mesh, SQUARE.f, "nodal", "elementwise")
    for strat in ("circumradius", "minangle", "nonblunt"):
        other = certify(SQUARE.domain, mesh, SQUARE.f, "nodal", strat)
        assert ew.total <= other.total * (1 + 1e-12)


def test_term_fem_monotone_under_refinement():
    disk_poly = inscribed_regular_polygon(DISK.domain, 12)
    prev = {"nonblunt": math.inf, "minangle": math.inf}
    for k in (0, 1, 2):
        mesh = generate_fan_refined(disk_poly, k)
        for strat in prev:
            cb = certify(DISK.domain, mesh, DISK.f, "exact", strat)
            assert cb.term_fem <= prev[strat]
            prev[strat] = cb.term_fem


def test_strategy_errors():
    poly3 = inscribed_regular_polygon(DISK.domain, 3)
    blunt_mesh = generate_fan_refined(poly3, 0)
    with pytest.raises(StrategyInapplicableError, match="element 0"):
        certify(DISK.domain, blunt_mesh, DISK.f, "exact", "nonblunt")
    with pytest.raises(StrategyInapplicableError, match="unknown strategy 'regularity'"):
        certify(DISK.domain, blunt_mesh, DISK.f, "exact", "regularity")
    with pytest.raises(StrategyInapplicableError):
        certify(DISK.domain, blunt_mesh, DISK.f, "exact", "nope")


def test_certify_missing_norms():
    mesh = structured_square_mesh(4)
    bare = SourceTerm(evaluate=lambda p: np.asarray(p)[..., 0], sup_norm=1.0)
    with pytest.raises(MissingNormMetadata):
        certify(SQUARE.domain, mesh, bare, "barycentric", "nonblunt")
    with pytest.raises(MissingNormMetadata):
        certify(SQUARE.domain, mesh, bare, "nodal", "nonblunt")


def _nonblunt_cases():
    """The unit square at n = 4, 8, 16 and the m=12 disk fans at k = 0..3,
    whose children are all similar to a triangle with base angles
    pi/2 - pi/12: every mesh is non-obtuse."""
    poly = inscribed_regular_polygon(DISK.domain, 12)
    return [(SQUARE, structured_square_mesh(n)) for n in (4, 8, 16)] + [
        (DISK, generate_fan_refined(poly, k)) for k in range(4)
    ]


def test_closed_form_dominates_sharper_route():
    for exact, mesh in _nonblunt_cases():
        closed = certify_closed_form_2d(exact.domain, mesh, exact.f)
        thm = certify(exact.domain, mesh, exact.f, "nodal", "nonblunt")
        assert closed >= thm.total


def test_closed_form_is_certify_terms_with_f_norm():
    """The closed form is the nodal non-obtuse report's boundary and source
    terms plus its fem term with ||f_h|| replaced by ||f|| + ||f - f_h||,
    bit for bit."""
    for exact, mesh in _nonblunt_cases():
        thm = certify(exact.domain, mesh, exact.f, "nodal", "nonblunt")
        a_h, pert = thm.metadata["a_h"], thm.metadata["fh_perturbation_bound"]
        l2 = exact.f.l2_norm
        if l2 is None:
            l2 = build_fh(mesh, exact.f, "exact").l2_norm()
        want = thm.term_boundary + thm.term_source + _guard(a_h * a_h * (l2 + pert), 3)
        assert certify_closed_form_2d(exact.domain, mesh, exact.f) == want


def test_closed_form_errors():
    poly3 = inscribed_regular_polygon(DISK.domain, 3)
    blunt_mesh = generate_fan_refined(poly3, 0)
    with pytest.raises(NotNonBluntError):
        certify_closed_form_2d(DISK.domain, blunt_mesh, DISK.f)
    mesh = structured_square_mesh(4)
    bare = SourceTerm(evaluate=lambda p: np.asarray(p)[..., 0], sup_norm=1.0)
    with pytest.raises(MissingNormMetadata):
        certify_closed_form_2d(SQUARE.domain, mesh, bare)


def test_closed_form_zero_gap_linear_f():
    # linear f: |f|_2 = 0, delta = 0: only the h^2 |f|_0 term remains
    mesh = structured_square_mesh(4)
    f_lin = SourceTerm(
        evaluate=lambda p: np.asarray(p)[..., 0],
        sup_norm=1.0,
        grad_sup_norm=1.0,
        h2_seminorm=0.0,
        l2_norm=1.0 / math.sqrt(3.0),
    )
    got = certify_closed_form_2d(SQUARE.domain, mesh, f_lin)
    h = math.sqrt(2) / 4
    assert got == pytest.approx(NONBLUNT_COEFF**2 * h * h / math.sqrt(3.0), rel=1e-10)


def test_closed_form_approaches_gap_term_under_refinement():
    # fixed polygon, h -> 0: everything but the boundary-gap term vanishes
    poly = inscribed_regular_polygon(DISK.domain, 12)
    gap_term = 0.5 * 2.0 * math.sqrt(math.pi) * poly.gap * 1.0
    residuals = []
    for k in (0, 1, 2, 3, 4):
        mesh = generate_fan_refined(poly, k)
        total = certify_closed_form_2d(DISK.domain, mesh, DISK.f)
        assert total > gap_term
        residuals.append(total - gap_term)
    # the h-dependent part decays like h^2 (factor ~4 per level)
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert residuals[-2] / residuals[-1] == pytest.approx(4.0, rel=0.05)
    assert residuals[-1] <= 0.025 * gap_term


def test_certified_bound_json_shape():
    mesh = structured_square_mesh(4)
    cb = certify(SQUARE.domain, mesh, SQUARE.f, "exact", "elementwise")
    obj = json.loads(cb.to_json())
    assert set(obj) == {"total", "terms", "metadata"}
    assert set(obj["terms"]) == {"boundary", "source", "fem"}
    assert obj["total"] == cb.total  # repr round trip is exact
    assert cb.to_json() == cb.to_json()


@pytest.mark.parametrize("mode", ["exact", "barycentric", "nodal"])
def test_certify_reuses_the_solve_fh(mode):
    poly = inscribed_regular_polygon(DISK.domain, 12)
    mesh = generate_fan_refined(poly, 2)
    _, fh = solve_poisson(mesh, DISK.f, mode)
    with_fh = certify(DISK.domain, mesh, DISK.f, mode, fh=fh)
    assert with_fh.to_json() == certify(DISK.domain, mesh, DISK.f, mode).to_json()


def test_certify_rejects_fh_of_another_problem():
    poly = inscribed_regular_polygon(DISK.domain, 12)
    mesh = generate_fan_refined(poly, 1)
    twin = generate_fan_refined(poly, 1)  # equal arrays, another mesh
    wrong = [
        build_fh(twin, DISK.f, "nodal"),
        build_fh(mesh, SourceTerm.constant(1.0), "nodal"),
        build_fh(mesh, DISK.f, "barycentric"),
    ]
    for fh in wrong:
        with pytest.raises(ValueError, match="another mesh, source or f_h mode"):
            certify(DISK.domain, mesh, DISK.f, "nodal", fh=fh)


@pytest.mark.parametrize("position", [0, _BLOCK + 7, -1])
def test_nonblunt_refusal_names_the_widest_element_in_any_block(position):
    """The refusal of the non-obtuse strategy names the first element with
    the widest angle, as the whole-array argmax does, wherever the blocks of
    elements put it; the widest angle recurs, so ties are taken in order."""
    import re

    from oracles import element_metrics
    from test_mesh import _jittered_square

    jittered = _jittered_square(48, seed=4)
    widest = int(np.argmax(element_metrics(jittered).max_angle))
    mesh = build_mesh(2, jittered.nodes, np.roll(jittered.elements, position % jittered.element_count - widest, axis=0))
    max_angle = element_metrics(mesh).max_angle
    expected = f"element {int(np.argmax(max_angle))} has max angle {float(max_angle.max()):.6f} rad"
    with pytest.raises(StrategyInapplicableError, match=re.escape(expected)):
        certify(SQUARE.domain, mesh, SQUARE.f, "exact", "nonblunt")
    assert mesh.element_count > _BLOCK and np.count_nonzero(max_angle == max_angle.max()) > 1
