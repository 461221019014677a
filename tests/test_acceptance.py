"""Acceptance gate: twelve end-to-end guarantees, one test (and one summary
line) per criterion, each at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion verdict
lines; add ``-s`` to also see the measured residuals.
"""

import math
from unittest import mock

import numpy as np
import pytest

import adhmkit.hirz as hirz_mod
import adhmkit.plane as plane_mod
from adhmkit.errors import DomainError, IndeterminateError
from adhmkit.geometry import (
    base_support,
    p1_to_tot,
    spectrum_vs_pencil_check,
    tot_point,
    ytilde_point,
    ytilde_to_p1,
)
from adhmkit.hirz import (
    act_gl2,
    canonicalize,
    chart_set,
    from_chart,
    jacobian_nullity,
    orbit_equal,
    plane_part,
    syst_rank,
    to_chart,
    transition_omega,
    validate_hirz,
    validate_p1,
    validate_p3,
    validate_p3_direct,
)
from adhmkit.linalg import proj_distance, proj_point, random_well_conditioned, rel_err
from adhmkit.plane import from_points, transition_plane, validate_plane
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid, run_suite
from adhmkit.sigma import angle_pair, sigma_matrix

SEED = 20260815


def _announce(num, ok, desc):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def _grid(count, max_n, max_c, salt, min_n=1):
    cells = [(n, c) for n in range(min_n, max_n + 1) for c in range(1, max_c + 1)]
    return [(i,) + cells[i % len(cells)] + (SEED + salt * 100_000 + i,)
            for i in range(count)]


def _points(count, max_n, max_c, salt, min_n=1):
    return [gen_hirz_valid(GenConfig(seed=s, n=n, c=c))
            for _, n, c, s in _grid(count, max_n, max_c, salt, min_n)]


def _gauges(rng, c):
    return random_well_conditioned(rng, c), random_well_conditioned(rng, c)


def test_criterion_01_weight_matrix_identities():
    for cb in (1, 2, 5, 8):
        for h in range(9):
            assert np.array_equal(sigma_matrix(h, 0, cb).entries, np.eye(h + 1))
    worst_law = 0.0
    for cb in (1, 2, 5, 8):
        for h in range(1, 9):
            mats = {m: sigma_matrix(h, m, cb).entries
                    for m in range(-(cb + 1), cb + 2)}
            for m in mats:
                for l in mats:
                    err = float(np.abs(mats[m] @ mats[l]
                                       - sigma_matrix(h, m + l, cb).entries).max())
                    worst_law = max(worst_law, err)
    worst_def = 0.0
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        h = int(rng.integers(1, 9))
        cb = int(rng.integers(1, 9))
        m = int(rng.integers(-cb, cb + 1))
        ap = angle_pair(cb, m)
        sg = sigma_matrix(h, m, cb).entries
        mu1, mu2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        for p in range(h + 1):
            lhs = ((ap.sin_val * mu1 + ap.cos_val * mu2) ** p
                   * (ap.cos_val * mu1 - ap.sin_val * mu2) ** (h - p))
            rhs = sum(sg[p, q] * mu2 ** q * mu1 ** (h - q) for q in range(h + 1))
            worst_def = max(worst_def, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = worst_law <= 1e-10 and worst_def <= 1e-10
    _announce(1, ok, f"weight-matrix group law and action identities "
                     f"(law {worst_law:.2e}, action {worst_def:.2e}, bound 1e-10)")


def test_criterion_02_chart_roundtrip_and_equivariance():
    worst = 0.0
    count = 0
    rng = np.random.default_rng(SEED + 2)
    for d in _points(100, 3, 6, 2):
        phi1, phi2 = _gauges(rng, d.c)
        moved = act_gl2(d, phi1, phi2)
        inv1 = np.linalg.inv(phi1)
        for m in chart_set(d):
            cc = to_chart(d, m)
            back = from_chart(m, plane_part(cc), cc.A2m, d.n)
            err = max(rel_err(back.A1, d.A1), rel_err(back.A2, d.A2),
                      rel_err(back.e, d.e),
                      max(rel_err(x, y) for x, y in zip(back.C, d.C)))
            ccm = to_chart(moved, m)
            err = max(err,
                      rel_err(ccm.B, phi1 @ cc.B @ inv1),
                      rel_err(ccm.E, phi1 @ cc.E @ inv1),
                      rel_err(ccm.e, cc.e @ inv1),
                      rel_err(ccm.A2m, phi2 @ cc.A2m @ inv1))
            worst = max(worst, err)
            count += 1
    ok = count >= 100 and worst <= 1e-9
    _announce(2, ok, f"chart round trip and gauge equivariance over {count} "
                     f"chart visits (worst {worst:.2e}, bound 1e-9)")


def test_criterion_03_plane_overlap_cocycle():
    worst = 0.0
    checked = 0
    for i, n, c, seed in _grid(100, 4, 5, 3):
        d = gen_plane_valid(GenConfig(seed=seed, c=c))
        rng = np.random.default_rng(seed + 1)
        m, l, k = (int(v) for v in rng.integers(0, c + 1, size=3))
        try:
            same = transition_plane(d, m, m, n, c)
            fwd = transition_plane(d, m, l, n, c)
            back = transition_plane(fwd, l, m, n, c)
            two = transition_plane(fwd, l, k, n, c)
            one = transition_plane(d, m, k, n, c)
        except DomainError:
            continue  # that draw left the overlap; skip, do not count
        worst = max(worst,
                    rel_err(same.b1, d.b1), rel_err(same.b2, d.b2),
                    rel_err(back.b1, d.b1), rel_err(back.b2, d.b2),
                    rel_err(two.b1, one.b1), rel_err(two.b2, one.b2))
        checked += 1
    ok = checked >= 60 and worst <= 1e-8
    _announce(3, ok, f"overlap maps satisfy identity/inverse/cocycle on {checked} "
                     f"triples (worst {worst:.2e}, bound 1e-8)")


def test_criterion_04_glue_triangle():
    worst = 0.0
    visits = 0
    for d in _points(100, 3, 6, 4):
        charts = chart_set(d)
        cc = to_chart(d, charts[0])
        for l in charts:
            via = transition_omega(cc, l)
            direct = to_chart(d, l)
            worst = max(worst, rel_err(via.B, direct.B), rel_err(via.E, direct.E),
                        rel_err(via.e, direct.e), rel_err(via.A2m, direct.A2m))
            visits += 1
    ok = visits >= 100 and worst <= 1e-8
    _announce(4, ok, f"transition through coordinates agrees with direct chart "
                     f"conversion at {visits} overlaps (worst {worst:.2e}, bound 1e-8)")


def test_criterion_05_chart_commutator():
    worst = 0.0
    for d in _points(100, 3, 6, 5):
        for m in chart_set(d):
            cc = to_chart(d, m)
            comm = float(np.linalg.norm(cc.B @ cc.E - cc.E @ cc.B))
            scale = float(np.linalg.norm(cc.B) * np.linalg.norm(cc.E))
            worst = max(worst, comm / max(scale, 1e-30))
    ok = worst <= 1e-9
    _announce(5, ok, f"[B, E] vanishes relative to operator scale "
                     f"(worst {worst:.2e}, bound 1e-9)")


def test_criterion_06_costability_two_methods_agree():
    indeterminate = 0
    conflicts = 0
    for d in _points(200, 3, 5, 6):
        chart_v = validate_p3(d).check("costability").verdict
        direct_v = validate_p3_direct(d).check("costability_direct").verdict
        assert chart_v == "pass"
        if direct_v == "indeterminate":
            indeterminate += 1
        elif direct_v != "pass":
            conflicts += 1
    rng = np.random.default_rng(SEED + 6)
    for i in range(20):
        c = 2 + i % 3
        n = 1 + i % 3
        z = np.sort(rng.normal(size=c)) + 1j * rng.normal(size=c) * 0.1
        w = rng.normal(size=c) + 1j * rng.normal(size=c)
        e = np.ones(c, dtype=complex)
        e[i % c] = 0.0  # kill co-stability at exactly one support root
        d = hirz_mod._assemble_from_chart(0, np.diag(z), np.diag(w), e,
                                          np.eye(c, dtype=complex), np.eye(c), n, c)
        chart_v = validate_p3(d).check("costability").verdict
        direct_v = validate_p3_direct(d).check("costability_direct").verdict
        if chart_v != "fail" or direct_v != "fail":
            conflicts += 1
    ok = conflicts == 0
    _announce(6, ok, f"chart and root-by-root co-stability agree on 200 valid + "
                     f"20 broken points ({conflicts} conflicts, "
                     f"{indeterminate}/200 direct indeterminates)")


def test_criterion_07_intertwining_system_rank():
    ranks_ok = True
    for n in (2, 3, 4):
        for c in (1, 2, 3, 4, 5):
            d = gen_hirz_valid(GenConfig(seed=SEED + 7000 + 10 * n + c, n=n, c=c))
            ranks_ok = ranks_ok and syst_rank(d.A1, d.A2, n) == (n - 1) * c * c
    worst = 0.0
    for d in _points(40, 4, 4, 7):
        m = chart_set(d)[0]
        cc = to_chart(d, m)
        rebuilt = from_chart(m, plane_part(cc), cc.A2m, d.n)
        rep = validate_p1(rebuilt)
        worst = max(worst, max((chk.residual or 0.0) for chk in rep.checks))
    ok = ranks_ok and worst <= 1e-9
    _announce(7, ok, f"stacked intertwining system has full rank (n-1)c^2 and "
                     f"chart reconstruction satisfies both families "
                     f"(worst residual {worst:.2e}, bound 1e-9)")


def test_criterion_08_tangent_dimension():
    ok = True
    detail = []
    for n in (1, 2, 3):
        for c in (1, 2, 3):
            d = gen_hirz_valid(GenConfig(seed=SEED + 8000 + 10 * n + c, n=n, c=c))
            try:
                nullity = jacobian_nullity(d)
            except IndeterminateError:
                ok = False
                detail.append(f"(n={n},c={c}: no spectral gap)")
                continue
            if nullity != 2 * c * c + 2 * c:
                ok = False
                detail.append(f"(n={n},c={c}: nullity {nullity})")
    _announce(8, ok, "linearized equations have nullity 2c^2+2c, i.e. orbit "
                     "dimension 2c after the 2c^2 gauge directions "
                     + (" ".join(detail) if detail else "(gap >= 1e3 at every point)"))


def test_criterion_09_support_matches_spectrum():
    count = 0
    for d in _points(100, 3, 5, 9):
        for m in chart_set(d):
            assert spectrum_vs_pencil_check(d, m)
            count += 1
    worst = 0.0
    zs = (1.0 + 0j, 2.0 + 0j)
    for m in range(3):
        d = from_chart(m, from_points(((zs[0], 3.0), (zs[1], 4.0))),
                       np.eye(2, dtype=complex), 1)
        ap = angle_pair(2, m)
        roots = base_support(d).base
        for z in zs:
            want = proj_point(-(ap.sin_val + z * ap.cos_val),
                              ap.cos_val - z * ap.sin_val)
            worst = max(worst, min(proj_distance(pt, want) for pt, _ in roots))
    ok = count >= 100 and worst <= 1e-7
    _announce(9, ok, f"base support equals fibre spectrum at {count} chart visits; "
                     f"frozen two-point supports hit the angle-map images "
                     f"(worst {worst:.2e}, bound 1e-7)")


def test_criterion_10_single_point_pipeline():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 4
        y1, y2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        x1 = rng.normal() + 1j * rng.normal()
        if abs(y1) >= abs(y2):
            x2 = x1 * y1 ** (n - 1) / y2 ** (n - 1)
        else:
            x1, x2 = x1 * y2 ** (n - 1) / y1 ** (n - 1), x1
        p = ytilde_point(y1, y2, x1, x2, n)
        d = ytilde_to_p1(p, n)
        assert validate_hirz(d).passed
        t = p1_to_tot(d)
        worst = max(worst,
                    abs(t.u1 - p.x1 * p.y2) / max(abs(t.u1), 1e-30),
                    abs(t.u2 - p.x2 * p.y1) / max(abs(t.u2), 1e-30),
                    abs(t.u1 * t.y1 ** n - t.u2 * t.y2 ** n)
                    / max(abs(t.u1 * t.y1 ** n), 1e-30))
        g1 = complex(rng.normal() + 1j * rng.normal())
        g2 = complex(rng.normal() + 1j * rng.normal())
        moved = act_gl2(d, [[g1]], [[g2]])
        tm = p1_to_tot(moved)
        worst = max(worst, abs(tm.u1 - t.u1) / max(abs(t.u1), 1e-30),
                    abs(tm.u2 - t.u2) / max(abs(t.u2), 1e-30))
        assert proj_distance(proj_point(tm.y1, tm.y2), proj_point(t.y1, t.y2)) < 1e-10
        assert orbit_equal(d, moved)
    ok = worst <= 1e-12
    _announce(10, ok, f"single-point lift/projection identities over 100 draws, "
                      f"gauge-invariant fibre data (worst {worst:.2e}, bound 1e-12)")


def test_criterion_11_orbit_calculus():
    ok = True
    rng = np.random.default_rng(SEED + 11)
    pts = _points(30, 3, 4, 11)
    for d in pts:
        ok = ok and orbit_equal(d, d)
        moved = act_gl2(d, *_gauges(rng, d.c))
        ok = ok and orbit_equal(d, moved)
        can, m = canonicalize(d)
        again, m2 = canonicalize(can)
        idem = max(rel_err(can.A1, again.A1), rel_err(can.A2, again.A2),
                   rel_err(can.e, again.e),
                   max(rel_err(x, y) for x, y in zip(can.C, again.C)))
        ok = ok and m == m2 and idem <= 1e-8
    by_shape = {}
    for d in pts:
        by_shape.setdefault((d.n, d.c), []).append(d)
    separated = 0
    for group in by_shape.values():
        for a, b in zip(group, group[1:]):
            if not orbit_equal(a, b):
                separated += 1
    ok = ok and separated >= len(by_shape) // 2
    _announce(11, ok, f"orbit equality is reflexive, gauge-blind, and separates "
                      f"distinct configurations ({separated} separated pairs); "
                      f"canonical form is idempotent")


def test_criterion_12_mutation_sensitivity():
    control_a = run_suite(seed=SEED, max_n=2, max_c=3, samples=12,
                          name_filter="hirz_glue_triangle")
    control_b = run_suite(seed=SEED, max_n=2, max_c=3, samples=12,
                          name_filter="hirz_p1_negative_detection")
    assert control_a.passed and control_b.passed

    real_transition = plane_mod.transition_plane

    def twist_off_by_one(d, m, l, n, c_base, tol=None):
        if tol is None:
            return real_transition(d, m, l, n + 1, c_base)
        return real_transition(d, m, l, n + 1, c_base, tol)

    with mock.patch.object(plane_mod, "transition_plane", twist_off_by_one):
        mutant_a = run_suite(seed=SEED, max_n=2, max_c=3, samples=12,
                             name_filter="hirz_glue_triangle")

    real_p1 = hirz_mod.validate_p1

    def drops_right_family(d, tol=None):
        rep = real_p1(d) if tol is None else real_p1(d, tol)
        kept = tuple(chk for chk in rep.checks if "right" not in chk.name)
        return type(rep)(checks=kept)

    with mock.patch.object(hirz_mod, "validate_p1", drops_right_family):
        mutant_b = run_suite(seed=SEED, max_n=2, max_c=3, samples=12,
                             name_filter="hirz_p1_negative_detection")

    ok = (not mutant_a.passed) and (not mutant_b.passed)
    _announce(12, ok, "property suite detects a wrong twist power in transitions "
                      f"({sum(len(r.failures) for r in mutant_a.results)} failures) "
                      "and a validator that ignores the right family "
                      f"({sum(len(r.failures) for r in mutant_b.results)} failures)")
