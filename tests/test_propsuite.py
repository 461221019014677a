import json
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest

import adhmkit.geometry as geom_mod
import adhmkit.hirz as hirz_mod
import adhmkit.plane as plane_mod
import adhmkit.propsuite as propsuite
from adhmkit.errors import DomainError
from adhmkit.hirz import validate_hirz
from adhmkit.linalg import DEFAULT_TOL, ToleranceConfig, proj_point
from adhmkit.plane import validate_plane
from adhmkit.propsuite import (
    PROPERTIES,
    GenConfig,
    PropertyResult,
    SuiteReport,
    _Ctx,
    gen_hirz_valid,
    gen_plane_valid,
    run_suite,
)


def test_generators_emit_valid_data_across_grid():
    for seed in (1, 2, 3):
        for c in (1, 2, 3):
            p = gen_plane_valid(GenConfig(seed=seed, c=c))
            assert validate_plane(p).passed
            for n in (1, 2):
                d = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
                assert validate_hirz(d).passed
                assert (d.n, d.c) == (n, c)


def _validator_filtered_plane(rng, c):
    """The plane generator when validate_plane chose its draws: redraw until it passes."""
    for _ in range(16):
        z = propsuite._distinct_scalars(rng, c)
        w = propsuite._complex_normal(rng, c)
        p = propsuite.random_well_conditioned(rng, c)
        p_inv = np.linalg.inv(p)
        e = propsuite._complex_normal(rng, c)
        d = plane_mod.plane_adhm(p @ np.diag(z) @ p_inv, p @ np.diag(w) @ p_inv, e)
        if validate_plane(d).passed:
            return d
    raise RuntimeError("rejection loop exhausted")


def test_generator_certifies_the_draws_the_validator_accepted():
    # the same triples from the same rng stream, so every generated point
    # (plane or hirz, whose draw starts with a plane triple) is unchanged
    grid = ([(c, seed) for c in range(1, 9) for seed in range(200)]
            + [(c, seed) for c in (12, 16, 24, 32) for seed in range(40)])
    for c, seed in grid:
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        a, b = propsuite._gen_plane(mine, c), _validator_filtered_plane(ref, c)
        assert mine.bit_generator.state == ref.bit_generator.state, (c, seed)
        assert all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                   for f in ("b1", "b2", "e")), (c, seed)


def test_generators_do_not_consult_the_code_under_test():
    # a rank cut this coarse fails every triple, so it must not reach the draws
    coarse = ToleranceConfig(rank_rel_tol=0.5)
    with mock.patch.object(plane_mod, "validate_plane", side_effect=AssertionError):
        d = gen_hirz_valid(GenConfig(seed=4, n=2, c=5))
        p = gen_plane_valid(GenConfig(seed=4, c=5))
        ctx = _Ctx(seed=1, max_n=2, max_c=5, samples=1, tol=coarse)
        assert ctx.hirz(2, 5, 4).A1.tobytes() == d.A1.tobytes()
        assert ctx.plane(5, 4).b1.tobytes() == p.b1.tobytes()


def test_generator_determinism():
    a = gen_hirz_valid(GenConfig(seed=9, n=2, c=2))
    b = gen_hirz_valid(GenConfig(seed=9, n=2, c=2))
    assert np.array_equal(a.A1, b.A1)
    assert all(np.array_equal(x, y) for x, y in zip(a.C, b.C))


def test_suite_small_scale_green_and_deterministic():
    r1 = run_suite(seed=5, max_n=2, max_c=2, samples=3)
    r2 = run_suite(seed=5, max_n=2, max_c=2, samples=3)
    assert r1.passed
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
    covered = {p["property"] for p in r1.to_json()["properties"]}
    assert covered == set(PROPERTIES)


def test_suite_seed_changes_cases_not_verdict():
    r1 = run_suite(seed=5, max_n=2, max_c=2, samples=2)
    r2 = run_suite(seed=6, max_n=2, max_c=2, samples=2)
    assert r1.passed and r2.passed


def test_passing_reports_of_different_seeds_differ():
    r1 = run_suite(seed=3, max_n=2, max_c=2, samples=2)
    r2 = run_suite(seed=2026, max_n=2, max_c=2, samples=2)
    assert r1.passed and r2.passed
    j1, j2 = r1.to_json(), r2.to_json()
    assert j1["properties"] == j2["properties"]
    assert json.dumps(j1, sort_keys=True) != json.dumps(j2, sort_keys=True)
    assert {k: j1[k] for k in ("seed", "max_n", "max_c", "samples")} == {
        "seed": 3, "max_n": 2, "max_c": 2, "samples": 2}


def test_name_filter_subsets():
    rep = run_suite(seed=5, max_n=2, max_c=2, samples=2, name_filter="sigma")
    names = {r.name for r in rep.results}
    assert names == {n for n in PROPERTIES if "sigma" in n}
    assert rep.passed


def test_unknown_filter_is_vacuous():
    rep = run_suite(seed=5, max_n=2, max_c=2, samples=2, name_filter="zzz_nothing")
    assert rep.results == ()
    assert rep.warning and "vacuous" in rep.warning


def test_zero_samples_warns_vacuous():
    rep = run_suite(seed=5, samples=0)
    assert rep.warning and "vacuous" in rep.warning
    assert all(r.cases == 0 for r in rep.results)
    assert rep.passed  # vacuously, but flagged by the warning


def test_bad_ranges_rejected():
    with pytest.raises(DomainError):
        run_suite(seed=5, max_n=0, max_c=2, samples=1)
    with pytest.raises(DomainError):
        run_suite(seed=5, max_n=2, max_c=2, samples=-1)
    # a bool seed ran as 1, a float one raised TypeError and a negative one
    # numpy's ValueError; GenConfig passed c = 0 and seed = -1 on to numpy
    for seed in (-1, True, 1.5):
        with pytest.raises(DomainError) as exc:
            run_suite(seed=seed, max_n=1, max_c=1, samples=0)
        assert str(exc.value) == f"run_suite: seed must be an integer >= 0, got {seed!r}"
    for fields, message in [({"seed": -1}, "seed must be an integer >= 0, got -1"),
                            ({"seed": True}, "seed must be an integer >= 0, got True"),
                            ({"seed": 1, "n": 0}, "n must be an integer in 1..64, got 0"),
                            ({"seed": 1, "n": 65}, "n must be an integer in 1..64, got 65"),
                            ({"seed": 1, "c": 0}, "c must be an integer >= 1, got 0"),
                            ({"seed": 1, "c": 2.0}, "c must be an integer >= 1, got 2.0")]:
        with pytest.raises(DomainError) as exc:
            GenConfig(**fields)
        assert str(exc.value) == "GenConfig: " + message


def test_failure_records_have_reproduction_data():
    # break transitions with the wrong twist power and check the report shape
    real = hirz_mod.transition_omega

    def wrong(cc, l, tol=None):
        moved = real(cc, l) if tol is None else real(cc, l, tol)
        return hirz_mod.chart_coords(moved.m, moved.n, moved.c,
                                     moved.B, 2.0 * moved.E, moved.e, moved.A2m)

    with mock.patch.object(hirz_mod, "transition_omega", wrong):
        rep = run_suite(seed=5, max_n=2, max_c=2, samples=2,
                        name_filter="hirz_glue_triangle")
    assert not rep.passed
    (result,) = rep.results
    assert result.failures
    rec = result.failures[0]
    for key in ("case", "n", "c", "seed", "detail"):
        assert key in rec
    payload = json.dumps(rep.to_json())
    assert "hirz_glue_triangle" in payload


def test_failure_records_are_capped():
    real = hirz_mod.transition_omega

    def wrong(cc, l, tol=None):
        moved = real(cc, l) if tol is None else real(cc, l, tol)
        return hirz_mod.chart_coords(moved.m, moved.n, moved.c,
                                     moved.B, 2.0 * moved.E, moved.e, moved.A2m)

    with mock.patch.object(hirz_mod, "transition_omega", wrong):
        rep = run_suite(seed=5, max_n=3, max_c=3, samples=30,
                        name_filter="hirz_glue_triangle")
    (result,) = rep.results
    assert len(result.failures) <= 10 < result.cases
    s = 416335653  # 5 * 1_000_003 + (crc32(name) & 0xFFFF) * 8191
    assert [(f["case"], f["n"], f["c"], f["seed"]) for f in result.failures] == [
        (0, 1, 1, s), (0, 1, 1, s),
        (1, 1, 2, s + 1), (1, 1, 2, s + 1), (1, 1, 2, s + 1),
        (2, 1, 3, s + 2), (2, 1, 3, s + 2), (2, 1, 3, s + 2), (2, 1, 3, s + 2),
        (3, 2, 1, s + 3),
    ]


def _counts(rep):
    return {r.name: r.cases for r in rep.results}


def test_case_counts_are_pinned():
    # every property walks `samples` cases of its stream, except those that
    # start at n = 2, which run none on a grid with max_n = 1
    rep = run_suite(seed=5, max_n=4, max_c=4, samples=20)
    assert _counts(rep) == {name: 20 for name in PROPERTIES}
    from_n2 = {"hirz_p1_negative_detection", "hirz_syst_rank"}
    rep = run_suite(seed=5, max_n=1, max_c=4, samples=20)
    assert _counts(rep) == {name: 0 if name in from_n2 else 20 for name in PROPERTIES}


def test_spectrum_pencil_property_sees_a_swapped_root_convention():
    # base roots read with [lam1 : lam2] swapped, and pushed into a chart
    # with the same swap: the spectrum comparison stays green at every
    # chart, but the roots are no longer zeros of det(lam2 A1 + lam1 A2)
    real_roots = geom_mod._chart_base_roots
    real_fibre = geom_mod._root_to_fibre_coordinate

    def swapped_roots(cc, tol):
        return tuple((proj_point(pt.lam2, pt.lam1), mult) for pt, mult in real_roots(cc, tol))

    def swapped_fibre(pt, ap):
        return real_fibre(proj_point(pt.lam2, pt.lam1), ap)

    with mock.patch.object(geom_mod, "_chart_base_roots", swapped_roots), \
         mock.patch.object(geom_mod, "_root_to_fibre_coordinate", swapped_fibre):
        rep = run_suite(seed=5, max_n=2, max_c=3, samples=12,
                        name_filter="geom_spectrum_pencil")
    (result,) = rep.results
    assert result.failures
    assert all("pencil determinant" in f["detail"] for f in result.failures)


# run_suite maps the selected properties over forked workers, one per CPU
# that os.sched_getaffinity allows; these pin the CPU count, so that the
# pool runs (or does not) whatever the host has


def _cpus(k):
    return mock.patch.object(propsuite.os, "sched_getaffinity", create=True,
                             return_value=set(range(k)))


def _serial_json(seed, max_n, max_c, samples):
    ctx = _Ctx(seed=seed, max_n=max_n, max_c=max_c, samples=samples, tol=DEFAULT_TOL)
    results = []
    for name in sorted(PROPERTIES):
        cases, failures = PROPERTIES[name](ctx)
        results.append(PropertyResult(name=name, cases=cases, failures=tuple(failures)))
    rep = SuiteReport(results=tuple(results), seed=seed, max_n=max_n, max_c=max_c,
                      samples=samples)
    return json.dumps(rep.to_json(), sort_keys=True)


@pytest.mark.parametrize("seed", [1, 20261017])
def test_parallel_report_equals_serial_reference(seed):
    want = _serial_json(seed, 3, 4, 20)
    with _cpus(2):
        assert json.dumps(run_suite(seed, 3, 4, 20).to_json(), sort_keys=True) == want
    with _cpus(1):
        assert json.dumps(run_suite(seed, 3, 4, 20).to_json(), sort_keys=True) == want
    assert multiprocessing.active_children() == []


def test_workers_see_a_patched_mutant():
    # criterion 12's wrong twist power, with several properties selected so
    # that they run in forked workers, which inherit the patch
    real = plane_mod.transition_plane

    def twist_off_by_one(d, m, l, n, c_base, tol=None):
        if tol is None:
            return real(d, m, l, n + 1, c_base)
        return real(d, m, l, n + 1, c_base, tol)

    with _cpus(2), mock.patch.object(plane_mod, "transition_plane", twist_off_by_one):
        rep = run_suite(seed=2026, max_n=2, max_c=3, samples=12, name_filter="hirz_")
    assert len(rep.results) > 1
    failed = {r.name for r in rep.results if not r.passed}
    assert "hirz_glue_triangle" in failed
    assert multiprocessing.active_children() == []


def test_raising_property_surfaces_its_exception_and_leaves_no_worker():
    def broken(cc, l, tol=None):
        raise RuntimeError("transition_omega broke")

    with _cpus(2), mock.patch.object(hirz_mod, "transition_omega", broken):
        with pytest.raises(RuntimeError, match="transition_omega broke"):
            run_suite(seed=5, max_n=2, max_c=2, samples=2, name_filter="hirz_")
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_in_process():
    # a counter in this process sees the library calls only when the suite
    # runs here; perfbench's traced per-op counts rely on it (taskset -c 0)
    with _cpus(1), mock.patch.object(hirz_mod, "transition_omega",
                                     wraps=hirz_mod.transition_omega) as spy:
        rep = run_suite(seed=5, max_n=2, max_c=2, samples=2, name_filter="hirz_")
    assert rep.passed and len(rep.results) > 1
    assert spy.call_count > 0
    with _cpus(2), mock.patch.object(hirz_mod, "transition_omega",
                                     wraps=hirz_mod.transition_omega) as spy:
        assert run_suite(seed=5, max_n=2, max_c=2, samples=2, name_filter="hirz_").passed
    assert spy.call_count == 0


def test_no_affinity_call_runs_in_process(monkeypatch):
    # platforms without os.sched_getaffinity run the suite in this process
    monkeypatch.delattr(propsuite.os, "sched_getaffinity", raising=False)
    with mock.patch.object(hirz_mod, "transition_omega",
                           wraps=hirz_mod.transition_omega) as spy:
        assert run_suite(seed=5, max_n=2, max_c=2, samples=2, name_filter="hirz_").passed
    assert spy.call_count > 0
