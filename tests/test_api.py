"""The package's public names, and the library error on bad input."""

import math

import numpy as np
import pytest

import elastodtn
from elastodtn import dtn, mesh, specfun, verify
from elastodtn.errors import ElastoDtnError, InvalidParameter


def test_every_public_name_resolves():
    missing = [name for name in elastodtn.__all__ if not hasattr(elastodtn, name)]
    assert missing == []
    assert len(set(elastodtn.__all__)) == len(elastodtn.__all__)


def test_star_import():
    namespace = {}
    exec("from elastodtn import *", namespace)
    assert set(elastodtn.__all__) <= set(namespace)


BAD_INPUTS = {
    "dtn.mode_weights": lambda: dtn.mode_weights(np.array([0.0, 1.0, 1.0, 2.0]), np.arange(3)),
    "dtn.fourier_coefficients beyond one turn": lambda: dtn.fourier_coefficients(
        np.array([0.0, 1.0, 7.0]), np.ones((3, 2)), 1),
    "dtn.trace_l2_sq beyond one turn": lambda: dtn.trace_l2_sq(
        np.array([0.0, 1.0, 7.0]), np.ones((3, 2)), 1.0),
    "dtn.truncation_error N fractional": lambda: dtn.truncation_error(2.5, 0.5, 1.0, 1.0),
    "dtn.truncation_error N negative": lambda: dtn.truncation_error(-1, 0.5, 1.0, 1.0),
    "dtn.truncation_error norm nan": lambda: dtn.truncation_error(4, 0.5, 1.0, math.nan),
    "dtn.truncation_error norm inf": lambda: dtn.truncation_error(4, 0.5, 1.0, math.inf),
    "specfun.bessel_jy": lambda: specfun.bessel_jy(-1, 1.0),
    "specfun.bessel_jy inf": lambda: specfun.bessel_jy(3, math.inf),
    "specfun.bessel_jy nan": lambda: specfun.bessel_jy(3, math.nan),
    "specfun.hankel01 inf": lambda: specfun.hankel01([1.0, math.inf]),
    "specfun.hankel01 nan": lambda: specfun.hankel01(np.array([math.nan, 2.0])),
    "specfun.mode_scalar_arrays": lambda: specfun.mode_scalar_arrays(
        [3], math.pi, math.pi / 2, 1.0),
    "specfun.mode_scalar_arrays negative order": lambda: specfun.mode_scalar_arrays(
        [5, -2], math.pi / 2, math.pi, 1.0),
    "specfun.hankel_ratio_gap": lambda: specfun.hankel_ratio_gap([10], 1.0, 2.0, 1.0, 0.5),
    "specfun.hankel_ratio_gap negative order": lambda: specfun.hankel_ratio_gap(
        [5, -2], 1.0, 2.0, 0.5, 1.0),
    "specfun.hankel_ratio_gap inf": lambda: specfun.hankel_ratio_gap([3], 1.0, 2.0, 0.5, math.inf),
    "ProblemConfig omega inf": lambda: elastodtn.example1_config(omega=math.inf),
    "ProblemConfig mu inf": lambda: elastodtn.example1_config(mu=math.inf),
    "ProblemConfig R inf": lambda: elastodtn.example1_config(R=math.inf),
    "ProblemConfig tolerance nan": lambda: elastodtn.example1_config(tolerance=math.nan),
    "ProblemConfig tolerance inf": lambda: elastodtn.example1_config(tolerance=math.inf),
    "ProblemConfig tolerance negative": lambda: elastodtn.example1_config(tolerance=-1.0),
    "ProblemConfig N fractional": lambda: elastodtn.example1_config(N=2.5),
    "ProblemConfig N bool": lambda: elastodtn.example1_config(N=True),
    "ProblemConfig N None": lambda: elastodtn.example1_config(N=None),
    "ProblemConfig N negative": lambda: elastodtn.example1_config(N=-1),
    "ProblemConfig N above the cap": lambda: elastodtn.example1_config(N=1025),
    "ProblemConfig max_iters fractional": lambda: elastodtn.example1_config(max_iters=1.5),
    "ProblemConfig max_iters bool": lambda: elastodtn.example1_config(max_iters=True),
    "ProblemConfig max_iters nan": lambda: elastodtn.example1_config(max_iters=math.nan),
    "ProblemConfig max_iters inf": lambda: elastodtn.example1_config(max_iters=math.inf),
    "uniform_solve rounds fractional": lambda: elastodtn.uniform_solve(
        elastodtn.example1_config(), elastodtn.example1_mesh(16, 1), 0.5),
    "uniform_solve rounds bool": lambda: elastodtn.uniform_solve(
        elastodtn.example1_config(), elastodtn.example1_mesh(16, 1), True),
    "dtn.build_spectrum omega 1e104": lambda: dtn.build_spectrum(
        elastodtn.example1_config(omega=1e104)),
    "dtn.build_spectrum omega 1e-160": lambda: dtn.build_spectrum(
        elastodtn.example1_config(omega=1e-160)),
    "specfun.hankel01 below the domain": lambda: specfun.hankel01(1e-301),
    "IncidentWave direction zero": lambda: elastodtn.IncidentWave(direction=(0.0, 0.0)),
    "IncidentWave direction nan": lambda: elastodtn.IncidentWave(direction=(math.nan, 1.0)),
    "IncidentWave direction inf": lambda: elastodtn.IncidentWave(direction=(math.inf, 0.0)),
    "mesh.generate_annulus segments": lambda: mesh.generate_annulus(0.5, 1.0, 4, 1),
    "mesh.generate_annulus layers": lambda: mesh.generate_annulus(0.5, 1.0, 16, 0),
    "mesh.generate_annulus segments fractional": lambda: mesh.generate_annulus(
        0.5, 1.0, 16.5, 1),
    "mesh.generate_annulus layers fractional": lambda: mesh.generate_annulus(0.5, 1.0, 16, 1.5),
    "mesh.generate_annulus segments nan": lambda: mesh.generate_annulus(0.5, 1.0, math.nan, 1),
    "mesh.generate_annulus layers inf": lambda: mesh.generate_annulus(0.5, 1.0, 16, math.inf),
    "adaptive_solve max_dof nan": lambda: elastodtn.adaptive_solve(
        elastodtn.example1_config(), elastodtn.example1_mesh(16, 1), max_dof=math.nan),
    "adaptive_solve max_dof string": lambda: elastodtn.adaptive_solve(
        elastodtn.example1_config(), elastodtn.example1_mesh(16, 1), max_dof="100"),
    "adaptive_solve max_dof bool": lambda: elastodtn.adaptive_solve(
        elastodtn.example1_config(), elastodtn.example1_mesh(16, 1), max_dof=True),
    "adaptive_solve max_dof fractional": lambda: elastodtn.adaptive_solve(
        elastodtn.example1_config(), elastodtn.example1_mesh(16, 1), max_dof=0.5),
    "mesh.mark empty": lambda: mesh.mark(np.array([]), 0.5),
    "mesh.mark negative": lambda: mesh.mark(np.array([-1.0, 1.0]), 0.5),
    "mesh.refine": lambda: mesh.refine(mesh.generate_annulus(0.5, 1.0, 16, 1), [10**6]),
    "verify.fit_rate": lambda: verify.fit_rate(None, use="e"),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_library_error(call):
    with pytest.raises(ElastoDtnError):
        call()


NON_FINITE = [key for key in BAD_INPUTS if key.endswith((" inf", " nan"))]


@pytest.mark.parametrize("key", NON_FINITE)
def test_non_finite_input_is_an_invalid_parameter(key):
    with pytest.raises(InvalidParameter, match="finite"):
        BAD_INPUTS[key]()
