"""One input contract across the public entry points.

Every number that enters the package goes through the check functions of
``cvmb.inputs``: a bool, NaN, an infinity, a string or None raises
``ValueError`` naming the setting, never another exception and never a
RuntimeWarning, and a NumPy scalar computes exactly as the equal Python
number.  The command line turns the ``ValueError`` into exit code 1.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from cvmb import cli
from cvmb.bounds import (
    DisplacementModel,
    classical_fisher_gaussian,
    closed_form_bounds,
    closed_form_holevo,
    dual_homodyne_mse_analytic,
    single_mode_probe,
    two_mode_probe,
)
from cvmb.gaussian import (
    GaussianState,
    SymplecticOp,
    beam_splitter,
    displace,
    make_thermal,
    single_mode_squeezer,
    symplectic_form,
    two_mode_squeezer,
    vacuum,
)
from cvmb.holevo import (
    HolevoProblem,
    HolevoSolution,
    build_problem,
    components_to_w,
    eliminate_two_mode,
    gram_single_mode,
    gram_two_mode,
    holevo_value,
    kkt_case_audit,
    solve_analytic,
    solve_numeric,
    two_mode_g,
    two_mode_objective,
)
from cvmb.inputs import (
    MAX_R_STEPS,
    MAX_SAMPLES,
    MAX_SQUEEZING,
    check_real,
    squeezing_limit,
    two_mode_min_r,
)
from cvmb.simulate import SimConfig, derive_seed, outcome_distribution, run, run_many

BAD_VALUES = [True, math.nan, math.inf, -math.inf, "0.1", None]


def _sweep(**settings):
    return cli.sweep_rows(cli.SweepSpec(r_steps=2, **settings))


# entry point, call with one number replaced by x, and a valid float and
# int for that number (the float exactly representable in float32)
ENTRY_POINTS = [
    ("SimConfig.r", lambda x: SimConfig(r=x, photons=0.0, samples=10), 0.5, 1),
    ("SimConfig.photons", lambda x: SimConfig(r=0.1, photons=x, samples=10), 0.5, 1),
    ("SimConfig.theta_true", lambda x: SimConfig(r=0.1, photons=0.0, theta_true=(0.0, x)), 0.5, 1),
    ("outcome_distribution.r", lambda x: outcome_distribution(x, 0.1), 0.5, 1),
    ("outcome_distribution.photons", lambda x: outcome_distribution(0.1, x), 0.5, 1),
    ("outcome_distribution.theta", lambda x: outcome_distribution(0.1, 0.0, (0.0, x)), 0.5, 1),
    ("SweepSpec.r_min", lambda x: _sweep(r_min=x), 0.5, 1),
    ("SweepSpec.r_max", lambda x: _sweep(r_max=x), 0.5, 1),
    ("SweepSpec.photons", lambda x: _sweep(photons=x), 0.5, 1),
    ("closed_form_bounds.r", lambda x: closed_form_bounds(x, 0.1, "two_mode"), 0.5, 1),
    ("closed_form_bounds.mean_photons", lambda x: closed_form_bounds(0.1, x, "single"), 0.5, 1),
    ("closed_form_holevo.r", lambda x: closed_form_holevo(x, 0.0, "two_mode"), 0.5, 1),
    ("closed_form_holevo.mean_photons", lambda x: closed_form_holevo(0.1, x, "single"), 0.5, 1),
    ("dual_homodyne_mse_analytic.r", lambda x: dual_homodyne_mse_analytic(x, 0.1), 0.5, 1),
    ("dual_homodyne_mse_analytic.mean_photons",
     lambda x: dual_homodyne_mse_analytic(0.1, x), 0.5, 1),
    ("build_problem", lambda x: build_problem("two_mode", x), 0.5, 1),
    ("HolevoProblem", lambda x: HolevoProblem("two_mode", x), 0.5, 1),
    ("gram_single_mode", gram_single_mode, 0.5, 1),
    ("gram_two_mode", gram_two_mode, 0.5, 1),
    ("solve_analytic.single", lambda x: solve_analytic("single", x), 0.5, 1),
    ("solve_analytic.two_mode", lambda x: solve_analytic("two_mode", x), 0.5, 1),
    ("kkt_case_audit", kkt_case_audit, 0.5, 1),
    ("eliminate_two_mode.r", lambda x: eliminate_two_mode(np.zeros(4), x), 0.5, 1),
    ("two_mode_g.r", lambda x: two_mode_g(np.zeros(4), x), 0.5, 1),
    ("two_mode_objective.r", lambda x: two_mode_objective(np.zeros(4), x), 0.5, 1),
    ("make_thermal", make_thermal, 0.5, 1),
    ("single_mode_squeezer", single_mode_squeezer, 0.5, 1),
    ("two_mode_squeezer", two_mode_squeezer, 0.5, 1),
    ("beam_splitter.tau", beam_splitter, 0.5, 1),
    ("displace.q", lambda x: displace(vacuum(), x, 0.0), 0.5, 1),
    ("displace.p", lambda x: displace(vacuum(), 0.0, x), 0.5, 1),
    # np.full keeps the dtype of x, so a bool, str or None array reaches the constructor
    ("GaussianState", lambda x: GaussianState(np.zeros(2), np.diag(np.full(2, x))), 1.5, 2),
    ("SymplecticOp", lambda x: SymplecticOp(np.diag(np.full(2, x))), -1.0, 1),
]
IDS = [entry[0] for entry in ENTRY_POINTS]


# entry point, the integer setting it names, call with that setting
# replaced by x, and a valid value for it; mode counts stay small, as an
# m-mode op allocates 2m x 2m matrices
INTEGER_SETTINGS = [
    ("make_thermal", "num_modes", lambda x: make_thermal(0.1, x), 2),
    ("vacuum", "num_modes", vacuum, 2),
    ("symplectic_form", "num_modes", symplectic_form, 2),
    ("single_mode_squeezer.mode", "mode", lambda x: single_mode_squeezer(0.1, x, 2), 1),
    ("single_mode_squeezer.num_modes", "num_modes",
     lambda x: single_mode_squeezer(0.1, 0, x), 2),
    ("two_mode_squeezer.mode_a", "mode_a", lambda x: two_mode_squeezer(0.1, x, 0, 3), 2),
    ("two_mode_squeezer.mode_b", "mode_b", lambda x: two_mode_squeezer(0.1, 0, x, 3), 2),
    ("two_mode_squeezer.num_modes", "num_modes", lambda x: two_mode_squeezer(0.1, 0, 1, x), 3),
    ("beam_splitter.mode_a", "mode_a", lambda x: beam_splitter(0.3, x, 0, 3), 2),
    ("beam_splitter.mode_b", "mode_b", lambda x: beam_splitter(0.3, 0, x, 3), 2),
    ("beam_splitter.num_modes", "num_modes", lambda x: beam_splitter(0.3, 0, 1, x), 3),
    ("displace.mode", "mode", lambda x: displace(vacuum(2), 0.1, 0.2, x), 1),
    ("DisplacementModel.displaced_mode", "displaced_mode",
     lambda x: DisplacementModel(two_mode_probe(0.3, 0.1), x), 1),
    ("derive_seed.seed", "seed", lambda x: derive_seed(x, 0), 1),
    ("derive_seed.index", "index", lambda x: derive_seed(1, x), 1),
]
BAD_INTEGERS = [True, 1.5, math.nan, "1", None]


# one call each with an array entry, a number, a shape or a name past its domain
PAST_DOMAIN = [
    ("check_real.10**400", lambda: check_real("r", 10 ** 400)),
    ("DisplacementModel.displaced_mode.2", lambda: DisplacementModel(two_mode_probe(0.3), 2)),
    ("derive_seed.seed.float", lambda: derive_seed(1.0, 0)),
    ("derive_seed.seed.2**64", lambda: derive_seed(2 ** 64, 0)),
    ("derive_seed.seed.negative", lambda: derive_seed(-1, 0)),
    ("derive_seed.index.negative", lambda: derive_seed(1, -1)),
    ("DisplacementModel.probe.str", lambda: DisplacementModel("x")),
    ("DisplacementModel.probe.None", lambda: DisplacementModel(None)),
    ("DisplacementModel.probe.array", lambda: DisplacementModel(np.eye(2))),
    ("classical_fisher_gaussian.outcome_cov.asymmetric",
     lambda: classical_fisher_gaussian(np.eye(2), [[1.0, 0.5], [0.0, 1.0]])),
    ("classical_fisher_gaussian.outcome_cov.inf",
     lambda: classical_fisher_gaussian(np.eye(2), [[math.inf, 0.0], [0.0, 1.0]])),
    ("classical_fisher_gaussian.outcome_cov.nan",
     lambda: classical_fisher_gaussian(np.eye(2), [[1.0, math.nan], [math.nan, 1.0]])),
    ("classical_fisher_gaussian.outcome_cov.shape",
     lambda: classical_fisher_gaussian(np.eye(2), np.ones((2, 3)))),
    ("classical_fisher_gaussian.mean_jacobian.nan",
     lambda: classical_fisher_gaussian([[math.nan, 0.0], [0.0, 1.0]], np.eye(2))),
    ("classical_fisher_gaussian.mean_jacobian.shape",
     lambda: classical_fisher_gaussian(np.eye(3), np.eye(2))),
    ("single_mode_squeezer.above", lambda: single_mode_squeezer(np.nextafter(MAX_SQUEEZING, 400))),
    ("single_mode_squeezer.below", lambda: single_mode_squeezer(np.nextafter(-MAX_SQUEEZING, -400))),
    ("single_mode_squeezer.800", lambda: single_mode_squeezer(800.0)),
    ("two_mode_squeezer.above", lambda: two_mode_squeezer(np.nextafter(MAX_SQUEEZING, 400))),
    ("two_mode_squeezer.below", lambda: two_mode_squeezer(np.nextafter(-MAX_SQUEEZING, -400))),
    ("two_mode_squeezer.800", lambda: two_mode_squeezer(800.0)),
    ("gram_single_mode.above", lambda: gram_single_mode(np.nextafter(MAX_SQUEEZING, 400))),
    ("gram_single_mode.below", lambda: gram_single_mode(np.nextafter(-MAX_SQUEEZING, -400))),
    ("gram_single_mode.800", lambda: gram_single_mode(800.0)),
    ("gram_two_mode.above", lambda: gram_two_mode(np.nextafter(MAX_SQUEEZING, 400))),
    ("gram_two_mode.below", lambda: gram_two_mode(np.nextafter(-MAX_SQUEEZING, -400))),
    ("gram_two_mode.800", lambda: gram_two_mode(800.0)),
    ("HolevoProblem.1e6", lambda: HolevoProblem("two_mode", 1e6)),
    ("GaussianState.mean.nan", lambda: GaussianState([math.nan, 0.0], np.eye(2))),
    ("GaussianState.mean.inf", lambda: GaussianState([0.0, math.inf], np.eye(2))),
    ("GaussianState.mean.odd", lambda: GaussianState(np.zeros(3), np.eye(3))),
    ("GaussianState.cov.shape", lambda: GaussianState(np.zeros(2), np.eye(4))),
    ("SymplecticOp.matrix.odd", lambda: SymplecticOp(np.eye(3))),
    ("HolevoSolution.method", lambda: HolevoSolution(1.0, [], np.eye(2), "guess")),
    ("components_to_w.size", lambda: components_to_w(np.zeros(3), 2)),
    # component vectors are read by their dtype: complex is not truncated,
    # and bool, string and object arrays are not converted
    ("components_to_w.x.complex", lambda: components_to_w(np.zeros(4, complex), 2)),
    ("components_to_w.x.bool", lambda: components_to_w(np.ones(4, bool), 2)),
    ("components_to_w.x.str", lambda: components_to_w(np.full(4, "1"), 2)),
    ("eliminate_two_mode.free_vars.complex",
     lambda: eliminate_two_mode(np.zeros(4, complex), 0.5)),
    ("eliminate_two_mode.free_vars.str", lambda: eliminate_two_mode(["1"] * 4, 0.5)),
    ("eliminate_two_mode.free_vars.object",
     lambda: eliminate_two_mode(np.zeros(4, object), 0.5)),
    ("eliminate_two_mode.r.800", lambda: eliminate_two_mode(np.zeros(4), 800.0)),
    # free variables are four rows, one per variable: a 4 x k array maps each column
    ("eliminate_two_mode.free_vars.shape_3", lambda: eliminate_two_mode(np.zeros(3), 0.5)),
    ("eliminate_two_mode.free_vars.shape_5", lambda: eliminate_two_mode(np.zeros(5), 0.5)),
    ("eliminate_two_mode.free_vars.shape_3x2", lambda: eliminate_two_mode(np.zeros((3, 2)), 0.5)),
    # trabs(Im Z) is read off the two off-diagonal entries of a 2 x 2 z
    ("holevo_value.z.shape", lambda: holevo_value(np.eye(3))),
    # a single-mode problem has no free variables; solve_analytic states its solution
    ("solve_numeric.single", lambda: solve_numeric(build_problem("single", 0.5))),
    # the count caps, checked where the counts enter: before any draw or grid
    ("SimConfig.samples.cap", lambda: SimConfig(r=0.1, photons=0.0, samples=MAX_SAMPLES + 1)),
    ("SweepSpec.samples.cap", lambda: cli.SweepSpec(samples=MAX_SAMPLES + 1).validate()),
    ("SweepSpec.r_steps.cap", lambda: cli.SweepSpec(r_steps=MAX_R_STEPS + 1).validate()),
    ("solve_analytic.kind", lambda: solve_analytic("three_mode", 0.1)),
    ("closed_form_holevo.kind", lambda: closed_form_holevo(0.1, 0.0, "three_mode")),
    # the empty mixed two-mode field keeps the domain of the V_DH field beside it
    ("closed_form_holevo.below_two_mode_min_r",
     lambda: closed_form_holevo(np.nextafter(two_mode_min_r(0.1), -400), 0.1, "two_mode")),
    # every entry of run_many is a SimConfig, checked before anything is drawn
    ("run_many.configs[0].int", lambda: run_many([1])),
    ("run_many.configs[0].None", lambda: run_many([None])),
    ("run_many.configs[0].str", lambda: run_many("ab")),
    ("run_many.configs[1].None", lambda: run_many([SimConfig(r=0.1, photons=0.0), None])),
    ("run.config.None", lambda: run(None)),
    # and configs itself is an iterable
    ("run_many.configs.int", lambda: run_many(5)),
    ("run_many.configs.None", lambda: run_many(None)),
    ("run_many.configs.float", lambda: run_many(1.5)),
]


def bits(value):
    """An image of ``value`` that compares floats and arrays bit for bit."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *map(bits, vars(value).values()))
    if isinstance(value, (list, tuple)):
        return tuple(map(bits, value))
    if isinstance(value, (float, np.ndarray, np.generic)):
        arr = np.asarray(value)
        return (type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes())
    return value


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("name, call, good_float, good_int", ENTRY_POINTS, ids=IDS)
def test_bad_value_raises_value_error(name, call, good_float, good_int, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call(bad)


@pytest.mark.parametrize("call", [entry[1] for entry in PAST_DOMAIN],
                         ids=[entry[0] for entry in PAST_DOMAIN])
def test_past_domain_raises_value_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call()


def test_array_and_model_errors_name_their_argument():
    for name, call in PAST_DOMAIN:
        if name.startswith(("classical_fisher_gaussian.", "DisplacementModel.probe.",
                            "holevo_value.", "solve_numeric.", "components_to_w.x.",
                            "eliminate_two_mode.")):
            with pytest.raises(ValueError, match=name.split(".")[1]):
                call()


def test_run_many_errors_name_the_index():
    for name, message in [("run_many.configs[0].int", "configs[0] must be a SimConfig, got int"),
                          ("run_many.configs[0].str", "configs[0] must be a SimConfig, got str"),
                          ("run_many.configs[1].None",
                           "configs[1] must be a SimConfig, got NoneType"),
                          ("run_many.configs.int",
                           "configs must be an iterable of SimConfig, got int")]:
        with pytest.raises(ValueError) as exc:
            dict(PAST_DOMAIN)[name]()
        assert str(exc.value) == message


def test_count_caps():
    # the caps themselves are accepted, with nothing drawn and no grid built
    config = SimConfig(r=0.1, photons=0.0, samples=np.int64(MAX_SAMPLES))
    assert type(config.samples) is int and config.samples == MAX_SAMPLES
    spec = cli.SweepSpec(r_steps=MAX_R_STEPS, samples=MAX_SAMPLES).validate()
    assert (spec.r_steps, spec.samples) == (MAX_R_STEPS, MAX_SAMPLES)
    for name, setting, cap in [("SimConfig.samples.cap", "samples", MAX_SAMPLES),
                               ("SweepSpec.samples.cap", "samples", MAX_SAMPLES),
                               ("SweepSpec.r_steps.cap", "r-steps", MAX_R_STEPS)]:
        with pytest.raises(ValueError, match=f"^{setting} = {cap + 1} is above the limit {cap}$"):
            dict(PAST_DOMAIN)[name]()


def test_domain_edges_are_accepted():
    # at these r the squeezer entries reach exp(354.9) and the covariance
    # entries the top of the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (MAX_SQUEEZING, -MAX_SQUEEZING):
            assert np.isfinite(single_mode_probe(r).cov).all()
            assert np.isfinite(two_mode_probe(r).cov).all()
        for n in (2.0, 1e6):
            assert np.isfinite(two_mode_probe(squeezing_limit(n), n).cov).all()
        two_mode_squeezer(10.0)


@pytest.mark.parametrize("name, call, good_float, good_int", ENTRY_POINTS, ids=IDS)
def test_numpy_scalars_match_python_numbers(name, call, good_float, good_int):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bits(call(np.float32(good_float))) == bits(call(good_float))
        assert bits(call(np.int64(good_int))) == bits(call(good_int))


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("name, setting, call, good", INTEGER_SETTINGS,
                         ids=[entry[0] for entry in INTEGER_SETTINGS])
def test_bad_integer_raises_value_error(name, setting, call, good, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{setting} must be an integer"):
            call(bad)


@pytest.mark.parametrize("name, setting, call, good", INTEGER_SETTINGS,
                         ids=[entry[0] for entry in INTEGER_SETTINGS])
def test_numpy_integers_match_python_ints(name, setting, call, good):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bits(call(np.int64(good))) == bits(call(good))


def test_sim_config_theta_true_is_a_pair_of_reals():
    config = SimConfig(r=0.1, photons=0.0, theta_true=np.array([1.0, np.float32(2.0)]))
    assert config.theta_true == (1.0, 2.0)
    assert all(type(t) is float for t in config.theta_true)
    model = outcome_distribution(0.1, 0.0, np.array([1.0, np.float32(2.0)]))
    assert bits(model) == bits(outcome_distribution(0.1, 0.0, (1.0, 2.0)))
    # a set or a dict would unpack to two reals, but not in (q, p) order
    for bad in [(1.0, 2.0, 3.0), (1.0,), (), None, "12", b"12", 1.0, 5, np.eye(2),
                np.float64(1.0), {3.0, 1.0}, {0: 1.0, 1: 2.0}]:
        with pytest.raises(ValueError, match="^theta_true "):
            SimConfig(r=0.1, photons=0.0, theta_true=bad)
        with pytest.raises(ValueError, match="^theta "):
            outcome_distribution(0.1, 0.0, bad)


def test_sweep_spec_stores_python_numbers():
    spec = cli.SweepSpec(r_min=np.float32(0.5), r_steps=np.int64(3), photons=np.int64(1),
                         seed=np.uint64(9)).validate()
    for name, kind in [("r_min", float), ("r_max", float), ("photons", float),
                       ("r_steps", int), ("samples", int), ("seed", int)]:
        assert type(getattr(spec, name)) is kind, name


class TestCommandLine:
    def test_bad_flag_names_its_setting(self, capsys):
        assert cli.main(["bounds", "--r-steps", "abc"]) == cli.USAGE_ERROR
        assert "r-steps must be an integer, got 'abc'" in capsys.readouterr().err
        assert cli.main(["bounds", "--samples", "-1"]) == cli.USAGE_ERROR
        assert "samples must be non-negative" in capsys.readouterr().err
        assert cli.main(["bounds", "--r-min", "abc"]) == cli.USAGE_ERROR
        assert "r-min must be a real number, got 'abc'" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        # argparse exits 2, which the CLI reserves for a failed gate
        with pytest.raises(SystemExit) as info:
            cli.main(["bounds", "--no-such-flag"])
        assert info.value.code == cli.USAGE_ERROR
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err

    def test_probe_takes_both_spellings(self, capsys):
        outputs = []
        for probe in ("two_mode", "two-mode"):
            assert cli.main(["bounds", "--r-steps", "3", "--probe", probe]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert cli.main(["bounds", "--probe", "three_mode"]) == cli.USAGE_ERROR
        assert "unknown probe 'three_mode'" in capsys.readouterr().err

    def test_bad_config_value_names_its_setting(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for line, message in [("r_steps = abc", "r-steps must be an integer, got 'abc'"),
                              ("photons = lots", "photons must be a real number, got 'lots'"),
                              ("r_max = nan", "r-max must be finite")]:
            cfg.write_text(line + "\n")
            assert cli.main(["bounds", "--config", str(cfg)]) == cli.USAGE_ERROR
            assert message in capsys.readouterr().err

    def test_bad_env_seed_names_its_setting(self, monkeypatch, capsys):
        monkeypatch.setenv("CVMB_SEED", "abc")
        assert cli.main(["bounds"]) == cli.USAGE_ERROR
        assert "seed must be an integer, got 'abc'" in capsys.readouterr().err

    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path, capsys):
        flags = {a.dest for a in cli.build_parser()._subparsers._group_actions[0]
                 .choices["bounds"]._actions}
        names = [f.name for f in dataclasses.fields(cli.SweepSpec)]
        assert set(names) <= flags
        cfg = tmp_path / "all.cfg"
        cfg.write_text("r_min=0.25\nr_max=1\nr_steps=3\nphotons=0.5\nprobe=single\n"
                       "samples=7\nseed=11\nout=x.csv\n")
        assert cli.main(["bounds", "--config", str(cfg), "--show-config"]) == 0
        shown = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().split("\n"))
        assert shown == {"r_min": "0.25", "r_max": "1.0", "r_steps": "3", "photons": "0.5",
                         "probe": "single", "samples": "7", "seed": "11", "out": "x.csv"}
