"""Any JSON object either runs or is refused as a config error, never as a crash.

Each generated config goes through `cli.main` under every subcommand.  Values
are drawn from every JSON type, with NaN/Infinity literals, nesting, unknown
keys and valid specs from the tables.  Sizes that pass validation stay small
(steps and steps_list entries <= 8, trials <= 2, points <= 20, at most 3
times); invalid sizes (<= 0, fractional, boolean, >= 1e9) are drawn next to
them.  Large `trials` counts (10^5, 10^8) are drawn too: `props` refuses them
by its work budget before it runs, and no other command reads `trials`.

Run it longer with `pytest tests/test_config_fuzz.py --hypothesis-profile=ci`.
"""

import json
import math

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from glattice.cli import SUITES, main

COMMANDS = ("price", "penalty", "converge", "props", "conjugate")


def _subclass_names(cls):
    return {cls.__name__}.union(*(_subclass_names(sub) for sub in cls.__subclasses__()))


json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-10**12, 10**12),
                      st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6))
json_any = st.recursive(json_leaf, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)
# an empty object would take every default size (64 steps, 200 trials)
not_object = json_leaf | st.lists(json_any, max_size=3)


def mostly(valid, other=json_any):
    """The valid values, except in one draw in eight: `other`, by default any JSON.

    The valid branch takes the draw 0, which hypothesis favours and shrinks towards.
    """
    return st.integers(0, 7).flatmap(lambda i: other if i == 7 else valid)


def with_unknown_key(objects):
    """The objects, about one in eight with an unknown key added."""
    extra = st.dictionaries(st.text(max_size=6), json_any, min_size=1, max_size=1)
    return st.builds(lambda known, more: {**more, **known}, objects, mostly(st.just({}), extra))


small_size = st.integers(1, 8) | st.integers(1, 8).map(float)
size = mostly(small_size, st.sampled_from([0, -1, -10**9, 2.5, 1e-3, True, False, 10**9, 1e12]))
number = mostly(st.floats(-5, 5), st.sampled_from([math.nan, math.inf, -math.inf, True, "1.5", None]))
specs = {
    "driver": ["zero", "abs:0.5", "entropic:1", "entropic:1,8", "linear:0.3", "interval:-0.4,0.2",
               "malformed"],
    "integrand": ["conjugate", "quadratic:1", "box:0.5", "origin"],
    "claim": ["brownian", "abs_brownian", "call:0.2", "constant:1"],
    "control": ["zero", "constant:0.2", "piecewise:0.1,-0.2", "feedback:0.0,0.3", "constant:9"],
}

config = with_unknown_key(st.fixed_dictionaries(
    {
        # always present, so that a run that passes validation stays small
        "grid": mostly(with_unknown_key(st.fixed_dictionaries({"steps": size}, optional={
            "horizon": mostly(st.floats(0.1, 4), number),
            "topology": mostly(st.sampled_from(["recombining", "full_binary"]))})), not_object),
        # 10**5 and 10**8 trials count at least 4096 nodes each, over props' work budget
        # whenever axioms or supermartingale runs; the other suites do not read trials
        "trials": mostly(st.integers(1, 2),
                         st.sampled_from([0, -3, 1.5, True, "x", 10**5, 10**8])),
        "steps_list": mostly(st.lists(size, min_size=1, max_size=3, unique=True).map(sorted),
                             json_leaf),
    },
    optional={
        **{kind: mostly(st.sampled_from(names)) for kind, names in specs.items()},
        "suites": mostly(st.lists(st.sampled_from(SUITES), min_size=1, max_size=3, unique=True)),
        "levels": mostly(st.lists(mostly(st.floats(0, 5), number), min_size=1, max_size=3)),
        "tolerances": mostly(with_unknown_key(st.dictionaries(
            st.sampled_from(["duality_gap", "primal_equality", "final_error", "identity"]),
            mostly(st.floats(0, 1), number), max_size=2))),
        "seed": mostly(st.integers(0, 2**64), st.sampled_from([-1, 1.5, True, "7", "x"])),
        "output": mostly(st.text(min_size=1)),
        "tabulate": mostly(with_unknown_key(st.fixed_dictionaries({}, optional={
            "q_min": number, "q_max": number, "points": mostly(st.integers(2, 20), size),
            "times": mostly(st.lists(mostly(st.floats(0, 2), number), max_size=3))}))),
    },
))


@settings(max_examples=max(1, settings().max_examples // 4), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=mostly(config, not_object))
def test_any_config_runs_or_exits_2(raw, tmp_path, capsys):
    allowed_failures = _subclass_names(ValueError)
    out = tmp_path / "out.csv"
    if isinstance(raw, dict) and isinstance(raw.get("output"), str) and raw["output"]:
        raw["output"] = str(out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    for command in COMMANDS:
        out.unlink(missing_ok=True)
        code = main([command, "--config", str(path)])
        captured = capsys.readouterr()
        event(f"{command} exit {code}")
        assert code in (0, 1, 2), (command, raw)
        assert "Traceback" not in captured.err, (command, raw, captured.err)
        assert (code == 2) == captured.err.startswith("config error:"), (command, raw, captured.err)
        for line in captured.err.splitlines():
            if line.startswith(f"{command} failed:"):
                name = line.split(":")[1].strip()
                assert name in allowed_failures, (command, raw, line)
        if command == "conjugate" and code == 0:
            table = out.read_text() if out.exists() else captured.out
            assert not any("nan" in line.split(",") for line in table.splitlines()), (raw, table)
