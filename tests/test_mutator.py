"""A seeded config mutator: every mutation of a shipped config, run through
each subcommand with warnings as errors, ends in an exit code README
documents, lets no exception escape and, on exit 0, writes each output its
subcommand documents, with its header."""

from __future__ import annotations

import copy
import random
from pathlib import Path

import numpy as np
import pytest
import yaml

from cocyclelab import config
from cocyclelab.cli import GOODSET_COLUMNS, main

pytestmark = pytest.mark.filterwarnings("error")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {p.stem: yaml.safe_load(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.yaml"))}
COMMANDS = ("lyapunov", "oseledets", "bunching", "projective", "continuity", "selftest")
SEED, CASES = 1, 200

EDGE = (
    0, -1, -0.0, 1e300, -1e300, 1e-300, 1e-9, 2**63, -(2**63),
    "x", "", None, True, [], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]],
)
SCALES = (-1, 2, 3, 1e3, 2.0**-40, 2.0**40)
KINDS = (
    "shift", "torus", "bernoulli", "markov", "lebesgue", "constant",
    "locally_constant", "pointwise", "pointwise_entries", "rotation",
    "diagonal", "dyadic", "explicit",
)
KEYS = ("matrix", "table", "depth", "weights", "count", "values", "r", "kind", "bogus")
# the budgets each run is clamped to, so a case takes milliseconds
CLAMP = {"samples": 40, "depth": 8, "n_max": 30, "count": 4}

# the headers of each subcommand's documented outputs
OUTPUTS = {
    "lyapunov": {
        "lyapunov.csv": "lambda_plus,se_plus,lambda_minus,se_minus,gap,gap_sem,"
        "has_gap,n,samples",
    },
    "oseledets": {"oseledets.csv": "i,angle_u,angle_s,sin_angle_between"},
    "bunching": {"bunching.csv": "n,log_b"},
    "projective": {"projective.csv": "kind,angle"},
    "continuity": {"goodset.csv": ",".join(GOODSET_COLUMNS), "goodset.svg": "<svg "},
    "selftest": {},
}
PREFIX = {2: "config error: ", 3: "no gap: ", 4: "horizon exceeded: "}


def _nodes(tree, path=()):
    """(path, value) of every node below the root, lists included."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def mutate(rng: random.Random, cfg: dict) -> dict:
    """One to three mutations of ``cfg``, one most often: a value replaced by an edge
    value or a 2x2 matrix, a number scaled, a kind swapped, a key dropped
    or one added."""
    cfg = copy.deepcopy(cfg)
    for _ in range(rng.choice((1, 1, 2, 3))):
        nodes = list(_nodes(cfg))
        maps = [(), *(p for p, v in nodes if isinstance(v, dict))]
        numbers = [p for p, v in nodes if type(v) in (int, float)]
        # scaled numbers mostly load, so they reach the studies
        op = rng.choice(("value", "matrix", "scale", "scale", "scale", "kind", "drop", "extra"))
        if op == "scale" and numbers:
            path = rng.choice(numbers)
            _at(cfg, path[:-1])[path[-1]] *= rng.choice(SCALES)
            continue
        if op in ("value", "matrix") and nodes:
            path, _ = rng.choice(nodes)
            value = rng.choice(EDGE) if op == "value" else [
                [rng.choice((0.0, 1.0, -2.5, 1e300)) for _ in range(2)] for _ in range(2)
            ]
            _at(cfg, path[:-1])[path[-1]] = value
            continue
        node = _at(cfg, rng.choice(maps))
        if op == "kind":
            swappable = [p for p in maps if "kind" in _at(cfg, p)]
            if swappable:
                _at(cfg, rng.choice(swappable))["kind"] = rng.choice(KINDS)
        elif op == "drop" and node:
            del node[rng.choice(sorted(node, key=str))]
        elif op == "extra":
            node[rng.choice(KEYS)] = rng.choice(EDGE)
    return cfg


def clamp(cfg):
    """``cfg`` with every positive integer budget, and a dyadic count,
    lowered to CLAMP; other values stay as the mutation left them."""
    for _, node in _nodes({"": cfg}):
        if isinstance(node, dict):
            for key, cap in CLAMP.items():
                value = node.get(key)
                if type(value) is int and value > cap and (key != "depth" or "table" not in node):
                    node[key] = cap
    return cfg


def check_run(command: str, cfg, tmp_path: Path, capsys) -> int:
    """Run ``command`` on ``cfg`` and check its exit: a documented code,
    the code's stderr prefix, and on 0 every documented output."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / command
    text = yaml.safe_dump(cfg, default_flow_style=True)
    try:
        code = main([command, "--config", str(path), "--out", str(out)])
    except BaseException as err:  # noqa: BLE001 - the escape is the finding
        pytest.fail(f"{command} raised {err!r} on {text}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4), f"{command} exited {code} on {text}"
    assert err.startswith(PREFIX.get(code, "")), f"{command}: {err!r} on {text}"
    if code == 0:
        for name, header in OUTPUTS[command].items():
            lines = (out / name).read_text().splitlines()
            if name.endswith(".csv"):
                assert lines[0].startswith("# cocyclelab ") and lines[1] == header
            else:
                assert lines[0].startswith(header)
    return code


def case(i: int):
    rng = random.Random(SEED * 1_000_003 + i)
    name = rng.choice(sorted(SHIPPED))
    return COMMANDS[i % len(COMMANDS)], clamp(mutate(rng, SHIPPED[name]))


@pytest.mark.parametrize("i", range(CASES))
def test_mutated_config_ends_in_a_documented_exit(i, tmp_path, capsys):
    command, cfg = case(i)
    check_run(command, cfg, tmp_path, capsys)


def test_the_mutations_reach_every_exit_that_runs_can_take(tmp_path, capsys):
    # a mutator whose cases all stop at load would check nothing else
    codes = set()
    for i in range(0, CASES, 4):
        (tmp_path / str(i)).mkdir()
        codes.add(check_run(*case(i), tmp_path / str(i), capsys))
    assert {0, 2} <= codes


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
def test_both_parsers_load_the_shipped_and_mutated_configs_alike(monkeypatch):
    # load_config takes libyaml's parser where it can: every shipped config
    # and every mutated one, as the runs above write it, reads as the
    # pure-Python parser reads it, down to each value's type and sign
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    texts = [p.read_text() for p in paths] + [yaml.safe_dump(case(i)[1]) for i in range(CASES)]
    for text in texts:
        python, libyaml = (yaml.load(text, Loader=L) for L in (yaml.SafeLoader, yaml.CSafeLoader))
        assert repr(python) == repr(libyaml)
    hashes = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(config, "_LOADER", loader)
        hashes.append([config.config_hash(config.load_config(str(p))) for p in paths])
    assert hashes[0] == hashes[1]


def _shipped(name, **budgets):
    cfg = copy.deepcopy(SHIPPED[name])
    cfg["budgets"] = {**cfg["budgets"], **budgets}
    return cfg


def _steep_shift():
    # exp(t B) overflows for t >= 1/64: six rows are censored
    cfg = _shipped("shift_gapped", samples=40, depth=8, n_max=30)
    cfg["perturbation"]["direction"]["matrix"] = [[0.0, -0.2], [0.2, 3000.0]]
    return cfg


def _steep_bunching():
    # b_n near 4.6e11**n passes the float range at n = 27
    cfg = _shipped("shift_bunched")
    cfg["cocycle"]["matrix"] = [[1.189207115002721, 0.0], [0.0, 2.0**40]]
    return cfg


def _huge_constant():
    # plain products of up to 6 steps of a 2**200-scaled matrix overflow
    cfg = _shipped("shift_bunched", samples=40, depth=8, n_max=30)
    cfg["cocycle"]["matrix"] = np.ldexp(cfg["cocycle"]["matrix"], 200).tolist()
    return cfg


@pytest.mark.parametrize(
    "command, make, code",
    [
        ("continuity", _steep_shift, 0),
        ("bunching", _steep_bunching, 1),
        ("selftest", _huge_constant, 1),
    ],
    ids=["shift_exponential_overflow", "b_n_overflow", "identity_products_overflow"],
)
def test_overflow_classes_exit_without_a_warning(command, make, code, tmp_path, capsys):
    assert check_run(command, make(), tmp_path, capsys) == code
