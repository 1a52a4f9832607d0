"""The determinism contract, pinned: the CLI's outputs on the configs of
tools/cli_digests.py hash to the lines of data/cli_digests.txt.

A change that moves an output on purpose regenerates the file with
`python3 tools/cli_digests.py > tests/data/cli_digests.txt`, run from the
repository root, and names the moved lines in CHANGES.md.
"""

import importlib.util
import json
import os

import numpy as np

from reflectal import action, cli

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "data", "cli_digests.txt")
TOOL = os.path.join(os.path.dirname(HERE), "tools", "cli_digests.py")


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_key(lines):
    """Each line under its run name and item (config_hash, error or a CSV
    name), its first two words."""
    return {tuple(line.split(" ", 2)[:2]): line for line in lines}


def test_cli_outputs_match_pinned_digests():
    tool = _tool()
    with open(PINNED) as fh:
        header, *pinned = fh.read().splitlines()
    # numpy does not promise Generator streams across versions (NEP 19)
    assert header == tool.header(), (
        f"{PINNED} was made under {header.lstrip('# ')}, this run has "
        f"numpy {np.__version__}: check the outputs under the new numpy, "
        f"then regenerate the file")
    want, got = _by_key(pinned), _by_key(tool.digest_lines())
    moved = [f"  pinned: {want.get(key)}\n  now:    {got.get(key)}"
             for key in dict.fromkeys([*want, *got])
             if want.get(key) != got.get(key)]
    assert not moved, (f"{len(moved)} digest lines differ from {PINNED}:\n"
                       + "\n".join(moved))


def test_a_digest_pins_the_multiplier_route_in_2d(monkeypatch, tmp_path):
    # the disc action-min toward the unit circle under an outward drift is
    # the pinned run whose 2-D objective stacks hold a node on the wall.
    # The start choice and the descent's first call, whose gradient and
    # blocks make the first step, have positive multipliers, so a change
    # to the multiplier block moves its digests; the optimum leaves the
    # wall but for its target, so the later stacks' multipliers are 0
    config = dict(_tool().configs())["action-min-wall@disc"]
    terms, seen = action._action_terms, []

    def spy(coeffs, domain, paths, grid, gradient=False):
        out = terms(coeffs, domain, paths, grid, gradient)
        dist = domain.signed_distance(paths[..., 1:, :])
        seen.append(((abs(dist) <= domain.boundary_tol).any(),
                     (out[2] > 0).any()))
        return out

    monkeypatch.setattr(action, "_action_terms", spy)
    monkeypatch.chdir(tmp_path)
    cli.run(cli.validate(json.dumps(config)))
    assert config["domain"]["kind"] == "ball" and seen
    assert all(on_wall for on_wall, _ in seen)
    assert [positive for _, positive in seen[:2]] == [True, True]
    assert not any(positive for _, positive in seen[2:])
