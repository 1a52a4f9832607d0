"""SHA-256 digests of the CLI's outputs on a fixed set of small configs.

    python3 tools/cli_digests.py > tests/data/cli_digests.txt

Runs one pinned config per command on the unit interval and on the unit
disc, then three more convergence targets on the interval and Y4 on the
disc, then a lattice solve whose drift drives its samples into the
boundary, a `simulate-forward` on the disc whose 9,900 rows span several
of the CLI's CSV write blocks, a lattice solve on the disc with a seed
past 64 bits, an `action-min` on the disc at 64 steps, a `contracted-rate`
on the interval whose start is its minimizer with nodes on the wall, a Y4
convergence whose field steps do not divide its path steps, a
`simulate-forward` on the interval whose paths end inside a noise block
and whose steps span three noise chunks, an `action-min` on the interval
under a linear drift, a K4 convergence on the disc whose skeleton reaches
the wall, three configs that fail validation, a 2-D model on the interval,
a convergence study with 10 paths and one with a NaN in its epsilon
ladder, an `action-min` on the disc under an outward drift whose target
lies on the unit circle, and last Y4 on the interval under a drift into
the wall with a constant g, Y4 on a disc centred off the origin, an
`action-min` and a `contracted-rate` on that disc, a `tail` on the
interval under a linear drift, whose certificate has to iterate, and an
`action-min` on the interval at 256 steps, whose Gauss-Newton solve
spans several super-blocks, in process, with the package imported from
this checkout's `src/`. Each run
writes into a fixed relative `output_dir` under a temporary working
directory, because `config_hash` covers that field. Prints a header line
with the numpy version, then one line per run with its `config_hash` (or
the error it raised), one line per CSV with the file's sha256, and one
line with the sha256 of its `manifest.json`, so two checkouts can be
compared with one diff. The manifest is hashed as sorted JSON without
`started`, `finished` and `git_describe`, which change from run to run,
and without `outputs`, the CSVs' row counts, which their own digests pin;
the rest pins what no CSV holds, such as every `stalled` flag and the
tail's `rate_bound` and `delta_adjusted`.

The digests depend on numpy's Generator streams, which numpy does not
promise to keep across versions: compare runs made with one numpy only.

`tests/data/cli_digests.txt` holds this output, and
`tests/test_digests.py` reruns the configs and names every line that
differs from it. A change that moves CLI outputs on purpose regenerates
the file with the command above and lists the moved lines, before and
after, in CHANGES.md. The test fails, and does not skip, under a numpy
other than the header's: regenerate the file on a checkout whose outputs
are known good, under the new numpy.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INTERVAL = {"kind": "interval", "a": 0.0, "b": 1.0}
DISC = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
SHIFTED = {"kind": "ball", "center": [0.5, -0.25], "radius": 1.0}
DRIFT = {"name": "constant-drift", "params": {"v": 1.0}}
NOISE = {"name": "zero-drift-unit-noise"}
BSDE = {"name": "linear-bsde", "params": {"lam": 1.0, "g0": 0.5}}
OU = {"name": "ou-in-ball", "params": {"theta": 1.0}}

# per command: (interval overrides, disc overrides) on top of the shared base
COMMANDS = {
    "audit": ({"preset": DRIFT}, {}),
    "skeleton": ({"preset": DRIFT}, {}),
    "simulate-forward": ({"preset": DRIFT, "n_paths": 8}, {"n_paths": 8}),
    "bsde-limit": ({"preset": BSDE}, {}),
    "bsde-grid": ({"preset": BSDE, "eps": 0.05}, {}),
    "action-eval": ({"preset": DRIFT}, {}),
    "action-min": ({"preset": NOISE, "y": 0.8, "grid": {"n_steps": 8}},
                   {"y": [0.5, 0.3], "grid": {"n_steps": 8}}),
    "contracted-rate": ({"preset": NOISE}, {}),
    "convergence": ({"preset": DRIFT, "target": "K4"},
                    {"target": "X4", "grid": {"n_steps": 16}}),
    "tail": ({"preset": NOISE, "n_paths": 200, "delta": 0.3,
              "grid": {"n_steps": 16}},
             {"n_paths": 200, "delta": 0.3, "grid": {"n_steps": 16}}),
}

# more convergence targets, (target, where, preset); they run after the above
TARGETS = [("Kmoment", "interval", DRIFT), ("Kexp", "interval", DRIFT),
           ("Y4", "interval", BSDE), ("Y4", "disc", OU)]

# (run name, where, overrides) of the runs that come last, in this order
LAST = [
    # a contact-heavy lattice solve: the drift drives the samples into the
    # boundary, so its K and g dK terms are large
    ("bsde-grid-contact@interval", "interval",
     {"command": "bsde-grid", "eps": 0.05,
      "preset": {"name": "boundary-g-constant",
                 "params": {"v": 1.0, "g0": 1.0}}}),
    # 300 paths x 33 nodes = 9,900 rows: several CSV write blocks, the last
    # one partial
    ("simulate-forward-blocks@disc", "disc",
     {"command": "simulate-forward", "n_paths": 300}),
    # a seed of three 32-bit words, which seeds every step's stream
    ("bsde-grid-wide-seed@disc", "disc",
     {"command": "bsde-grid", "seed": 2**64 + 5}),
    # the action optimizer at 64 steps on the disc: 2 x 63 free coordinates
    ("action-min-wide@disc", "disc",
     {"command": "action-min", "grid": {"n_steps": 64}, "y": [0.5, 0.3]}),
    # the skeleton's image under v = 1 pins nodes to the wall at x = 1: the
    # start, the skeleton, is the exact minimizer, of value 0
    ("contracted-rate-stall@interval", "interval",
     {"command": "contracted-rate", "preset": DRIFT, "space_nodes": 17,
      "field_steps": 16}),
    # Y4 reads the field at its time nodes, so 3 field steps cannot serve
    # 32 path steps: the config fails at /field_steps
    ("convergence-Y4-misaligned@interval", "interval",
     {"command": "convergence", "preset": BSDE, "target": "Y4",
      "field_steps": 3}),
    # 200 paths, one noise block of 128 and 72 rows of the next, and 160
    # steps, drawn in chunks of 64, 64 and 32
    ("simulate-forward-partial-block@interval", "interval",
     {"command": "simulate-forward", "preset": DRIFT, "n_paths": 200,
      "grid": {"n_steps": 160}}),
    # the action optimizer on an OU drift toward the far wall, 32 steps: a
    # quadratic problem, which one Gauss-Newton step solves
    ("action-min-ou@interval", "interval",
     {"command": "action-min", "preset": {"name": "linear-drift",
                                          "params": {"rate": 1.0}},
      "y": 0.9}),
    # K4 on the disc under an outward drift, from 0.6: the skeleton, which
    # each kernel call steps as its row 0, reaches the wall, so its K grows
    ("convergence-K4@disc", "disc",
     {"command": "convergence", "target": "K4", "x": [0.6, 0.0],
      "preset": {"name": "ou-in-ball", "params": {"theta": -1.0}}}),
    # a 2-D model on the unit interval: the config fails at /preset/name
    ("audit-dims@interval", "interval", {"command": "audit", "preset": OU}),
    # a convergence study needs 1000 paths per level: the config fails at
    # /n_paths
    ("convergence-few-paths@interval", "interval",
     {"command": "convergence", "preset": DRIFT, "n_paths": 10}),
    # a NaN level, which Python's JSON reader takes: the config fails at
    # /eps_ladder
    ("convergence-nan-ladder@interval", "interval",
     {"command": "convergence", "preset": DRIFT,
      "eps_ladder": [0.1, float("nan"), 0.05, 0.01]}),
    # the action optimizer toward a target on the unit circle under an
    # outward drift, 16 steps: every stack holds a node on the wall, and the
    # start rides it, so 2-D boundary multipliers are positive in the
    # objective calls that make the first step
    ("action-min-wall@disc", "disc",
     {"command": "action-min", "grid": {"n_steps": 16}, "y": [0.6, 0.8],
      "preset": {"name": "ou-in-ball", "params": {"theta": -2.0}}}),
    # Y4 under a drift into the wall at x = 1 with g0 = 1: every level's
    # lattice charges g dK through the constant g's value; 9 nodes, as 5
    # leave the relative standard error above 0.2 at eps = 0.1
    ("convergence-Y4-contact@interval", "interval",
     {"command": "convergence", "target": "Y4", "space_nodes": 9,
      "preset": {"name": "boundary-g-constant",
                 "params": {"v": 1.0, "g0": 1.0}}}),
    # Y4 on a disc centred off the origin: the lattice and the paths take
    # the ball projection's general route, which subtracts the centre
    ("convergence-Y4-shifted@disc", "disc",
     {"command": "convergence", "target": "Y4", "x": [0.75, -0.25],
      "domain": SHIFTED}),
    # the action optimizer on the shifted disc: the feasibility check and
    # the boundary test take the signed distance's general route
    ("action-min-shifted@disc", "disc",
     {"command": "action-min", "domain": SHIFTED, "x": [0.75, -0.25],
      "y": [1.0, 0.3], "grid": {"n_steps": 8}}),
    # the contracted rate on the shifted disc: the limit field is read in
    # 2-D on a lattice whose hull is off the origin
    ("contracted-rate-shifted@disc", "disc",
     {"command": "contracted-rate", "domain": SHIFTED, "x": [0.75, -0.25]}),
    # the tail under a linear drift with delta = 0.2: the chord to the
    # certificate's target is not its optimum, so the certificate's descent
    # iterates, and the manifest's rate_bound pins where it ends
    ("tail-linear@interval", "interval",
     {"command": "tail", "n_paths": 200, "delta": 0.2,
      "grid": {"n_steps": 16},
      "preset": {"name": "linear-drift", "params": {"rate": 1.0}}}),
    # the action optimizer on a linear drift toward the far wall at 256
    # steps: the Gauss-Newton solve's 255 unknowns span several
    # super-blocks, the last one partial
    ("action-min-long@interval", "interval",
     {"command": "action-min", "preset": {"name": "linear-drift",
                                          "params": {"rate": 1.0}},
      "y": 0.9, "grid": {"n_steps": 256}}),
    # the contracted rate under a drift into the wall with g0 = 1 on a field
    # of 12 steps on [0, 2]: dt = 1/6 is not dyadic, so the start times'
    # own grids TimeGrid(t_i, 2, 12 - i) need not have the field's nodes.
    # gamma is the skeleton's own image, so the descent stops at its start
    # with violation 0, and the field's last bits do not reach the outputs
    ("contracted-rate-nondyadic@interval", "interval",
     {"command": "contracted-rate", "T": 2.0, "field_steps": 12,
      "preset": {"name": "boundary-g-constant",
                 "params": {"v": 1.0, "g0": 1.0}}}),
]

BASE = {"interval": {"domain": INTERVAL, "x": 0.5},
        "disc": {"domain": DISC, "preset": OU, "x": [0.25, 0.0]}}
SHARED = {"grid": {"n_steps": 32}, "seed": 5, "eps": 0.1, "n_paths": 1000,
          "space_nodes": 5, "field_steps": 4, "mc_per_node": 64}


def configs():
    """(run name, config dict) of every pinned run, in a fixed order."""
    for command, per_domain in COMMANDS.items():
        for (where, base), over in zip(BASE.items(), per_domain):
            name = f"{command}@{where}"
            cfg = {**SHARED, **base, **over, "command": command,
                   "output_dir": os.path.join("runs", name)}
            yield name, cfg
    for target, where, preset in TARGETS:
        name = f"convergence-{target}@{where}"
        yield name, {**SHARED, **BASE[where], "preset": preset,
                     "target": target, "command": "convergence",
                     "output_dir": os.path.join("runs", name)}
    for name, where, over in LAST:
        yield name, {**SHARED, **BASE[where], **over,
                     "output_dir": os.path.join("runs", name)}


def header():
    """The first line of the output: the numpy version the digests were
    made with."""
    import numpy
    return f"# numpy {numpy.__version__}"


# manifest keys left out: run times, the checkout, the CSVs' row counts
_UNPINNED = ("started", "finished", "git_describe", "outputs")


def _manifest_digest(out_dir):
    """sha256 of a run's manifest.json as sorted JSON, less _UNPINNED."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    for key in _UNPINNED:
        del manifest[key]
    text = json.dumps(manifest, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines():
    """The output lines after the header, as a list. The runs write under a
    temporary working directory, and the caller's one is restored."""
    from reflectal import cli
    from reflectal.errors import ReflectalError

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, cfg in configs():
                try:
                    manifest = cli.run(cli.validate(json.dumps(cfg)))
                except ReflectalError as exc:
                    lines.append(f"{name} error {type(exc).__name__}: {exc}")
                    continue
                lines.append(f"{name} config_hash {manifest['config_hash']}")
                for fname in sorted(manifest["outputs"]):
                    path = os.path.join(cfg["output_dir"], fname)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    lines.append(f"{name} {fname} {digest}")
                lines.append(f"{name} manifest.json "
                             f"{_manifest_digest(cfg['output_dir'])}")
        finally:
            os.chdir(cwd)
    return lines


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(header())
    for line in digest_lines():
        print(line)


if __name__ == "__main__":
    main()
