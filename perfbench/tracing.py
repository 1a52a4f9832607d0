"""Span tracing installed from outside the package, for the traced run only.

`Tracer.install()` replaces the module attributes through which callers
reach the public functions of each layer (for example `harness` and `cli`
bind `simulate_reflected_batch` by name, `action` binds `evaluate_action`
and `apply_pi`), and `uninstall()` puts the originals back. Coefficient and
domain callables are wrapped per object with `dataclasses.replace`.

Spans live in memory as parallel integer arrays with a parent index; a
span's self time is its duration minus its children's durations minus the
bookkeeping the tracer did inside it. `save()` writes them out at the end.
"""

import dataclasses
import inspect
import json
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import reflectal
from reflectal import action, backward, cli, coefficients, forward, geometry, harness

_MODULES = (geometry, coefficients, forward, backward, action, harness, cli)
_COEFF_FIELDS = ("b", "sigma", "f", "g", "h")
_DOMAIN_FIELDS = ("phi", "grad_phi", "hess_phi", "signed_distance",
                  "project_point")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.excluded = array("q")   # tracer bookkeeping inside the span
        self.stack = [-1]
        self.open_layers = Counter()
        self.counters = Counter()
        self._patched = []

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, on_return=None):
        """Wrap fn in a span called name; with name None, record no span.
        on_return(args, kwargs, out) runs after the span closes, and its time
        is excluded from the enclosing span's self time."""
        if name is not None and name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids.get(name)
        layer = name.split(".", 1)[0] if name else None

        def traced(*args, **kwargs):
            if nid is None:
                out = fn(*args, **kwargs)
            else:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(self.stack[-1])
                self.end.append(0)
                self.excluded.append(0)
                self.stack.append(idx)
                self.open_layers[layer] += 1
                self.start.append(perf_counter_ns())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end[idx] = perf_counter_ns()
                    self.stack.pop()
                    self.open_layers[layer] -= 1
            if on_return is not None:
                t0 = perf_counter_ns()
                on_return(args, kwargs, out)
                top = self.stack[-1]
                if top >= 0:
                    self.excluded[top] += perf_counter_ns() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, key, fn):
        def counted(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- per-object wrapping ---------------------------------------------

    def wrap_coefficients(self, coeffs):
        return dataclasses.replace(coeffs, **{
            f: self.wrap(f"coefficients.{f}", getattr(coeffs, f))
            for f in _COEFF_FIELDS})

    def wrap_domain(self, domain):
        fields = {f: self.wrap(f"geometry.{f}", getattr(domain, f))
                  for f in _DOMAIN_FIELDS if f != "project_point"}
        fields["project_point"] = self.wrap(
            "geometry.project", domain.project_point, self._on_project)
        return dataclasses.replace(domain, **fields)

    def wrap_inputs(self, value):
        """Copy of a workload input with coefficient sets and domains wrapped."""
        if isinstance(value, coefficients.CoefficientSet):
            return self.wrap_coefficients(value)
        if isinstance(value, geometry.DomainSpec):
            return self.wrap_domain(value)
        if isinstance(value, dict):
            return {k: self.wrap_inputs(v) for k, v in value.items()}
        return value

    # -- module patching -------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every reflectal module attribute that refers to original."""
        for mod in (reflectal,) + _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def install(self):
        spans = {
            forward.simulate_reflected_batch: ("forward.simulate_reflected_batch",
                                               self._on_batch),
            forward.integrate_skeleton_ode: ("forward.integrate_skeleton_ode", None),
            forward.integrate_reflected_sde: ("forward.integrate_reflected_sde",
                                              self._on_trajectory),
            backward.solve_bsde_grid: ("backward.solve_bsde_grid", self._on_bsde_grid),
            backward.solve_limit_bsde: ("backward.solve_limit_bsde", None),
            backward.limit_value_field: ("backward.limit_value_field", None),
            backward.apply_pi: ("backward.apply_pi", self._on_apply_pi),
            action.evaluate_action: ("action.evaluate_action", None),
            action.minimize_action_endpoint: ("action.minimize_action_endpoint", None),
            action.contracted_rate: ("action.contracted_rate", None),
            harness.convergence_study: ("harness.convergence_study", None),
            harness.tail_study: ("harness.tail_study", None),
            cli.validate: ("cli.validate", None),
            cli.run: ("cli.run", self._on_cli_run),
        }
        for fn, (name, hook) in spans.items():
            self._replace_everywhere(fn, self.wrap(name, fn, hook))
        self._replace_everywhere(
            action._projected_descent,
            self.wrap(None, action._projected_descent, self._on_descent))
        self._replace_everywhere(
            forward.trajectory_rng,
            self.count("forward.rng_streams", forward.trajectory_rng))
        # the CLI builds its own domain and coefficients from the config
        for fn, wrap in ((geometry.make_domain, self.wrap_domain),
                         (coefficients.preset, self.wrap_coefficients)):
            self._replace_everywhere(
                fn, lambda *a, _fn=fn, _wrap=wrap, **k: _wrap(_fn(*a, **k)))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- counters read from arguments and results ------------------------

    def _count_paths(self, k_paths, arrays):
        k = np.asarray(k_paths)
        steps = k.size - (k.shape[0] if k.ndim == 2 else 1)
        self.counters["forward.path_steps"] += steps
        self.counters["forward.contact_steps"] += int(
            np.count_nonzero(np.diff(k, axis=-1) > 0))
        self.counters["forward.path_bytes"] += sum(
            a.nbytes for a in arrays if a is not None)

    def _on_batch(self, args, kwargs, out):
        x_paths, k_paths = out
        self._count_paths(k_paths, out)
        if self.open_layers["harness"]:
            self.counters["harness.paths"] += k_paths.shape[0]

    def _on_trajectory(self, args, kwargs, traj):
        self._count_paths(traj.k_path, (traj.x_path, traj.k_path,
                                        traj.k_increment_dirs, traj.noise))

    def _on_project(self, args, kwargs, out):
        self.counters["geometry.project.points"] += out.size // max(out.shape[-1], 1)

    def _on_apply_pi(self, args, kwargs, out):
        self.counters["backward.apply_pi.points"] += out.size // max(out.shape[-1], 1)

    def _on_bsde_grid(self, args, kwargs, out):
        a = _bound(backward.solve_bsde_grid, args, kwargs)
        nodes = int(np.prod([len(ax) for ax in a["space_grid"]]))
        # one stream per (step, node), as solve_bsde_grid draws them
        streams = a["times"].n_steps * nodes
        self.counters["backward.rng_streams"] += streams
        self.counters["backward.mc_samples"] += streams * a["mc_per_node"]

    def _on_descent(self, args, kwargs, out):
        _, _, log, stalled = out
        self.counters["action.iterations"] += log[-1][0]
        self.counters["action.accepted"] += sum(1 for row in log[1:] if row[2] > 0)
        self.counters["action.stalled"] += int(stalled)

    def _on_cli_run(self, args, kwargs, manifest):
        out_dir = _bound(cli.run, args, kwargs)["config"].output_dir
        for name, info in manifest["outputs"].items():
            self.counters["cli.csv_rows"] += info["rows"]
            self.counters["cli.csv_bytes"] += os.path.getsize(
                os.path.join(out_dir, name))

    # -- aggregation -------------------------------------------------------

    def _arrays(self):
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child - np.array(self.excluded, dtype=np.int64)
        return nid, parent, dur, self_ns

    def summary(self):
        """Per span name: calls, inclusive and self seconds. Per layer: self
        seconds, and inclusive seconds of its outermost spans (those whose
        parent belongs to another layer)."""
        nid, parent, dur, self_ns = self._arrays()
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        incl = np.bincount(nid, weights=dur, minlength=n) * 1e-9
        self_s = np.bincount(nid, weights=self_ns, minlength=n) * 1e-9
        per_name = {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                           "self_s": float(self_s[i])}
                    for i, name in enumerate(self.names)}
        layers = sorted({name.split(".", 1)[0] for name in self.names})
        name_layer = np.array([layers.index(name.split(".", 1)[0])
                               for name in self.names], dtype=np.int64)
        span_layer = name_layer[nid]
        outer = span_layer != np.where(parent >= 0,
                                       span_layer[np.maximum(parent, 0)], -1)
        per_layer = {
            layer: {"self_s": float(self_ns[span_layer == i].sum() * 1e-9),
                    "outer_incl_s": float(dur[(span_layer == i) & outer].sum() * 1e-9)}
            for i, layer in enumerate(layers)}
        return per_name, per_layer

    def save(self, path):
        nid, parent, dur, self_ns = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent,
                 start_ns=np.array(self.start, dtype=np.int64),
                 end_ns=np.array(self.end, dtype=np.int64), self_ns=self_ns)
        with open(path + ".counters.json", "w") as fh:
            json.dump(dict(self.counters), fh, indent=1, sort_keys=True)
