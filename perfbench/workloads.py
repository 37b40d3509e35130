"""The three workloads: their passes, operations and output checks.

An operation is one recovery of one interface point together with its
forward data (in-process workloads), or one `reflectjet` process (CLI
workload).  A pass runs every operation of the workload once, in a fixed
order; a run repeats whole passes, so every run attempts whole rounds of
the same operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"
PROCESS_TIMEOUT_S = 60  # a CLI process of the workloads takes about 1 s


@dataclass
class Op:
    """Outcome of one operation."""

    model: int
    kind: str                # "roundtrip", "forward" or "invert"
    forward_s: float = 0.0
    invert_s: float = 0.0
    covectors: int = 0
    error: str | None = None
    output: object = None    # what the checks need


@dataclass
class Pass:
    wall_s: float
    ops: list = field(default_factory=list)


def child_env():
    """Environment for child interpreters: the checkout's `src` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REFLECTJET_LOG", None)
    return env


def timed_process(cmd, cwd=None):
    """(wall seconds, return code, stderr tail) of one child process; a
    process that outlives PROCESS_TIMEOUT_S is killed and reads as code -1."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=cwd,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, -1, f"killed after {PROCESS_TIMEOUT_S} s"
    wall = perf_counter() - t0
    return wall, proc.returncode, proc.stderr.decode(errors="replace")[-400:]


def _report_error(op: Op, text: str):
    op.error = text
    print(f"operation failed (model {op.model}, {op.kind}): {text}",
          file=sys.stderr)


# --- in-process workloads ---------------------------------------------------


def _side(d: dict, elastic: bool):
    from reflectjet.jets import Jet
    from reflectjet.medium import AcousticSideJet, ElasticSideJet

    if elastic:
        return ElasticSideJet(Jet(d["rho_jet"]), Jet(d["cs_jet"]), Jet(d["cp_jet"]))
    return AcousticSideJet(Jet(d["rho_jet"]), Jet(d["cs_jet"]))


def to_model(d: dict):
    """reflectjet InterfaceModel from a model dict of `inputs`."""
    from reflectjet.medium import InterfaceGeometry, InterfaceModel

    elastic = "cp_jet" in d["minus"]
    geometry = InterfaceGeometry(d["geometry"]["kappa1"], d["geometry"]["kappa2"])
    return InterfaceModel(_side(d["minus"], elastic), _side(d["plus"], elastic),
                          geometry)


class InProcess:
    """Flat round trips in this process: forward on a grid, then recovery
    with the flat geometry known."""

    def __init__(self, name: str, seed: int):
        from reflectjet.medium import Covector

        self.name = name
        self.kind = "elastic" if name.startswith("elastic") else "acoustic"
        grid = inputs.ELASTIC_GRID if self.kind == "elastic" else inputs.ACOUSTIC_GRID
        self.dicts = inputs.MODELS[name](seed)
        self.models = [to_model(d) for d in self.dicts]
        self.grids = [[Covector(1.0, (b, 0.0)) for b in inputs.slowness_grid(d, grid)]
                      for d in self.dicts]
        self.ops_per_pass = len(self.models)
        self.recoveries_per_pass = len(self.models)

    def _forward(self, model, cov, depth):
        from reflectjet import acoustic, elastic

        if self.kind == "elastic":
            return elastic.forward_symbols_elastic(cov, model, depth)
        return acoustic.forward_symbols(cov, model, depth)

    def _recover(self, series, model):
        from reflectjet import inversion
        from reflectjet.medium import InterfaceGeometry

        if self.kind == "elastic":
            samples = inversion.SymbolSamples.from_elastic_series(series)
            return inversion.elastic_recover_jets(samples, model.minus, model.depth,
                                                  geometry=InterfaceGeometry())
        samples = inversion.SymbolSamples.from_acoustic_series(series)
        return inversion.acoustic_recover_jets(samples, model.minus, model.depth,
                                               geometry=InterfaceGeometry())

    def run_op(self, i: int, tracer=None) -> Op:
        model, covs = self.models[i], self.grids[i]
        op = Op(model=i, kind="roundtrip", covectors=len(covs))
        if tracer is not None:
            tracer.op = i
        try:
            t0 = perf_counter()
            series = [self._forward(model, cov, model.depth) for cov in covs]
            t1 = perf_counter()
            report = self._recover(series, model)
            t2 = perf_counter()
        except Exception:
            _report_error(op, traceback.format_exc(limit=3))
            return op
        op.forward_s, op.invert_s = t1 - t0, t2 - t1
        plus = {"rho_jet": list(report.plus.rho.coeffs),
                "cs_jet": list(report.plus.cs.coeffs)}
        if self.kind == "elastic":
            plus["cp_jet"] = list(report.plus.cp.coeffs)
        op.output = (series, plus)
        return op

    def warm_up(self):
        """One untimed operation: lazy imports (scipy.optimize in the
        elastic root scan) and first-call costs stay out of the timings."""
        self.run_op(0)

    def run_pass(self, tracer=None) -> Pass:
        t0 = perf_counter()
        ops = [self.run_op(i, tracer) for i in range(self.ops_per_pass)]
        return Pass(wall_s=perf_counter() - t0, ops=ops)

    def setup_command(self, seed: int):
        return [sys.executable, str(HERE / "probe_setup.py"), self.name, str(seed)]

    # -- checks ---------------------------------------------------------------

    def _values(self, series):
        """Per covector, the reflection of each order (scalar or 3x3)."""
        return [[r for _, r, _ in s.orders] for s in series]

    def check_op(self, op: Op):
        """Full checks of one operation's outputs."""
        d, model, covs = self.dicts[op.model], self.models[op.model], self.grids[op.model]
        series, plus = op.output
        for cov, s in zip(covs, series):
            r0 = s.orders[0][1]
            checks.check_r0(d, cov.slowness, r0[2][2] if self.kind == "elastic" else r0)
            if self.kind == "elastic":
                checks.check_decoupling([r for _, r, _ in s.orders])
                checks.check_decoupling([t for _, _, t in s.orders])
        scaled = [self._forward(model, cov.scaled(checks.SCALE), model.depth)
                  for cov in covs]
        checks.check_homogeneity(self._values(series), self._values(scaled))
        checks.check_recovery(d, plus, self.kind, model.depth)

    def release(self, op: Op):
        op.output = None

    def fingerprint(self, op: Op):
        series, plus = op.output
        values = tuple(v for orders in self._values(series) for o in orders
                       for v in checks.flatten(o))
        return values, json.dumps(plus)


class Cli:
    """`reflectjet forward` along two tangential directions, then
    `reflectjet invert` on both CSVs, for curved acoustic models."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.dicts = inputs.MODELS[name](seed)
        self.workdir = workdir
        self.grids = []
        for i, d in enumerate(self.dicts):
            (workdir / f"model{i}.json").write_text(json.dumps(d))
            minus = {"minus": d["minus"], "geometry": d["geometry"]}
            (workdir / f"minus{i}.json").write_text(json.dumps(minus))
            self.grids.append((inputs.slowness_grid(d, inputs.CLI_GRID),
                               inputs.slowness_grid(d, inputs.CLI_GRID, False)))
        self.ops_per_pass = 3 * len(self.dicts)
        self.recoveries_per_pass = len(self.dicts)
        self.passes_done = 0
        self.schema = checks.load_json(SRC / "reflectjet" / "schemas"
                                       / "recovery_report.schema.json")
        # loaded before the first pass, so peak RSS does not depend on it
        import jsonschema  # noqa: F401

    def _argv(self, i: int, step: str, tag: str):
        """(arguments, output file) of one command; step is x, y or invert."""
        if step == "invert":
            out = f"{tag}m{i}.json"
            return ["invert", "--model", f"minus{i}.json",
                    "--symbols", f"{tag}m{i}x.csv", "--symbols", f"{tag}m{i}y.csv",
                    "--out", out], out
        out = f"{tag}m{i}{step}.csv"
        grid = ",".join(repr(b) for b in self.grids[i][0 if step == "x" else 1])
        return ["forward", "--model", f"model{i}.json", "--out", out,
                "--grid", grid, "--depth", str(inputs.CLI_DEPTH),
                "--direction", "1,0" if step == "x" else "0,1"], out

    def _command(self, argv, tracer_file=None):
        if tracer_file is None:
            return [sys.executable, "-m", "reflectjet.cli", *argv]
        return [sys.executable, str(HERE / "cli_traced.py"), str(tracer_file), *argv]

    def run_pass(self, tracer=None) -> Pass:
        tag = f"p{self.passes_done}"
        self.passes_done += 1
        ops = []
        t0 = perf_counter()
        for i in range(len(self.dicts)):
            for step in ("x", "y", "invert"):
                argv, out = self._argv(i, step, tag)
                spans = None
                if tracer is not None:
                    spans = self.workdir / f"{tag}m{i}{step}.spans.json"
                wall, code, err = timed_process(self._command(argv, spans), self.workdir)
                op = Op(model=i, kind="invert" if step == "invert" else "forward")
                if step == "invert":
                    op.invert_s = wall
                else:
                    op.forward_s = wall
                    op.covectors = len(self.grids[i][0 if step == "x" else 1])
                op.output = (self.workdir / out, spans)
                if code != 0:
                    _report_error(op, f"exit code {code}: {err}")
                ops.append(op)
        return Pass(wall_s=perf_counter() - t0, ops=ops)

    def setup_command(self, seed: int):
        return self._command(["--help"])

    def warm_up(self):
        pass

    def check_op(self, op: Op):
        d = self.dicts[op.model]
        if op.kind == "forward":
            text = op.output[0].read_text()
            points = checks.acoustic_csv_r0(d, text)
            if points != op.covectors:
                raise checks.CheckFailed(f"CSV holds {points} order-0 rows for "
                                         f"{op.covectors} grid points")
            return
        doc = checks.load_json(op.output[0])
        checks.check_schema(doc, self.schema)
        if doc.get("kind") != "acoustic" or doc.get("depth") != inputs.CLI_DEPTH:
            raise checks.CheckFailed(f"report kind/depth {doc.get('kind')}/"
                                     f"{doc.get('depth')}")
        checks.check_recovery(d, doc["plus"], "acoustic", inputs.CLI_DEPTH)
        checks.check_kappas(d, doc.get("kappas", ()))

    def fingerprint(self, op: Op):
        if op.kind == "forward":
            return op.output[0].read_bytes()
        doc = checks.load_json(op.output[0])
        doc.pop("timings", None)  # wall-clock member, documented as varying
        return json.dumps(doc, sort_keys=True)

    def release(self, op: Op):
        op.output[0].unlink()


class Checker:
    """Checks each pass once it has ended, outside the timed region, then
    releases its outputs, so memory does not grow with the run.

    The first pass's outputs get every check; each later pass must
    reproduce them exactly (byte-identical CSVs on the CLI workload), so
    the checks hold for it too.  An operation that raised or exited
    non-zero counts as failed; one whose output fails a check counts as
    failed and makes the run incorrect.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = {}
        self.failed = 0
        self.correct = True

    def add(self, p: Pass):
        for index, op in enumerate(p.ops):
            if op.error is not None:
                self.failed += 1
                continue
            try:
                if index not in self.reference:
                    self.workload.check_op(op)
                    self.reference[index] = self.workload.fingerprint(op)
                else:
                    checks.check_same_bytes(self.reference[index],
                                            self.workload.fingerprint(op),
                                            f"model {op.model} {op.kind}")
            except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                print(f"check failed (model {op.model}, {op.kind}): {exc}",
                      file=sys.stderr)
                self.failed += 1
                self.correct = False
            self.workload.release(op)


def make(name: str, seed: int, workdir: Path):
    if name == "cli_curved_d2":
        return Cli(name, seed, workdir)
    return InProcess(name, seed)


def new_workdir(name: str) -> Path:
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path
