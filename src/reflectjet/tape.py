"""Tapes: record once what a function does to its scalars, and replay it
as straight-line Python (operator-overloading taping, as in ADOL-C:
Griewank, Juedes & Utke, ACM TOMS 22(2), 1996; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., 2008, ch. 13).

The first call of a class runs the function on `_Var`s, which carry the
real values and log each operation.  The log is compiled once per process
into functions of at most `_CHUNK` lines that apply the same operators to
the same operand objects in the same order: constants enter as objects,
never as text, and nothing is rewritten, so a replay gives the function's
bits.  A comparison is logged as a guard; when a replayed guard disagrees,
the function runs on the real values.  Reading a `_Var` as a plain value
(`float()`, `bool()`, `hash()`, an index, formatting) would bake it into
the tape, so it raises `_Escape`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
import threading
from types import SimpleNamespace

from .jets import Jet, _jet

_CHUNK = 256  # lines per compiled function: one long one costs far more memory
_TAPES = {}  # (body, static, shape) -> (packer, {scalar types: run})
_MODULES = ("reflectjet.acoustic", "reflectjet.jets")  # whose math bodies call
_SWAP = threading.RLock()  # one recording at a time swaps the stand-ins in


class _Escape(TypeError):
    """A recorded value was read as a plain value."""


class _Miss(Exception):
    """A replayed guard disagreed with the recording."""


class _Var:
    """A recorded scalar: its real value `v`, number `n` in recording `rec`."""

    __slots__ = ("rec", "n", "v")
    __array_ufunc__ = None  # numpy scalars leave their operators to ours

    def _escape(self, *args):
        raise _Escape(f"recorded v{self.n} read as a plain value")

    __float__ = __int__ = __index__ = __complex__ = __bool__ = _escape
    __hash__ = __format__ = __round__ = __trunc__ = __floor__ = _escape
    __ceil__ = _escape


def _method(text, fn, guard=False, swap=False):
    if swap:
        return lambda self, other: self.rec.log(text, fn, (other, self))
    return lambda self, *other: self.rec.log(text, fn, (self, *other), guard)


for _ops, _guard in (("add + sub - mul * truediv / pow **", False),
                     ("lt < le <= gt > ge >= eq == ne !=", True)):
    for _name, _sym in zip(*[iter(_ops.split())] * 2):
        _fn, _text = getattr(operator, _name), f"{{}} {_sym} {{}}"
        setattr(_Var, f"__{_name}__", _method(_text, _fn, _guard))
        if not _guard:
            setattr(_Var, f"__r{_name}__", _method(_text, _fn, swap=True))
_Var.__neg__ = _method("-{}", operator.neg)


def _logged(fn):
    """`fn` as a recording function sees it: calls on `_Var`s are logged."""
    def call(*args):
        for a in args:
            if isinstance(a, _Var):
                text = "{}(" + ", ".join(["{}"] * len(args)) + ")"
                return a.rec.log(text, lambda f, *x: f(*x), (fn, *args))
        return fn(*args)
    return call


class _ComplexType(type):
    """The type of `complex` as a recording function sees it: calls are
    logged, and a `_Var` is an instance if its value is."""

    __call__ = staticmethod(_logged(complex))

    def __instancecheck__(cls, x):
        return isinstance(x.v if isinstance(x, _Var) else x, complex)


_STAND_INS = {"complex": _ComplexType("complex", (), {})}
for _module, _names in ((math, ("log", "exp", "sqrt")), (cmath, ("exp",))):
    _STAND_INS[_module.__name__] = SimpleNamespace(**{
        **vars(_module), **{n: _logged(getattr(_module, n)) for n in _names}})


class _Recording:
    """Lines of (number made or None, statement, numbers used), and the
    namespace of the constants they name."""

    def __init__(self):
        self.lines, self.numbers = [], itertools.count()
        self.consts, self.namespace = {}, {"_Miss": _Miss}

    def var(self, value):
        var = _Var()
        var.rec, var.n, var.v = self, next(self.numbers), value
        return var

    def name(self, x):
        if isinstance(x, _Var):
            return f"v{x.n}"
        if id(x) not in self.consts:  # the namespace keeps x, and so its id
            self.consts[id(x)] = f"k{len(self.consts)}"
            self.namespace[self.consts[id(x)]] = x
        return self.consts[id(x)]

    def log(self, text, fn, args, guard=False):
        expr = text.format(*map(self.name, args))
        uses = [a.n for a in args if isinstance(a, _Var)]
        value = fn(*(a.v if isinstance(a, _Var) else a for a in args))
        if guard:
            test = f"not ({expr})" if value else f"({expr})"
            self.lines.append((None, f"if {test}: raise _Miss", uses))
            return value
        var = self.var(value)
        self.lines.append((var.n, f"v{var.n} = {expr}", uses))
        return var

    def emit(self, x, uses):
        """Python for `x`: values in nested tuples, lists and namedtuples."""
        if not isinstance(x, (tuple, list)):
            uses += [x.n] if isinstance(x, _Var) else []
            return self.name(x)
        items = "".join(self.emit(item, uses) + ", " for item in x)
        if isinstance(x, list):
            return f"[{items}]"
        if type(x) is tuple:
            return f"({items})"
        return f"{self.name(type(x))}({items})"  # a namedtuple

    def compile(self, inputs, out, label):
        """A function of the input values that runs the log's chunks in
        turn and returns `out`."""
        uses = []
        lines = self.lines + [(None, f"return {self.emit(out, uses)}", uses)]
        chunks = [lines[i:i + _CHUNK] for i in range(0, len(lines), _CHUNK)]
        born = {n: c for c, chunk in enumerate(chunks) for n, _, _ in chunk}
        last = {u: c for c, chunk in enumerate(chunks)
                for _, _, used in chunk for u in used}
        # chunk c takes the values made before it (inputs: -1) that it or
        # a later chunk uses
        params = [[f"v{n}" for n in range(inputs)]] + [
            [f"v{n}" for n in sorted(last) if born.get(n, -1) < c <= last[n]]
            for c in range(1, len(chunks))]
        for c, chunk in enumerate(chunks):
            body = [text for _, text, _ in chunk]
            if c + 1 < len(chunks):
                passed = "".join(p + ", " for p in params[c + 1])
                body.append(f"return ({passed})")
            src = (f"def c{c}({', '.join(params[c])}):\n    "
                   + "\n    ".join(body))
            exec(compile(src, f"<tape {label} {c}>", "exec"), self.namespace)
        *head, tail = (self.namespace[f"c{c}"] for c in range(len(chunks)))

        def run(values):
            for chunk in head:
                values = chunk(*values)
            return tail(*values)

        return run


def _packer(args):
    """A function listing, in `_refill` order, the scalars of values that
    nest like `args` in tuples, lists and jets."""
    def paths(x, at):
        if isinstance(x, Jet):
            return [f"*{at}.coeffs"]
        if not isinstance(x, (tuple, list)):
            return [] if x is None else [at]
        if any(isinstance(i, (Jet, tuple, list)) or i is None for i in x):
            return [p for i, item in enumerate(x)
                    for p in paths(item, f"{at}[{i}]")]
        return [f"*{at}"]

    return eval(f"lambda a: ({''.join(p + ', ' for p in paths(args, 'a'))})")


def _refill(x, values):
    """`x` with its scalars replaced, in order, by `values`."""
    if isinstance(x, Jet):
        return _jet(tuple(next(values) for _ in x.coeffs))
    if isinstance(x, (tuple, list)):
        items = [_refill(item, values) for item in x]
        return type(x)(*items) if hasattr(x, "_fields") else type(x)(items)
    return x if x is None else next(values)


def _replay(body, static, args, shape):
    """`body(*static, *args)` from the tape of its class, keyed by `static`
    (what the control flow reads besides the scalars), `shape` (where
    `args` holds them) and the scalars' types.  While `body` records,
    `_MODULES` see logging stand-ins for `math`, `cmath` and `complex`.
    If recording fails where the body runs, the body runs the class."""
    entry = _TAPES.get((body, static, shape))
    if entry is None:
        entry = _TAPES[body, static, shape] = _packer(args), {}
    leaves = entry[0](args)
    types = tuple(map(type, leaves))
    if types not in entry[1]:
        entry[1][types] = _record(body, static, args, leaves)
    try:
        return entry[1][types](leaves)
    except _Miss:
        return body(*static, *args)


def _record(body, static, args, leaves):
    rec = _Recording()
    inputs = [rec.var(x) for x in leaves]
    spaces = [vars(sys.modules[m]) for m in _MODULES]
    with _SWAP:
        saved = [{k: s[k] for k in _STAND_INS if k in s} for s in spaces]
        try:
            for space in spaces:
                space.update(_STAND_INS)
            out = body(*static, *_refill(args, iter(inputs)))
        except Exception:
            out = _miss
        finally:
            for space, old in zip(spaces, saved):
                for k in _STAND_INS:
                    del space[k]
                space.update(old)
    if out is _miss:  # the body raises its own error, or runs the class
        body(*static, *args)
        return _miss
    return rec.compile(len(inputs), out, body.__name__)


def _miss(values):
    raise _Miss
