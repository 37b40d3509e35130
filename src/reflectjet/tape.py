"""Tapes: record once what a function does to its scalars, and replay it
as straight-line Python (operator-overloading taping, as in ADOL-C:
Griewank, Juedes & Utke, ACM TOMS 22(2), 1996; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., 2008, ch. 13).

A class runs the function itself for its first calls, as many as its
caller asks, then on `_Var`s, which carry the real values and log each
operation.  The log is compiled once per process into functions of at
most `_CHUNK` lines, each calling the next, that apply the same operators
to the same operands in the same order (`_fold` writes a value used once
into its use, with the parentheses precedence needs) and return the jets,
tuples and lists the function did: constants enter as objects, never as
text, so a replay gives the function's bits.  A replay takes only the
jets and scalars the recording read; a class keeps a tape per types of
those.  A comparison is logged as a guard; when a replayed guard
disagrees, the function runs on the real values.  Reading a `_Var` as a
plain value (`float()`, `bool()`, `hash()`, an index, formatting) raises
`_Escape`.  While a function records, only the loaded `_MODULES` see the
logging stand-ins for `math`, `cmath`, `complex` and `max`.
"""

from __future__ import annotations

import cmath
import collections
import itertools
import math
import operator
import sys
import threading
from types import SimpleNamespace

from .jets import Jet, _jet

_CHUNK = 256  # lines per compiled function: one long one costs far more memory
_NEST = 40  # the deepest a folded expression nests, far below the parser's 200
_TAPES = {}  # (body, static, shape) -> (packer, {scalar types: run})
_CODES = {}  # source of a chunk -> its code, shared by tapes of one text
_CALLS = collections.Counter()  # class key -> its calls before recording
_MODULES = ("reflectjet.acoustic", "reflectjet.elastic", "reflectjet.jets")
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

    __float__ = __int__ = __index__ = __complex__ = __bool__ = __ceil__ = _escape
    __hash__ = __format__ = __round__ = __trunc__ = __floor__ = _escape


def _method(text, fn, shape, swap=False):
    return lambda self, *other: self.rec.log(
        text, fn, (*other, self) if swap else (self, *other), shape)


# An operation's shape: its precedence (0 a comparison, which is logged as
# a guard, 1 + -, 2 * /, 3 unary -, 4 **, 5 a call), then the precedence
# each operand needs to be written in its place without parentheses.
for _name, _sym, _shape in zip(*[iter((
        "add + 112 sub - 112 mul * 223 truediv / 223 pow ** 453 lt < 011 "
        "le <= 011 gt > 011 ge >= 011 eq == 011 ne != 011").split())] * 3):
    _fn, _text, _shape = (getattr(operator, _name), f"{{}} {_sym} {{}}",
                          tuple(map(int, _shape)))
    setattr(_Var, f"__{_name}__", _method(_text, _fn, _shape))
    if _shape[0]:
        setattr(_Var, f"__r{_name}__", _method(_text, _fn, _shape, True))
_Var.__neg__ = _method("-{}", operator.neg, (3, 3))
_Var.__abs__ = _method("abs({})", abs, (5, 0))


def _logged(fn):
    """`fn` as a recording function sees it: calls on `_Var`s are logged."""
    def call(*args):
        for a in args:
            if isinstance(a, _Var):
                text = "{}(" + ", ".join(["{}"] * len(args)) + ")"
                return a.rec.log(text, lambda f, *x: f(*x), (fn, *args),
                                 (5,) + (0,) * (len(args) + 1))
        return fn(*args)
    return call


class _ComplexType(type):
    """The type of `complex` as a recording function sees it: calls are
    logged, and a `_Var` is an instance if its value is."""

    __call__ = staticmethod(_logged(complex))

    def __instancecheck__(cls, x):
        if isinstance(x, _Var):
            x.rec.read.add(x.n)  # the tape reads its type
        return isinstance(x.v if isinstance(x, _Var) else x, complex)


_MAX = _logged(lambda *items: max(items))
_STAND_INS = {"complex": _ComplexType("complex", (), {}),
              "max": lambda *a: _MAX(*(a if len(a) > 1 else a[0]))}
for _module, _names in ((math, ("log", "exp", "sqrt")), (cmath, ("exp",))):
    _STAND_INS[_module.__name__] = SimpleNamespace(**{
        **vars(_module), **{n: _logged(getattr(_module, n)) for n in _names}})


class _Recording:
    """Lines of (number made or None, text with a `{}` per value used,
    numbers used, the precedence each needs there, the precedence of the
    text), and the namespace of the constants they name."""

    def __init__(self):
        self.lines, self.numbers, self.read = [], itertools.count(), set()
        self.consts, self.namespace = {}, {"_Miss": _Miss}

    def var(self, value):
        var = _Var()
        var.rec, var.n, var.v = self, next(self.numbers), value
        return var

    def name(self, x):  # a recorded value's place is `{}`
        if isinstance(x, _Var):
            return "{}"
        if id(x) not in self.consts:  # the namespace keeps x, and so its id
            self.consts[id(x)] = f"k{len(self.consts)}"
            self.namespace[self.consts[id(x)]] = x
        return self.consts[id(x)]

    def log(self, text, fn, args, shape):
        expr = text.format(*map(self.name, args))
        uses, needs, values = [], [], []
        for a, need in zip(args, shape[1:]):
            if isinstance(a, _Var):
                uses.append(a.n)
                needs.append(need)
                a = a.v
            values.append(a)
        value = fn(*values)
        if not shape[0]:  # a guard
            test = f"not ({expr})" if value else f"({expr})"
            self.lines.append((None, f"if {test}: raise _Miss", uses, needs, 0))
            return value
        var = self.var(value)
        self.lines.append((var.n, expr, uses, needs, shape[0]))
        return var

    def emit(self, x, uses):
        """Python for `x`: values nested in tuples, lists and jets."""
        if isinstance(x, Jet):
            return f"{self.name(_jet)}({self.emit(x.coeffs, uses)})"
        if not isinstance(x, (tuple, list)):
            uses += [x.n] if isinstance(x, _Var) else []
            return self.name(x)
        items = "".join(self.emit(item, uses) + ", " for item in x)
        make = getattr(type(x), "_make", type(x))  # a namedtuple's, or the type
        return f"{self.name(make)}(({items}))"

    def compile(self, inputs, out, label):
        """A function of the values of `inputs` (numbers), in order, that
        runs the log's chunks in turn and returns `out`."""
        uses = []
        lines = self.lines + [(None, f"return {self.emit(out, uses)}", uses,
                               [0] * len(uses), 0)]
        chunks = [lines[i:i + _CHUNK] for i in range(0, len(lines), _CHUNK)]
        born = {n: c for c, chunk in enumerate(chunks) for n, *_ in chunk}
        last = {u: c for c, chunk in enumerate(chunks)
                for _, _, used, *_ in chunk for u in used}
        # chunk c takes the values made before it (inputs: -1) that it or
        # a later chunk uses
        params = [[f"v{n}" for n in inputs]] + [
            [f"v{n}" for n in sorted(last) if born.get(n, -1) < c <= last[n]]
            for c in range(1, len(chunks))]
        count = collections.Counter(u for line in lines for u in line[2])
        for c, chunk in enumerate(chunks):
            body = _fold(chunk, {n for n, *_ in chunk
                                 if count[n] == 1 and last[n] == c})
            if c + 1 < len(chunks):  # each chunk calls the next
                body.append(f"return c{c + 1}({', '.join(params[c + 1])})")
            src = (f"def c{c}({', '.join(params[c])}):\n    "
                   + "\n    ".join(body))
            if src not in _CODES:  # the constants it names are looked up
                _CODES[src] = compile(src, f"<tape {label} {c}>", "exec")
            exec(_CODES[src], self.namespace)
        return lambda values, c0=self.namespace["c0"]: c0(*values)


def _fold(chunk, once):
    """The statements of `chunk`, each value of `once` written into its
    use, parenthesised if its precedence is below the use's need, where
    the operations keep their order: a line takes its values from the top
    of a stack of those not yet written, the rest are written before it."""
    body, stack = [], []  # stack: (number, expression, nesting, precedence)
    for made, text, used, needs, prec in chunk:
        folded, nest = {}, 0
        for n in reversed(used):
            if stack and stack[-1][0] == n:
                _, expr, depth, p = stack.pop()
                folded[n], nest = (expr, p), max(nest, depth)
        text = text.format(*[
            f"v{n}" if n not in folded else folded[n][0]
            if folded[n][1] >= need else f"({folded[n][0]})"
            for n, need in zip(used, needs)])
        if made in once and nest < _NEST:
            stack.append((made, text, nest + 1, prec))
            continue
        body += [f"v{n} = {expr}" for n, expr, *_ in stack]
        stack.clear()
        body.append(text if made is None else f"v{made} = {text}")
    return body


def _slots(x, at):
    """(path, scalars) of each jet and scalar nested in `x` in tuples and
    lists, in `_refill` order; None and strings nest."""
    if isinstance(x, Jet):
        return [(f"*{at}.coeffs", x.coeffs)]
    if isinstance(x, (tuple, list)):
        return [s for i, item in enumerate(x) for s in _slots(item, f"{at}[{i}]")]
    return [] if x is None or isinstance(x, str) else [(at, (x,))]


def _refill(x, values):
    """`x` with its scalars replaced, in order, by `values`."""
    if isinstance(x, Jet):
        return _jet(tuple(next(values) for _ in x.coeffs))
    if isinstance(x, (tuple, list)):
        items = [_refill(item, values) for item in x]
        return type(x)(*items) if hasattr(x, "_fields") else type(x)(items)
    return x if x is None or isinstance(x, str) else next(values)


def _replay(body, static, args, shape, warm=1):
    """`body(*static, *args)` from the tape of its class, keyed by `static`
    (what the control flow reads besides the scalars), `shape` (where
    `args` holds them) and the types of the scalars the tape reads.  The
    class's `warm`th call records it; the calls before, or all if
    recording fails where the body runs, run `body`."""
    key = body, static, shape
    entry = _TAPES.get(key)
    if entry is None:
        calls = _CALLS[key] = _CALLS[key] + 1
        if calls < warm:
            return body(*static, *args)
        packer, run = _record(body, static, args, None)
        entry = _TAPES[key] = packer, {tuple(map(type, packer(args))): run}
        del _CALLS[key]
    leaves = entry[0](args)
    types = tuple(map(type, leaves))
    run = entry[1].get(types)
    if run is None:
        run = entry[1][types] = _record(body, static, args, entry[0])[1]
    try:
        return run(leaves)
    except _Miss:
        return body(*static, *args)


def _record(body, static, args, packer):
    """A packer of the jets and scalars of `args` a tape of `body` reads
    (or `packer`, of its class), and the tape, a function of their list."""
    slots = _slots(args, "a")
    rec = _Recording()
    inputs = [[rec.var(x) for x in xs] for _, xs in slots]
    spaces = [vars(sys.modules[m]) for m in _MODULES if m in sys.modules]
    with _SWAP:
        saved = [{k: s[k] for k in _STAND_INS if k in s} for s in spaces]
        try:
            for space in spaces:
                space.update(_STAND_INS)
            out = body(*static, *_refill(args, itertools.chain(*inputs)))
        except Exception:
            out = _miss
        finally:
            for space, old in zip(spaces, saved):
                for k in _STAND_INS:
                    del space[k]
                space.update(old)
    if out is _miss:  # the body raises its own error, or runs the class
        body(*static, *args)
        return packer or _packer([]), _miss
    read = rec.read.union(*(line[2] for line in rec.lines), [
        x.n for _, xs in _slots(out, "") for x in xs if isinstance(x, _Var)])
    paths = {path: [x.n for x in xs] for (path, _), xs in zip(slots, inputs)}
    packer = packer or _packer([p for p, ns in paths.items()
                                if read.intersection(ns)])
    if any(read.intersection(paths[p]) for p in paths.keys() - packer.paths):
        return packer, _miss  # these types read another part of `args`
    return packer, rec.compile([n for p in packer.paths for n in paths[p]],
                               out, body.__name__)


def _packer(paths):
    """A function listing the scalars at `paths` of its argument."""
    packer = eval(f"lambda a: ({''.join(p + ', ' for p in paths)})")
    packer.paths = paths
    return packer


def _miss(values):
    raise _Miss
