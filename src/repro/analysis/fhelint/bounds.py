"""Width/bounds abstract interpretation (the B-xxx rule family).

Every ``@bounded``-annotated function (``assume=False``) is interpreted
over an interval lattice whose elements track, per value:

* ``ub`` — an exact exclusive upper bound as a Python integer (so
  ``2**62 + 2**52 <= 2**62 + 2**53`` is decided without float slop);
* ``q_mult`` — a bound in units of the ambient RNS modulus
  (``value < q_mult * q`` with every modulus ``q < 2**31``);
* idiom markers — multi-statement reduction patterns (Shoup lazy
  products, ``min``-trick folds, wrapped subtractions, conditional
  subtractions) are recognized across statements so the kernels' actual
  deferred-reduction style proves clean without per-line annotations.

Obligations checked inside annotated bodies:

* B-OVF — any arithmetic result must stay below the declared dtype's
  capacity; narrowing ``astype`` of a value proven too wide; a
  possibly-wrapped subtraction stored into a tracked buffer or returned
  before its fold.
* B-RED — arguments of ``assume=True`` reducer primitives must *provably*
  satisfy the primitive's declared input range (unknown is a finding:
  reduction inputs are the overflow-critical boundary).
* B-ARG — arguments of annotated non-assume callees are checked when the
  interpreter has a bound for them (a known bound above the contract is
  a finding; unknown is allowed — soundness here is bounded by
  annotation coverage, see DESIGN.md §9).
* B-LAZY — values written into working buffers (subscript stores and
  ``out=`` targets) must stay inside the declared ``max_q_multiple``
  window.
* B-OUT — returned values must satisfy the declared ``out_q`` /
  ``out_bits`` (``out_q_lazy`` applies when the declaration has one).
* B-ACC — every reduced axis (``.sum`` / ``@``) needs a declared
  ``max_lanes`` so accumulator growth is bounded.

Module-wide (annotation-independent) checks: ``astype(object)`` /
``dtype=object`` promotions (B-OBJ) everywhere, and narrowing integer
``astype`` outside any ``@bounded`` contract in the numeric roots.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .findings import Finding
from .registry import FuncInfo, ModuleInfo, Registry, const_eval

#: Largest representable modulus (all chains use q < 2**31).
Q_MAX = (1 << 31) - 1

#: Exclusive lane capacity per understood dtype.
CAPACITY = {
    "uint64": 1 << 64, "int64": 1 << 63,
    "uint32": 1 << 32, "int32": 1 << 31,
    "uint16": 1 << 16, "int16": 1 << 15,
    "uint8": 1 << 8, "int8": 1 << 7,
}

#: Verified input range of the 64/32 Barrett assembly: q**2 plus the
#: documented slack (fma_ adds the accumulator, wide_dot adds the folded
#: low word) stays within one extra conditional subtraction.
BARRETT_INPUT = (1 << 62) + (1 << 53)


@dataclass(frozen=True)
class AV:
    """Abstract value: exclusive integer bound + q-multiple + markers."""

    ub: Optional[int] = None          # value < ub (None = unbounded)
    q_mult: Optional[float] = None    # value < q_mult * q
    kq: Optional[float] = None        # value is exactly k * q
    bias_q: float = 0.0               # value >= bias_q * q (no-wrap Sub)
    marker: Optional[Tuple] = None    # in-flight reduction idiom
    shoup: Optional[int] = None       # Shoup companion table, < 2**shoup
    const: Optional[int] = None       # exact scalar value when known
    is_float: bool = False
    signed: bool = False
    root: Optional[str] = None        # alias root (buffer this views)

    def bounded(self) -> bool:
        return self.ub is not None

    def with_root(self, root: Optional[str]) -> "AV":
        return replace(self, root=root) if root != self.root else self


TOP = AV()
FLOAT = AV(is_float=True)
#: ``None`` sentinels: no integer values at all, identity under join —
#: so ``result = None`` accumulator loops keep the loop body's bound.
BOTTOM = AV(ub=0)


def q_av(mult: float, **kw) -> AV:
    return AV(ub=int(mult * Q_MAX) + 1, q_mult=mult, **kw)


def bits_av(bits: int, **kw) -> AV:
    return AV(ub=1 << bits, **kw)


def kq_av(k: float) -> AV:
    return AV(ub=int(k * Q_MAX) + 1, q_mult=k, kq=k)


def const_av(value: int) -> AV:
    return AV(ub=abs(value) + 1, const=value, signed=value < 0)


def av_from_spec(spec: dict) -> AV:
    """Abstract value declared by one ``params`` entry / in_q / in_bits."""
    if spec.get("modulus"):
        return kq_av(1)
    if spec.get("shoup") is not None:
        return AV(ub=1 << int(spec["shoup"]), shoup=int(spec["shoup"]))
    if spec.get("ubound") is not None:
        return AV(ub=int(spec["ubound"]))
    candidates = []
    if spec.get("q") is not None:
        candidates.append(q_av(spec["q"]))
    if spec.get("bits") is not None:
        candidates.append(bits_av(int(spec["bits"])))
    if not candidates:
        return TOP
    best = min(candidates, key=lambda a: a.ub)
    # keep the q_mult tag when both forms are declared
    q = next((a.q_mult for a in candidates if a.q_mult is not None), None)
    return replace(best, q_mult=q) if q is not None else best


def join(a: AV, b: AV) -> AV:
    """Least upper bound of two abstract values."""
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    if a is TOP and b is TOP:
        return TOP
    ub = None if a.ub is None or b.ub is None else max(a.ub, b.ub)
    q_mult = None if a.q_mult is None or b.q_mult is None \
        else max(a.q_mult, b.q_mult)
    return AV(
        ub=ub, q_mult=q_mult,
        kq=a.kq if a.kq == b.kq else None,
        bias_q=min(a.bias_q, b.bias_q),
        marker=a.marker if a.marker == b.marker else None,
        shoup=a.shoup if a.shoup == b.shoup else None,
        const=a.const if a.const == b.const else None,
        is_float=a.is_float or b.is_float,
        signed=a.signed or b.signed,
        root=a.root if a.root == b.root else None,
    )


def _sym(node: ast.expr) -> Optional[str]:
    return node.id if isinstance(node, ast.Name) else None


def _ann_class(ann: Optional[ast.expr]) -> Optional[str]:
    """Class name of a plain annotation (``BatchBarrettReducer``,
    ``barrett.BatchBarrettReducer``, or the string form)."""
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.strip("\"'").split(".")[-1].split("[")[0]
    return None


_PRESERVE_METHODS = {
    "reshape", "transpose", "copy", "ravel", "flatten", "squeeze",
    "swapaxes", "view", "take",
}
_PRESERVE_NP = {
    "ascontiguousarray", "asarray", "array", "copy", "broadcast_to",
    "abs", "uint64", "int64", "uint32", "int32", "uint8", "intp",
    "ndarray",
}
_FLOAT_NP = {"floor", "rint", "ceil", "sqrt", "float64", "float32"}
_FRESH_ZERO_NP = {"zeros", "zeros_like"}
_TOP_NP = {"empty", "empty_like", "ones", "ones_like", "arange", "outer"}

_INT_DTYPES = set(CAPACITY)
_FLOAT_DTYPES = {"float64", "float32", "float16", "float_", "double"}


def _dtype_name(node: ast.expr) -> Optional[str]:
    """Name of a dtype expression: ``np.uint64`` -> ``uint64``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class BoundsPass:
    """Interpret one annotated function body and collect findings."""

    def __init__(self, registry: Registry, info: FuncInfo,
                 module: ModuleInfo, findings: List[Finding]):
        self.registry = registry
        self.info = info
        self.module = module
        self.findings = findings
        self.spec = info.bounded or {}
        self.capacity = CAPACITY.get(self.spec.get("dtype") or "uint64",
                                     1 << 64)
        self.max_lanes = self.spec.get("max_lanes")
        self.window = self.spec.get("max_q_multiple")
        self.env: Dict[str, AV] = {}
        #: param name -> annotated class name, for exact method contracts.
        self.param_types: Dict[str, str] = {}
        #: local name -> class, tracked through simple assignments.
        self.var_types: Dict[str, str] = {}
        args = info.node.args
        for arg in list(args.args) + list(args.kwonlyargs) + \
                list(getattr(args, "posonlyargs", [])):
            tname = _ann_class(arg.annotation)
            if tname is not None:
                self.param_types[arg.arg] = tname

    # -- driver --------------------------------------------------------------

    def run(self) -> None:
        if self.spec.get("assume"):
            return
        node = self.info.node
        params = self.spec.get("params") or {}
        names = [p for p in self.info.params if p not in ("self", "cls")]
        for i, name in enumerate(names):
            if name in params:
                self.env[name] = av_from_spec(params[name])
            elif i == 0 and (self.spec.get("in_q") is not None
                             or self.spec.get("in_bits") is not None):
                self.env[name] = av_from_spec({
                    "q": self.spec.get("in_q"),
                    "bits": self.spec.get("in_bits"),
                })
        self.returns: List[Tuple[ast.AST, AV, bool]] = []
        self.exec_block(node.body)
        self.check_returns()

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.module.path,
            line=getattr(node, "lineno", self.info.line),
            func=self.info.qualname, message=message,
        ))

    # -- statements ----------------------------------------------------------

    def exec_block(self, stmts) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, value, stmt.value)
                if isinstance(target, ast.Name):
                    cls = self._receiver_class(stmt.value)
                    if cls is not None:
                        self.var_types[target.id] = cls
                    else:
                        self.var_types.pop(target.id, None)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.assign(stmt.target, self.eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            current = self.eval(stmt.target)
            value = self.binop(stmt.op, current, self.eval(stmt.value),
                               stmt.target, stmt.value, stmt)
            self.assign(stmt.target, value, stmt)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            av = TOP
            bare_self = isinstance(stmt.value, ast.Name) and \
                stmt.value.id in ("self", "cls")
            if stmt.value is not None:
                av = self.eval(stmt.value)
            self.returns.append((stmt, av, bare_self))
        elif isinstance(stmt, ast.If):
            saved = dict(self.env)
            self.exec_block(stmt.body)
            then_env = self.env
            self.env = dict(saved)
            self.exec_block(stmt.orelse)
            self.env = self._join_env(then_env, self.env)
        elif isinstance(stmt, (ast.While, ast.For)):
            if isinstance(stmt, ast.For):
                self._bind_loop_target(stmt.target, stmt.iter)
            # Two body passes give a fixpoint for the q-mult lattice used
            # here: one pass to widen, one to confirm stability.
            for _ in range(2):
                before = dict(self.env)
                if isinstance(stmt, ast.For):
                    self._bind_loop_target(stmt.target, stmt.iter)
                self.exec_block(stmt.body)
                self.env = self._join_env(before, self.env)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            saved = dict(self.env)
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                env = dict(saved)
                env, self.env = self.env, env
                self.exec_block(handler.body)
                self.env = self._join_env(env, self.env)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.With):
            self.exec_block(stmt.body)
        # Raise/Assert/Pass/Import/nested defs: no dataflow tracked.

    def _join_env(self, a: Dict[str, AV], b: Dict[str, AV]) -> Dict[str, AV]:
        out = {}
        for key in set(a) | set(b):
            if key in a and key in b:
                out[key] = join(a[key], b[key])
            else:
                out[key] = a.get(key, b.get(key, TOP))
        return out

    def _bind_loop_target(self, target: ast.expr, source: ast.expr) -> None:
        """Loop variables inherit the element bound of the iterated value
        (``for x in limbs`` / ``for i, x in enumerate(limbs)``)."""
        av = TOP
        if isinstance(source, ast.Call) and \
                isinstance(source.func, ast.Name) and \
                source.func.id in ("enumerate", "reversed", "sorted"):
            if source.args:
                av = self.eval(source.args[0])
            if source.func.id == "enumerate" and \
                    isinstance(target, ast.Tuple) and len(target.elts) == 2:
                self.assign(target.elts[0], TOP, source)
                self.assign(target.elts[1], av, source)
                return
        else:
            av = self.eval(source)
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self.assign(elt, av, source)
        else:
            self.assign(target, av, source)

    # -- assignments & stores ------------------------------------------------

    def assign(self, target: ast.expr, value: AV, origin: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self.assign(elt, value, origin)
        elif isinstance(target, ast.Subscript):
            self.store_into(target.value, value, origin, via_view=True)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value, origin)
        # Attribute stores belong to the aliasing pass.

    def store_into(self, base: ast.expr, value: AV, origin: ast.AST,
                   *, via_view: bool) -> None:
        """A write through a view/``out=`` target lands in the base buffer:
        join the stored bound into the buffer's and check the window."""
        self.check_store(value, origin, via_view=via_view)
        root = None
        if isinstance(base, ast.Name):
            root = self.env.get(base.id, TOP).root or base.id
        if root is not None:
            self.env[root] = join(self.env.get(root, TOP),
                                  value.with_root(root))

    def check_store(self, value: AV, origin: ast.AST, *,
                    via_view: bool) -> None:
        if value.is_float:
            return
        if via_view and value.marker and \
                value.marker[0] in ("wrap_diff", "minus_kq"):
            self.report(
                "B-OVF", origin,
                "possibly wrapped subtraction stored into a buffer before "
                "its min-fold recovers the borrow",
            )
        if self.window is not None and value.q_mult is not None and \
                value.q_mult > self.window:
            self.report(
                "B-LAZY", origin,
                f"stores a value < {value.q_mult:g}q but the declared "
                f"lazy window is max_q_multiple={self.window:g}",
            )

    def check_returns(self) -> None:
        out_q = self.spec.get("out_q")
        out_lazy = self.spec.get("out_q_lazy")
        out_bits = self.spec.get("out_bits")
        if out_q is None and out_bits is None and out_lazy is None:
            return
        eff_q = max(x for x in (out_q, out_lazy) if x is not None) \
            if (out_q is not None or out_lazy is not None) else None
        for node, av, bare_self in self.returns:
            if bare_self:
                continue
            if av.is_float:
                continue
            if av.marker and av.marker[0] in ("wrap_diff", "minus_kq"):
                self.report("B-OUT", node,
                            "returns a possibly wrapped subtraction")
                continue
            if not av.bounded():
                self.report(
                    "B-OUT", node,
                    "cannot prove the declared output bound "
                    f"(out_q={out_q!r}, out_bits={out_bits!r}) for this "
                    "return value",
                )
                continue
            if eff_q is not None and av.q_mult is not None:
                if av.q_mult > eff_q:
                    self.report(
                        "B-OUT", node,
                        f"returns a value < {av.q_mult:g}q, wider than the "
                        f"declared out_q={eff_q:g}",
                    )
                continue
            limit = None
            if out_bits is not None:
                limit = 1 << int(out_bits)
            elif eff_q is not None:
                limit = int(eff_q * Q_MAX) + 1
            if limit is not None and av.ub > limit:
                self.report(
                    "B-OUT", node,
                    f"returns a value < 2**{av.ub.bit_length() - 1}ish "
                    f"(ub={av.ub}), wider than the declared output bound "
                    f"{limit}",
                )

    # -- expression evaluation -----------------------------------------------

    def eval(self, node: ast.expr) -> AV:
        if isinstance(node, ast.Constant):
            if node.value is None:
                return BOTTOM
            if isinstance(node.value, bool):
                return TOP
            if isinstance(node.value, int):
                return const_av(node.value)
            if isinstance(node.value, float):
                return FLOAT
            return TOP
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            cval = self.module.constants.get(node.id)
            if cval is not None:
                return const_av(cval)
            return TOP
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            root = base.root or _sym(node.value)
            # A slice/gather preserves every value bound of the base.
            return replace(base, const=None, root=root)
        if isinstance(node, ast.BinOp):
            return self.binop(node.op, self.eval(node.left),
                              self.eval(node.right), node.left, node.right,
                              node)
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                return replace(inner, signed=True, const=None) \
                    if inner.bounded() else TOP
            return inner
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.IfExp):
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            avs = [self.eval(e) for e in node.elts]
            out = TOP
            if avs:
                out = avs[0]
                for av in avs[1:]:
                    out = join(out, av)
            return replace(out, root=None) if out is not TOP else TOP
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            saved = dict(self.env)
            for gen in node.generators:
                self._bind_loop_target(gen.target, gen.iter)
            out = self.eval(node.elt)
            self.env = saved
            return replace(out, root=None) if out is not TOP else TOP
        if isinstance(node, ast.Compare):
            for sub in [node.left] + node.comparators:
                self.eval(sub)
            return TOP
        if isinstance(node, ast.BoolOp):
            for sub in node.values:
                self.eval(sub)
            return TOP
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        return TOP

    def eval_attribute(self, node: ast.Attribute) -> AV:
        # Declared dotted param spec ("stack.omega") wins.
        if isinstance(node.value, ast.Name):
            dotted = f"{node.value.id}.{node.attr}"
            spec = (self.spec.get("params") or {}).get(dotted)
            if spec is not None:
                return av_from_spec(spec)
        if node.attr == "moduli":
            # A basis/stack modulus list: exact q values.
            return kq_av(1)
        return TOP

    # -- operators -----------------------------------------------------------

    def binop(self, op: ast.operator, left: AV, right: AV,
              left_node: ast.expr, right_node: ast.expr,
              origin: ast.AST) -> AV:
        if left.is_float or right.is_float:
            return FLOAT
        if isinstance(op, ast.Add):
            return self.op_add(left, right, left_node, origin)
        if isinstance(op, ast.Sub):
            return self.op_sub(left, right, left_node, origin)
        if isinstance(op, ast.Mult):
            return self.op_mult(left, right, left_node, right_node, origin)
        if isinstance(op, ast.MatMult):
            return self.op_matmult(left, right, origin)
        if isinstance(op, ast.RShift):
            return self.op_rshift(left, right)
        if isinstance(op, ast.LShift):
            return self.op_lshift(left, right, origin)
        if isinstance(op, ast.BitAnd):
            ubounds = [a.ub for a in (left, right) if a.ub is not None]
            return AV(ub=min(ubounds)) if ubounds else TOP
        if isinstance(op, ast.BitOr):
            if left.ub is not None and right.ub is not None:
                # OR of split halves: bounded by the wider operand's bits.
                bits = max((left.ub - 1).bit_length(),
                           (right.ub - 1).bit_length())
                return self._checked(AV(ub=1 << bits), origin)
            return TOP
        if isinstance(op, ast.Mod):
            if right.kq is not None:
                return q_av(right.kq)
            if right.const is not None and right.const > 0:
                return AV(ub=right.const)
            return AV(ub=left.ub) if left.ub is not None else TOP
        if isinstance(op, ast.FloorDiv):
            if left.marker and left.marker[0] == "q_shl" and \
                    right.kq == 1:
                # floor(w << s / q) < 2**s for w < q: the Shoup companion.
                return AV(ub=1 << left.marker[1])
            return AV(ub=left.ub) if left.ub is not None else TOP
        if isinstance(op, ast.Div):
            return FLOAT
        if isinstance(op, ast.Pow):
            if left.const is not None and right.const is not None:
                return const_av(left.const ** right.const)
            return TOP
        return TOP

    def _checked(self, av: AV, origin: ast.AST) -> AV:
        """Capacity obligation on every fresh arithmetic result."""
        if not av.is_float and av.ub is not None and av.ub > self.capacity:
            self.report(
                "B-OVF", origin,
                f"intermediate may reach {av.ub - 1} "
                f"(~2**{(av.ub - 1).bit_length()}), beyond the "
                f"{self.spec.get('dtype') or 'uint64'} lane capacity",
            )
        return av

    def op_add(self, left: AV, right: AV, left_node: ast.expr,
               origin: ast.AST) -> AV:
        if left.kq is not None and right.kq is not None:
            return kq_av(left.kq + right.kq)
        # X + k*q: biased value for a later no-wrap subtraction.
        for a, b, node in ((left, right, left_node),
                           (right, left, left_node)):
            if b.kq is not None and a.q_mult is not None:
                if a.marker and a.marker[0] == "wrap_diff":
                    # d + kq ahead of min(d, d + kq): the borrow fold.
                    _, lo_mult, hi_k = a.marker
                    if b.kq >= hi_k:
                        return AV(
                            ub=1 << 64,
                            marker=("wrap_fix", _sym(node),
                                    max(lo_mult, b.kq)),
                        )
                return self._checked(
                    replace(q_av(a.q_mult + b.kq),
                            bias_q=a.bias_q + b.kq),
                    origin,
                )
        if left.marker and left.marker[0] == "wrap_diff" and \
                right.kq is not None:
            _, lo_mult, hi_k = left.marker
            if right.kq >= hi_k:
                return AV(ub=1 << 64,
                          marker=("wrap_fix", _sym(left_node),
                                  max(lo_mult, right.kq)))
        if left.ub is None or right.ub is None:
            return TOP
        q_mult = None
        if left.q_mult is not None and right.q_mult is not None:
            q_mult = left.q_mult + right.q_mult
        return self._checked(
            AV(ub=left.ub + right.ub - 1, q_mult=q_mult,
               signed=left.signed or right.signed),
            origin,
        )

    def op_sub(self, left: AV, right: AV, left_node: ast.expr,
               origin: ast.AST) -> AV:
        # Shoup fold: (a*w) - ((a*wsh) >> 32) * q  ->  value < 2q.
        if left.marker and right.marker and \
                left.marker[0] == "prod_q" and right.marker[0] == "shoup_t" \
                and left.marker[1] is not None \
                and left.marker[1] == right.marker[1]:
            orig_ub = max(left.marker[2], right.marker[2])
            if orig_ub <= (1 << 32):
                return q_av(2)
            self.report(
                "B-OVF", origin,
                "Shoup lazy product operand exceeds 2**32; the < 2q "
                "guarantee of the Harvey butterfly no longer holds",
            )
            return TOP
        if left.signed or right.signed:
            if left.ub is None or right.ub is None:
                return TOP
            return self._checked(
                AV(ub=left.ub + right.ub - 1, signed=True), origin
            )
        # q - x with x < q: the negation pattern (np.where guards x == 0).
        if left.kq is not None and right.q_mult is not None and \
                right.q_mult <= left.kq:
            return q_av(left.kq)
        # Biased subtraction cannot wrap: (x + kq) - y with y < kq.
        if right.q_mult is not None and left.bias_q >= right.q_mult:
            if left.ub is None:
                return TOP
            return AV(ub=left.ub, q_mult=left.q_mult,
                      bias_q=left.bias_q - right.q_mult)
        # X - kq ahead of min(X, X - kq): the lazy canonicalization.
        if right.kq is not None:
            return AV(ub=1 << 64,
                      marker=("minus_kq", _sym(left_node), right.kq))
        # Wrapping difference of two q-bounded legs, folded later by
        # min(d, d + kq).
        if left.q_mult is not None and right.q_mult is not None:
            return AV(ub=1 << 64,
                      marker=("wrap_diff", left.q_mult, right.q_mult))
        if left.ub is not None and right.ub is not None:
            # Unsigned subtraction of unclassified operands: may wrap.
            return AV(ub=1 << 64, marker=("wrap_diff",
                                          float((left.ub - 1) // Q_MAX + 1),
                                          float((right.ub - 1) // Q_MAX + 1)))
        return TOP

    def op_mult(self, left: AV, right: AV, left_node: ast.expr,
                right_node: ast.expr, origin: ast.AST) -> AV:
        # Shoup companion product: a * wsh, tagged for the >> 32 step.
        for a, b, a_node in ((left, right, left_node),
                             (right, left, right_node)):
            if b.shoup is not None and a.ub is not None:
                return self._checked(
                    AV(ub=(a.ub - 1) * (b.ub - 1) + 1,
                       marker=("shoup_raw", _sym(a_node), a.ub)),
                    origin,
                )
        # (shoup shifted) * q: the subtrahend of the lazy fold.
        for a, b in ((left, right), (right, left)):
            if a.marker and a.marker[0] == "shoup_shift" and \
                    b.kq is not None:
                ub = (a.ub - 1) * int(b.kq * Q_MAX) + 1 \
                    if a.ub is not None else None
                return self._checked(
                    AV(ub=ub, marker=("shoup_t",) + a.marker[1:]), origin
                )
        # a * w with w < q: the plain leg of the Shoup product.
        for a, b, a_node in ((left, right, left_node),
                             (right, left, right_node)):
            if b.q_mult == 1 and b.kq is None and a.ub is not None and \
                    a.q_mult != 1:
                return self._checked(
                    AV(ub=(a.ub - 1) * (b.ub - 1) + 1,
                       marker=("prod_q", _sym(a_node), a.ub),
                       signed=a.signed or b.signed),
                    origin,
                )
        if left.ub is not None and right.ub is not None:
            return self._checked(
                AV(ub=(left.ub - 1) * (right.ub - 1) + 1,
                   signed=left.signed or right.signed),
                origin,
            )
        return TOP

    def op_matmult(self, left: AV, right: AV, origin: ast.AST) -> AV:
        if self.max_lanes is None:
            self.report(
                "B-ACC", origin,
                "matrix contraction without a declared max_lanes bound — "
                "the accumulator depth is unchecked",
            )
            return TOP
        if left.ub is None or right.ub is None:
            self.report(
                "B-ACC", origin,
                "cannot bound the operands of this matrix contraction",
            )
            return TOP
        ub = (left.ub - 1) * (right.ub - 1) * int(self.max_lanes) + 1
        return self._checked(AV(ub=ub), origin)

    def reduce_sum(self, operand: AV, origin: ast.AST) -> AV:
        if operand.is_float:
            return FLOAT
        if self.max_lanes is None:
            self.report(
                "B-ACC", origin,
                "axis reduction without a declared max_lanes bound — "
                "the accumulator depth is unchecked",
            )
            return TOP
        if operand.ub is None:
            self.report("B-ACC", origin,
                        "cannot bound the operand of this axis reduction")
            return TOP
        return self._checked(
            AV(ub=(operand.ub - 1) * int(self.max_lanes) + 1), origin
        )

    def op_rshift(self, left: AV, right: AV) -> AV:
        shift = right.const
        if shift is None or left.ub is None:
            return TOP
        av = AV(ub=((left.ub - 1) >> shift) + 1)
        if left.marker and left.marker[0] == "shoup_raw" and shift == 32:
            av = replace(av, marker=("shoup_shift",) + left.marker[1:])
        return av

    def op_lshift(self, left: AV, right: AV, origin: ast.AST) -> AV:
        shift = right.const
        if shift is None or left.ub is None:
            return TOP
        av = AV(ub=((left.ub - 1) << shift) + 1)
        if left.q_mult is not None and left.q_mult <= 1:
            av = replace(av, marker=("q_shl", shift))
        return self._checked(av, origin)

    # -- calls ---------------------------------------------------------------

    def eval_call(self, node: ast.Call) -> AV:
        func = node.func
        # numpy ufuncs, possibly with out=/where= store semantics.
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and func.value.id == "np":
            return self.eval_np_call(node, func.attr)
        if isinstance(func, ast.Attribute):
            return self.eval_method_call(node, func)
        if isinstance(func, ast.Name):
            return self.eval_name_call(node, func.id)
        return TOP

    def eval_name_call(self, node: ast.Call, name: str) -> AV:
        if name == "pow" and len(node.args) == 3:
            for arg in node.args:
                self.eval(arg)
            return q_av(1)  # 3-arg pow: result below the modulus
        if name in ("int", "len", "min", "max", "abs", "round"):
            avs = [self.eval(a) for a in node.args]
            if name in ("min", "max") and avs and \
                    all(a.ub is not None for a in avs):
                pick = min if name == "min" else max
                return AV(ub=pick(a.ub for a in avs))
            if name in ("int", "abs") and avs:
                return avs[0]
            return TOP
        if name == "float":
            for arg in node.args:
                self.eval(arg)
            return FLOAT
        info = self.registry.lookup(name)
        if info is not None and info.bounded is not None:
            return self.contract_call(node, info, skip_self=False)
        for arg in node.args:
            self.eval(arg)
        return TOP

    def eval_method_call(self, node: ast.Call, func: ast.Attribute) -> AV:
        method = func.attr
        recv = self.eval(func.value)
        if method in _PRESERVE_METHODS:
            for arg in node.args:
                self.eval(arg)
            return recv
        if method == "astype":
            return self.handle_astype(node, recv)
        if method == "sum":
            return self.reduce_sum(recv, node)
        if method in ("min", "max"):
            return AV(ub=recv.ub) if recv.ub is not None else TOP
        if method == "q_col":
            # Reducer accessor for the broadcast modulus column.
            return kq_av(1)
        if method in ("setflags", "fill", "sort", "get", "append",
                      "extend", "items", "keys", "values", "update"):
            for arg in node.args:
                self.eval(arg)
            return TOP
        info = self.registry.lookup_method(
            self._receiver_class(func.value), method
        )
        if info is not None and info.bounded is not None:
            return self.contract_call(node, info, skip_self=True)
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            self.eval(kw.value)
        return TOP

    def _receiver_class(self, recv: ast.expr) -> Optional[str]:
        """Known class of a method receiver: a typed parameter or
        tracked local, the enclosing class for ``self``, a direct
        constructor call, or an attribute chain resolved through class
        field / property annotations (``self.context.barrett``)."""
        if isinstance(recv, ast.Name):
            if recv.id == "self" and "." in self.info.qualname:
                return self.info.qualname.rsplit(".", 1)[0]
            return self.var_types.get(recv.id) or \
                self.param_types.get(recv.id)
        if isinstance(recv, ast.Attribute):
            base = self._receiver_class(recv.value)
            if base is not None:
                return self.registry.attr_class(base, recv.attr)
            return None
        if isinstance(recv, ast.Call) and isinstance(recv.func, ast.Name):
            if recv.func.id[:1].isupper():
                return recv.func.id
            # Factory call: resolve through the callee's return annotation
            # (e.g. ``active_backend() -> NumpyBackend`` dispatches to the
            # kernels' contracts).
            return self.registry.return_class(recv.func.id)
        return None

    def handle_astype(self, node: ast.Call, operand: AV) -> AV:
        dtype = _dtype_name(node.args[0]) if node.args else None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype = _dtype_name(kw.value)
        if dtype == "object":
            self.report("B-OBJ", node,
                        "astype(object) silently promotes to Python "
                        "bigints — use a split-reduction path instead")
            return TOP
        if dtype in _FLOAT_DTYPES:
            return FLOAT
        if dtype in _INT_DTYPES:
            cap = CAPACITY[dtype]
            if operand.ub is not None and operand.ub > cap:
                self.report(
                    "B-OVF", node,
                    f"astype({dtype}) may truncate: operand can reach "
                    f"{operand.ub - 1} (~2**{(operand.ub - 1).bit_length()})",
                )
                return AV(ub=cap, signed=dtype.startswith("int"))
            if operand.is_float or operand.ub is None:
                # Unknown operand re-entering integer lanes: trivially
                # below the capacity but nothing stronger.
                return AV(ub=None, signed=dtype.startswith("int"))
            return replace(operand, signed=operand.signed
                           or dtype.startswith("int"))
        if dtype == "intp" or dtype == "bool":
            return TOP
        self.report("B-OVF", node,
                    f"astype to unrecognized dtype {dtype!r} — annotate "
                    "or use an understood lane type")
        return TOP

    def eval_np_call(self, node: ast.Call, name: str) -> AV:
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if name in ("add", "subtract", "multiply", "minimum", "maximum",
                    "bitwise_and", "bitwise_or", "right_shift",
                    "left_shift", "mod", "floor_divide") and \
                len(node.args) >= 2:
            left = self.eval(node.args[0])
            right = self.eval(node.args[1])
            result = self.np_binary(name, node, left, right, kwargs)
            out = kwargs.get("out")
            if out is not None:
                if isinstance(out, ast.Name):
                    self.check_store(result, node, via_view=False)
                    prior = self.env.get(out.id, TOP)
                    self.env[out.id] = result.with_root(prior.root)
                    if prior.root is not None:
                        self.env[prior.root] = join(
                            self.env.get(prior.root, TOP),
                            result.with_root(prior.root),
                        )
                elif isinstance(out, ast.Subscript):
                    self.store_into(out.value, result, node, via_view=True)
            return result
        if name == "where" and len(node.args) == 3:
            self.eval(node.args[0])
            return join(self.eval(node.args[1]), self.eval(node.args[2]))
        if name in ("stack", "concatenate", "hstack", "vstack"):
            return self.eval(node.args[0]) if node.args else TOP
        if name in _PRESERVE_NP:
            return self.eval(node.args[0]) if node.args else TOP
        if name in _FLOAT_NP:
            for arg in node.args:
                self.eval(arg)
            return FLOAT
        if name in _FRESH_ZERO_NP:
            return AV(ub=1)
        if name in _TOP_NP:
            return TOP
        if name == "sum" and node.args:
            return self.reduce_sum(self.eval(node.args[0]), node)
        if name == "matmul" and len(node.args) == 2:
            return self.op_matmult(self.eval(node.args[0]),
                                   self.eval(node.args[1]), node)
        for arg in node.args:
            self.eval(arg)
        return TOP

    def np_binary(self, name: str, node: ast.Call, left: AV, right: AV,
                  kwargs: Dict[str, ast.expr]) -> AV:
        where = kwargs.get("where")
        if name == "subtract" and where is not None:
            # Conditional subtraction: np.subtract(x, kq, out=x,
            # where=x >= kq) tightens x by k q-multiples.
            if right.kq is not None and left.q_mult is not None and \
                    self._where_guards(where, node.args[0], node.args[1]):
                return q_av(max(left.q_mult - right.kq, right.kq))
            return join(left, self.op_sub(left, right, node.args[0], node))
        if name == "add" and where is not None:
            return join(left, self.op_add(left, right, node.args[0], node))
        op_map = {
            "add": ast.Add(), "subtract": ast.Sub(), "multiply": ast.Mult(),
            "bitwise_and": ast.BitAnd(), "bitwise_or": ast.BitOr(),
            "right_shift": ast.RShift(), "left_shift": ast.LShift(),
            "mod": ast.Mod(), "floor_divide": ast.FloorDiv(),
        }
        if name in ("minimum", "maximum"):
            return self.np_minimum(name, left, right, node)
        return self.binop(op_map[name], left, right, node.args[0],
                          node.args[1], node)

    def _where_guards(self, where: ast.expr, target: ast.expr,
                      threshold: ast.expr) -> bool:
        """True for ``where=target >= threshold`` (textually)."""
        return (
            isinstance(where, ast.Compare)
            and len(where.ops) == 1
            and isinstance(where.ops[0], (ast.GtE, ast.Gt))
            and ast.dump(where.left) == ast.dump(target)
            and ast.dump(where.comparators[0]) == ast.dump(threshold)
        )

    def np_minimum(self, name: str, left: AV, right: AV,
                   node: ast.Call) -> AV:
        if name == "minimum":
            for a, b, a_node in ((left, right, node.args[0]),
                                 (right, left, node.args[1])):
                if b.marker and b.marker[0] == "minus_kq" and \
                        b.marker[1] is not None and \
                        b.marker[1] == _sym(a_node) and \
                        a.q_mult is not None:
                    # min(s, s - kq) folds s < mq into < max(m-k, k) q.
                    k = b.marker[2]
                    return q_av(max(a.q_mult - k, k))
                if b.marker and b.marker[0] == "wrap_fix" and \
                        b.marker[1] is not None and \
                        b.marker[1] == _sym(a_node) and \
                        a.marker and a.marker[0] == "wrap_diff":
                    # min(d, d + kq) recovers the wrapped borrow.
                    return q_av(b.marker[2])
            ubounds = [a.ub for a in (left, right) if a.ub is not None]
            return AV(ub=min(ubounds)) if ubounds else TOP
        ubounds = [a.ub for a in (left, right)]
        if None in ubounds:
            return TOP
        return AV(ub=max(ubounds))

    # -- annotated callee contracts ------------------------------------------

    def contract_call(self, node: ast.Call, callee: FuncInfo,
                      *, skip_self: bool) -> AV:
        spec = callee.bounded
        params = [p for p in callee.params if p not in ("self", "cls")]
        mapping: List[Tuple[str, ast.expr]] = []
        for i, arg in enumerate(node.args):
            if i < len(params):
                mapping.append((params[i], arg))
            else:
                self.eval(arg)
        kw_vals: Dict[str, ast.expr] = {}
        for kw in node.keywords:
            if kw.arg and kw.arg in params:
                mapping.append((kw.arg, kw.value))
            elif kw.arg:
                kw_vals[kw.arg] = kw.value
                self.eval(kw.value)
            else:
                self.eval(kw.value)

        arg_avs: Dict[str, AV] = {}
        first_param = params[0] if params else None
        for pname, arg_node in mapping:
            av = self.eval(arg_node)
            arg_avs[pname] = av
            pspec = (spec.get("params") or {}).get(pname)
            if pspec is None and pname == first_param and (
                    spec.get("in_q") is not None
                    or spec.get("in_bits") is not None):
                pspec = {"q": spec.get("in_q"),
                         "bits": spec.get("in_bits")}
            if pspec is None:
                continue
            self.check_arg(node, callee, pname, av, pspec)

        if spec.get("passthrough"):
            return arg_avs.get(spec["passthrough"], TOP)
        lazy_kw = kw_vals.get("lazy")
        use_lazy = isinstance(lazy_kw, ast.Constant) and \
            lazy_kw.value is True and spec.get("out_q_lazy") is not None
        out_q = spec.get("out_q_lazy") if use_lazy else spec.get("out_q")
        if out_q is not None:
            return q_av(out_q)
        if spec.get("out_bits") is not None:
            return bits_av(int(spec["out_bits"]))
        return TOP

    def check_arg(self, node: ast.Call, callee: FuncInfo, pname: str,
                  av: AV, pspec: dict) -> None:
        rule = "B-RED" if callee.bounded.get("assume") else "B-ARG"
        if av.is_float:
            return
        if pspec.get("modulus"):
            if av.kq is None and av.bounded():
                self.report(
                    rule, node,
                    f"argument {pname!r} of {callee.name} must be the "
                    "exact modulus column",
                )
            return
        limit = av_from_spec(pspec).ub
        if limit is None:
            return
        if av.marker and av.marker[0] in ("wrap_diff", "minus_kq"):
            self.report(
                rule, node,
                f"argument {pname!r} of {callee.name} may hold a wrapped "
                "subtraction",
            )
            return
        if av.ub is None:
            if rule == "B-RED":
                self.report(
                    rule, node,
                    f"cannot prove argument {pname!r} of {callee.name} "
                    f"stays below its declared input range ({limit})",
                )
            return
        if av.ub > limit:
            self.report(
                rule, node,
                f"argument {pname!r} of {callee.name} can reach "
                f"{av.ub - 1} (~2**{(av.ub - 1).bit_length()}), beyond the "
                f"declared input range ({limit})",
            )


# -- module-wide syntactic checks --------------------------------------------


def _exact_oracle_spans(module: ModuleInfo) -> List[tuple]:
    """Line spans of functions decorated ``@exact_oracle`` — declared
    bigint reference oracles where object-dtype arithmetic is the
    intent, not a silent fallback."""
    spans = []
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else \
                getattr(target, "id", None)
            if name == "exact_oracle":
                spans.append(
                    (node.lineno, getattr(node, "end_lineno", node.lineno)))
                break
    return spans


def object_dtype_findings(module: ModuleInfo,
                          func_of_line) -> List[Finding]:
    """B-OBJ: every ``astype(object)`` / ``dtype=object`` in the module,
    except inside ``@exact_oracle``-declared reference implementations."""
    oracle_spans = _exact_oracle_spans(module)
    out: List[Finding] = []
    for node in ast.walk(module.tree):
        if any(lo <= getattr(node, "lineno", 0) <= hi
               for lo, hi in oracle_spans):
            continue
        hit = None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "astype" and node.args:
                if _dtype_name(node.args[0]) == "object":
                    hit = "astype(object) promotes to Python bigints"
            for kw in node.keywords:
                if kw.arg == "dtype" and _dtype_name(kw.value) == "object":
                    hit = "dtype=object allocates a Python-object array"
        if hit:
            out.append(Finding(
                rule="B-OBJ", path=module.path, line=node.lineno,
                func=func_of_line(node.lineno),
                message=hit + " — silent arbitrary-precision fallback",
            ))
    return out


def unannotated_astype_findings(module: ModuleInfo, registry: Registry,
                                func_of_line) -> List[Finding]:
    """Narrowing integer ``astype`` outside any ``@bounded`` contract in
    the numeric roots (ntt/numtheory): silent truncation risk."""
    annotated_spans = []
    for infos in registry.functions.values():
        for info in infos:
            if info.path == module.path and info.bounded is not None:
                end = getattr(info.node, "end_lineno", info.line)
                annotated_spans.append((info.line, end))

    def covered(line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in annotated_spans)

    out: List[Finding] = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype" and node.args):
            continue
        dtype = _dtype_name(node.args[0])
        if dtype not in _INT_DTYPES or CAPACITY[dtype] >= (1 << 63):
            continue
        if covered(node.lineno):
            continue
        out.append(Finding(
            rule="B-OVF", path=module.path, line=node.lineno,
            func=func_of_line(node.lineno),
            message=f"narrowing astype({dtype}) outside any @bounded "
                    "contract — annotate the enclosing kernel",
        ))
    return out
