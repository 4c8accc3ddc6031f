"""Cross-module annotation registry.

Parses every file under the lint roots once, records each function's
``repro.analysis.annotations`` decorators (by reading the decorator AST —
the linter never imports the code it checks), module-level integer
constants, ``@frozen`` classes (including ``@dataclass(frozen=True)``),
and return-type hints pointing at frozen classes. Rule passes resolve
call sites against this registry by bare function/method name; when two
definitions share a name their declared contracts are merged
conservatively (weakest input obligation, weakest output guarantee) so a
collision can cause a missed finding but never a false positive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Decorator names we understand (see repro/analysis/annotations.py).
_FORM_DECOS = {"coeff_form": "coeff", "eval_form": "eval"}
_DOMAIN_DECOS = {"montgomery_domain": "montgomery",
                 "standard_domain": "standard"}


@dataclass
class FuncInfo:
    """Annotation metadata of one function/method definition."""

    name: str
    qualname: str
    path: str
    line: int
    params: List[str]
    is_method: bool
    bounded: Optional[dict] = None
    returns_form: Optional[str] = None
    returns_domain: Optional[str] = None
    takes_form: Dict[str, str] = field(default_factory=dict)
    takes_domain: Dict[str, str] = field(default_factory=dict)
    returns_view: bool = False
    return_type: Optional[str] = None
    node: Optional[ast.AST] = None


@dataclass
class ModuleInfo:
    path: str
    tree: ast.Module
    source_lines: List[str]
    constants: Dict[str, int] = field(default_factory=dict)


class Registry:
    """All annotation facts visible to the rule passes."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: bare name -> all definitions carrying that name.
        self.functions: Dict[str, List[FuncInfo]] = {}
        self.frozen_classes: set = set()
        #: class name -> attr -> "array" | "immutable" | "container".
        #: Inferred from dataclass field annotations and ``__init__``
        #: assignments; drives which ``self.X`` count as shared buffers.
        self.class_attr_kinds: Dict[str, Dict[str, str]] = {}
        #: "Class.method" -> FuncInfo, for receivers whose class is known
        #: (typed parameters) — exact contracts, no weakest-merge.
        self.by_qualname: Dict[str, FuncInfo] = {}
        #: class name -> attr -> class name of the attribute's value, from
        #: field annotations and ``self.x = ClassName(...)`` assignments.
        self.class_attr_types: Dict[str, Dict[str, str]] = {}

    def attr_kind(self, class_name: str, attr: str) -> Optional[str]:
        return self.class_attr_kinds.get(class_name, {}).get(attr)

    def attr_class(self, class_name: str, attr: str) -> Optional[str]:
        """Class of ``class_name.attr``: a typed/constructed field, or
        an annotated method/property return."""
        typed = self.class_attr_types.get(class_name, {}).get(attr)
        if typed is not None:
            return typed
        info = self.by_qualname.get(f"{class_name}.{attr}")
        if info is not None:
            return _ann_class_name(info.node.returns)
        return None

    def return_class(self, name: str) -> Optional[str]:
        """Class named by the return annotation of the (unique) function
        ``name`` — resolves receivers like ``active_backend().mod_mul``
        to the annotated kernel contract."""
        infos = self.functions.get(name)
        if infos and len(infos) == 1 and infos[0].node is not None:
            return _ann_class_name(infos[0].node.returns)
        return None

    def lookup_method(self, class_name: Optional[str],
                      method: str) -> Optional["FuncInfo"]:
        """Exact contract of ``class_name.method`` when the receiver's
        class is known; falls back to the bare-name weakest merge."""
        if class_name is not None:
            info = self.by_qualname.get(f"{class_name}.{method}")
            if info is not None:
                return info
        return self.lookup(method)

    # -- queries -------------------------------------------------------------

    def lookup(self, name: str) -> Optional[FuncInfo]:
        """Resolve a call-site name to merged annotation facts.

        Multiple same-named definitions merge conservatively: a tag or
        contract survives only if no sibling contradicts it.
        """
        infos = self.functions.get(name)
        if not infos:
            return None
        if len(infos) == 1:
            return infos[0]
        merged = FuncInfo(
            name=name, qualname=name, path=infos[0].path,
            line=infos[0].line, params=infos[0].params,
            is_method=infos[0].is_method,
        )
        forms = {i.returns_form for i in infos}
        domains = {i.returns_domain for i in infos}
        merged.returns_form = forms.pop() if len(forms) == 1 else None
        merged.returns_domain = domains.pop() if len(domains) == 1 else None
        for key in ("takes_form", "takes_domain"):
            dicts = [getattr(i, key) for i in infos]
            out: Dict[str, str] = {}
            for param in set().union(*dicts):
                tags = {d.get(param) for d in dicts}
                if len(tags) == 1 and None not in tags:
                    out[param] = tags.pop()
            setattr(merged, key, out)
        boundeds = [i.bounded for i in infos if i.bounded is not None]
        if len(boundeds) == len(infos) and boundeds:
            merged.bounded = _merge_bounded(boundeds)
        return merged

    # -- construction --------------------------------------------------------

    def add_module(self, path: str, source: str) -> Optional[ModuleInfo]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
        mod = ModuleInfo(path=path, tree=tree,
                         source_lines=source.splitlines())
        mod.constants = _module_constants(tree)
        self.modules[path] = mod
        self._collect_defs(tree, path, qual=(), in_class=False,
                           constants=mod.constants)
        return mod

    def _collect_defs(self, node: ast.AST, path: str, qual: Tuple[str, ...],
                      in_class: bool, constants: Dict[str, int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_frozen_class(child):
                    self.frozen_classes.add(child.name)
                kinds = self.class_attr_kinds.setdefault(child.name, {})
                kinds.update(_class_attr_kinds(child))
                types = self.class_attr_types.setdefault(child.name, {})
                types.update(_class_attr_types(child))
                self._collect_defs(child, path, qual + (child.name,), True,
                                   constants)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _func_info(child, path, qual, in_class, constants)
                self.functions.setdefault(info.name, []).append(info)
                if in_class:
                    self.by_qualname.setdefault(
                        f"{qual[-1]}.{info.name}", info
                    )
                self._collect_defs(child, path, qual + (child.name,), False,
                                   constants)


def _merge_bounded(specs: List[dict]) -> dict:
    """Weakest-contract merge of colliding ``@bounded`` declarations."""
    merged = dict(specs[0])
    for other in specs[1:]:
        for key in ("in_q", "in_bits", "max_q_multiple", "out_q",
                    "out_bits", "out_q_lazy", "max_lanes"):
            a, b = merged.get(key), other.get(key)
            merged[key] = None if a is None or b is None else max(a, b)
        if merged.get("dtype") != other.get("dtype"):
            merged["dtype"] = "uint64"
        merged["assume"] = merged.get("assume") or other.get("assume")
        if merged.get("params") != other.get("params"):
            shared = {}
            for name, spec in (merged.get("params") or {}).items():
                other_spec = (other.get("params") or {}).get(name)
                if other_spec == spec:
                    shared[name] = spec
                elif other_spec is not None:
                    weak = _merge_param_spec(spec, other_spec)
                    if weak is not None:
                        shared[name] = weak
            merged["params"] = shared
    return merged


def _merge_param_spec(a: dict, b: dict) -> Optional[dict]:
    """Weakest merge of two per-parameter specs: numeric bounds take the
    larger value; structural claims (shoup/modulus) must agree or the
    whole spec is dropped (None) so no false obligation survives."""
    if a.get("modulus") != b.get("modulus") or a.get("shoup") != b.get("shoup"):
        return None
    out = {}
    for key in ("q", "bits", "ubound"):
        va, vb = a.get(key), b.get(key)
        if va is not None and vb is not None:
            out[key] = max(va, vb)
    for key in ("modulus", "shoup"):
        if a.get(key) is not None:
            out[key] = a[key]
    return out or None


# -- AST helpers -------------------------------------------------------------


def _deco_bare(deco: ast.expr) -> str:
    target = deco.func if isinstance(deco, ast.Call) else deco
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return ""


def const_eval(node: ast.expr, constants: Optional[Dict[str, int]] = None):
    """Evaluate a literal-ish expression: ints, floats, strings, tuples,
    dicts, ``2**20``-style arithmetic, ``np.uint64(32)`` wrappers and
    known module constants. Returns None when not statically evaluable."""
    constants = constants or {}
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.Attribute):
        # np.uint64 and friends used as dtype markers -> their name.
        return node.attr
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        val = const_eval(node.operand, constants)
        return -val if isinstance(val, (int, float)) else None
    if isinstance(node, ast.BinOp):
        left = const_eval(node.left, constants)
        right = const_eval(node.right, constants)
        if not isinstance(left, (int, float)) or \
                not isinstance(right, (int, float)):
            return None
        try:
            if isinstance(node.op, ast.Pow):
                return left ** right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.LShift):
                return left << right
            if isinstance(node.op, ast.RShift):
                return left >> right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.BitAnd):
                return left & right
            if isinstance(node.op, ast.BitOr):
                return left | right
        except (TypeError, ValueError):
            return None
        return None
    if isinstance(node, ast.Tuple):
        vals = [const_eval(e, constants) for e in node.elts]
        return None if any(v is None for v in vals) else tuple(vals)
    if isinstance(node, ast.List):
        vals = [const_eval(e, constants) for e in node.elts]
        return None if any(v is None for v in vals) else list(vals)
    if isinstance(node, ast.Dict):
        out = {}
        for k, v in zip(node.keys, node.values):
            if k is None:
                return None
            key = const_eval(k, constants)
            val = const_eval(v, constants)
            if key is None or val is None:
                return None
            out[key] = val
        return out
    if isinstance(node, ast.Call):
        # np.uint64(32) / int(...) wrappers around a literal.
        if len(node.args) == 1 and not node.keywords:
            return const_eval(node.args[0], constants)
    return None


def _module_constants(tree: ast.Module) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            val = const_eval(stmt.value, out)
            if isinstance(val, int):
                out[stmt.targets[0].id] = val
    return out


_ARRAY_TYPE_NAMES = {"ndarray", "NDArray", "array", "matrix"}
_IMMUTABLE_TYPE_NAMES = {"str", "int", "float", "bool", "bytes", "tuple",
                         "Tuple", "frozenset", "complex", "type", "None"}
_CONTAINER_TYPE_NAMES = {"dict", "Dict", "list", "List", "set", "Set",
                         "defaultdict", "OrderedDict", "deque"}
_ARRAY_CTOR_NAMES = {"array", "asarray", "ascontiguousarray", "zeros",
                     "ones", "empty", "full", "zeros_like", "ones_like",
                     "empty_like", "full_like", "arange", "copy", "stack",
                     "concatenate", "where", "outer"}
_IMMUTABLE_CTOR_NAMES = {"tuple", "str", "int", "float", "bool", "len",
                         "frozenset", "bytes"}


def _ann_kind(node: Optional[ast.expr]) -> Optional[str]:
    """Kind implied by a type annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
        for name in _ARRAY_TYPE_NAMES:
            if name in text:
                return "array"
        head = text.split("[")[0].split(".")[-1].strip()
        if head in _IMMUTABLE_TYPE_NAMES:
            return "immutable"
        if head in _CONTAINER_TYPE_NAMES:
            return "container"
        return None
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Subscript):
        # Dict[...] / Optional[...] — classify by the head.
        return _ann_kind(node.value)
    if name in _ARRAY_TYPE_NAMES:
        return "array"
    if name in _IMMUTABLE_TYPE_NAMES:
        return "immutable"
    if name in _CONTAINER_TYPE_NAMES:
        return "container"
    return None


def _rhs_kind(node: ast.expr) -> Optional[str]:
    """Kind implied by an ``__init__`` assignment's right-hand side."""
    if isinstance(node, ast.Constant):
        return "immutable"
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return "container"
    if isinstance(node, ast.Tuple):
        return "immutable"
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _IMMUTABLE_CTOR_NAMES:
            return "immutable"
        if name in _ARRAY_CTOR_NAMES:
            return "array"
        if name in ("dict", "list", "set"):
            return "container"
    return None


def _class_attr_kinds(node: ast.ClassDef) -> Dict[str, str]:
    kinds: Dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            kind = _ann_kind(stmt.annotation)
            if kind is not None:
                kinds[stmt.target.id] = kind
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                stmt.name in ("__init__", "__post_init__"):
            for sub in ast.walk(stmt):
                target = None
                value = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value = sub.target, sub.value
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    kind = None
                    if isinstance(sub, ast.AnnAssign):
                        kind = _ann_kind(sub.annotation)
                    if kind is None and value is not None:
                        kind = _rhs_kind(value)
                    if kind is not None and target.attr not in kinds:
                        kinds[target.attr] = kind
    return kinds


def _ann_class_name(ann) -> Optional[str]:
    """Class name of an annotation expression, if it is a plain name."""
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.strip("\"'").split(".")[-1].split("[")[0]
    return None


def _class_attr_types(node: ast.ClassDef) -> Dict[str, str]:
    """attr -> class name, from body annotations and ctor assigns."""
    types: Dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            cls = _ann_class_name(stmt.annotation)
            if cls is not None and cls[:1].isupper():
                types[stmt.target.id] = cls
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                stmt.name in ("__init__", "__post_init__"):
            for sub in ast.walk(stmt):
                if not (isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1):
                    continue
                target = sub.targets[0]
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                value = sub.value
                if isinstance(value, ast.Call) and \
                        isinstance(value.func, ast.Name) and \
                        value.func.id[:1].isupper() and \
                        target.attr not in types:
                    types[target.attr] = value.func.id
    return types


def _is_frozen_class(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        name = _deco_bare(deco)
        if name == "frozen":
            return True
        if name == "dataclass" and isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "frozen" and \
                        isinstance(kw.value, ast.Constant) and \
                        kw.value.value is True:
                    return True
    return False


def _func_info(node, path: str, qual: Tuple[str, ...], in_class: bool,
               constants: Optional[Dict[str, int]] = None) -> FuncInfo:
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    info = FuncInfo(
        name=node.name,
        qualname=".".join(qual + (node.name,)),
        path=path,
        line=node.lineno,
        params=params,
        is_method=in_class and bool(params) and params[0] in ("self", "cls"),
        node=node,
    )
    if node.returns is not None:
        ret = node.returns
        if isinstance(ret, ast.Constant) and isinstance(ret.value, str):
            info.return_type = ret.value.strip("\"'").split(".")[-1]
        elif isinstance(ret, ast.Name):
            info.return_type = ret.id
        elif isinstance(ret, ast.Attribute):
            info.return_type = ret.attr
    for deco in node.decorator_list:
        name = _deco_bare(deco)
        if name in _FORM_DECOS:
            info.returns_form = _FORM_DECOS[name]
        elif name in _DOMAIN_DECOS:
            info.returns_domain = _DOMAIN_DECOS[name]
        elif name == "returns_view":
            info.returns_view = True
        elif name == "takes_form" and isinstance(deco, ast.Call):
            for kw in deco.keywords:
                val = const_eval(kw.value)
                if kw.arg and isinstance(val, str):
                    info.takes_form[kw.arg] = val
        elif name == "takes_domain" and isinstance(deco, ast.Call):
            for kw in deco.keywords:
                val = const_eval(kw.value)
                if kw.arg and isinstance(val, str):
                    info.takes_domain[kw.arg] = val
        elif name == "bounded" and isinstance(deco, ast.Call):
            spec = {
                "dtype": "uint64", "in_q": None, "in_bits": None,
                "max_q_multiple": None, "out_q": None, "out_bits": None,
                "out_q_lazy": None, "max_lanes": None, "params": {},
                "passthrough": None, "assume": False,
            }
            for kw in deco.keywords:
                if kw.arg:
                    spec[kw.arg] = const_eval(kw.value, constants)
            if not isinstance(spec.get("params"), dict):
                spec["params"] = {}
            info.bounded = spec
    return info
