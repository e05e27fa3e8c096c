"""Span tracer that wraps nvground's public functions from outside the package.

Every public function defined in an nvground module is replaced, at every
module-level name that binds it, by a wrapper that records one span per
call: name, start, end, parent span, op id, an optional tag (isotope,
matrix size, CLI command) and an optional value (Nelder-Mead evaluations).
Spans stay in flat in-memory arrays until ``save`` writes them out.

The CLI's ``cmd_*`` handlers and ``build_parser`` are not wrapped: they are
the argparse and formatting work that ``cli.main``'s self time stands for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

import nvground

# cli internals counted as cli.main self time (see module docstring).
NOT_WRAPPED = {"cli.build_parser"} | {
    f"cli.{name}" for name in vars(importlib.import_module("nvground.cli")) if name.startswith("cmd_")
}


def package_modules() -> list:
    """nvground and every submodule, imported."""
    mods = [nvground]
    for info in pkgutil.iter_modules(nvground.__path__):
        mods.append(importlib.import_module(f"nvground.{info.name}"))
    return mods


def _short(module) -> str:
    return module.__name__.split(".", 1)[1]


def public_functions() -> dict[str, object]:
    """Qualified name -> function for every public function nvground defines."""
    out = {}
    for mod in package_modules()[1:]:
        for name, obj in vars(mod).items():
            qual = f"{_short(mod)}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and qual not in NOT_WRAPPED
            ):
                out[qual] = obj
    return out


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _tag_transition_set(args, kwargs):
    iso = _arg(args, kwargs, 2, "iso")
    dtype = np.dtype(_arg(args, kwargs, 3, "dtype", np.float64)).name
    return f"{iso.name}/{dtype}"


def _tag_matrix(args, kwargs):
    # Element (0, n/3) couples (ms=+1, mI) to (ms=0, mI): gamma_e Bx, so it
    # tells a tilted Hamiltonian (dense, slow Jacobi) from an axial one.
    m = np.asarray(_arg(args, kwargs, 0, "m"))
    n = m.shape[0]
    field = "Bx>0" if m[0, n // 3] != 0 else "Bx=0"
    return f"{n}x{n}/{m.dtype.name}/{field}"


TAGGERS = {
    "transitions.transition_set": _tag_transition_set,
    "eigensolve.jacobi_eigh": _tag_matrix,
    "extraction.extract_params": lambda a, k: _arg(a, k, 0, "ms").isotope.name,
    "cli.main": lambda a, k: str((_arg(a, k, 0, "argv") or ["?"])[0]),
}

# Per-call values: Nelder-Mead evaluations and convergence (as the sign).
VALUES = {
    "optimize.nelder_mead": lambda r: r.n_evals if r.converged else -r.n_evals,
}


class Tracer:
    """Collects spans for calls into nvground while installed."""

    def __init__(self):
        self.functions = public_functions()
        self.names = list(self.functions)
        self.tag_names: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.value = array("q")
        self.err = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.wrappers = {
            qual: self._wrap(nid, qual, self.functions[qual]) for nid, qual in enumerate(self.names)
        }
        self._patches: list[tuple[object, str, object]] = []

    def _tag_id(self, text: str) -> int:
        tid = self._tag_ids.get(text)
        if tid is None:
            tid = self._tag_ids[text] = len(self.tag_names)
            self.tag_names.append(text)
        return tid

    def _wrap(self, nid: int, qual: str, fn):
        tr = self
        clock = time.perf_counter_ns
        tagger = TAGGERS.get(qual)
        valuer = VALUES.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.op.append(tr.op_id)
            tr.tag.append(tr._tag_id(tagger(args, kwargs)) if tagger else -1)
            tr.value.append(0)
            tr.err.append(0)
            tr.end.append(0)
            tr.stack.append(sid)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.err[sid] = 1
                raise
            finally:
                tr.end[sid] = clock()
                tr.stack.pop()
            if valuer:
                tr.value[sid] = valuer(result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        originals = {id(fn): qual for qual, fn in self.functions.items()}
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                qual = originals.get(id(obj))
                if qual is not None and obj is self.functions[qual]:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self.wrappers[qual])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
        }

    def save(self, path: Path, meta: dict) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            tag_names=np.array(self.tag_names or [""]),
            meta=np.array(json.dumps(meta)),
            **self.arrays(),
        )


class Spans:
    """Read-side view of a span set: durations, self times, per-name sums."""

    def __init__(self, names, tag_names, arrays: dict[str, np.ndarray]):
        self.names = [str(n) for n in names]
        self.tag_names = [str(t) for t in tag_names]
        for key, arr in arrays.items():
            setattr(self, key, arr)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_ns = self.dur - child_time

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Spans":
        return cls(tracer.names, tracer.tag_names, tracer.arrays())

    @classmethod
    def load(cls, path: Path) -> tuple["Spans", dict]:
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if k not in ("names", "tag_names", "meta")}
            spans = cls(z["names"], z["tag_names"], arrays)
            meta = json.loads(str(z["meta"]))
        return spans, meta

    def mask(self, qual: str, tag: str | None = None) -> np.ndarray:
        if qual not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        m = self.name_id == self.names.index(qual)
        if tag is not None:
            tid = self.tag_names.index(tag) if tag in self.tag_names else -2
            m &= self.tag == tid
        return m

    def calls(self, qual: str) -> int:
        return int(self.mask(qual).sum())

    def self_ms(self, qual: str) -> float:
        return float(self.self_ns[self.mask(qual)].sum()) / 1e6

    def tags_of(self, qual: str) -> list[str]:
        ids = np.unique(self.tag[self.mask(qual)])
        return [self.tag_names[i] for i in ids if i >= 0]


def layer_metrics(spans: Spans, n_ops: int, overhead: float, names: list[str]) -> dict[str, float]:
    """Per-op values of the named per-layer metrics.

    ``<module>.<function>.calls`` and ``.self_ms`` are generic; the rest
    are counts the program reports (Nelder-Mead evaluations, convergence),
    wasted work (restarts: simplex runs beyond the first per fit) and
    refusals (label_states calls that raised).
    """
    nm = spans.mask("optimize.nelder_mead")
    fits = spans.mask("extraction.extract_params")
    special = {
        "trace.overhead_ratio": lambda: overhead,
        "optimize.nelder_mead.evals": lambda: float(np.abs(spans.value[nm]).sum()) / n_ops,
        "optimize.nelder_mead.converged_ratio": lambda: (
            float((spans.value[nm] > 0).sum()) / nm.sum() if nm.any() else 0.0
        ),
        "extraction.extract_params.restarts": lambda: (
            float((fits[spans.parent[nm]] & (spans.parent[nm] >= 0)).sum() - fits.sum()) / n_ops
        ),
        "transitions.label_states.refusals": lambda: (
            float((spans.err[spans.mask("transitions.label_states")] != 0).sum()) / n_ops
        ),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]()
            continue
        qual, kind = name.rsplit(".", 1)
        if qual not in spans.names:
            raise KeyError(f"{name}: {qual} is not a traced function")
        if kind == "calls":
            out[name] = spans.calls(qual) / n_ops
        elif kind == "self_ms":
            out[name] = spans.self_ms(qual) / n_ops
        else:
            raise KeyError(f"unknown per-layer metric {name}")
    return out
