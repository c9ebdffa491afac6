"""Spans around sglap's public functions, recorded from outside the package.

The tracer swaps each traced function for a wrapper that appends one span
(name, start, end, parent span, operation id) to an in-memory list.  sglap
modules bind many of these functions with ``from ... import``, so the wrapper
is installed under every module attribute that holds the original object,
not just in the defining module; otherwise calls through the imported name
would bypass it and child spans would go missing.  ``uninstall`` puts every
original back and reports any attribute it could not restore.

Self time is a span's duration minus the part of it covered by its child
spans.  Spans opened on a worker thread (the butterfly's thread pool) have
no parent, because their caller's stack lives on another thread.

``EventCounters`` counts the package's own log records and numpy warnings
without printing them, so timed runs stay quiet on the console.
"""

from __future__ import annotations

import functools
import logging
import sys
import threading
import warnings
from collections import Counter
from time import perf_counter

# (module, function) pairs wrapped in a traced run; span names are
# "<module>.<function>".
TARGETS = (
    ("gasket", "build_gasket"),
    ("gauge", "build_connection"),
    ("gauge", "restrict_connection"),
    ("operator", "assemble"),
    ("operator", "eigenvalues"),
    ("operator", "spectrum"),
    ("operator", "schur_complement"),
    ("operator", "log_determinant"),
    ("decimation", "decimation_kit"),
    ("decimation", "apply_U"),
    ("decimation", "classify"),
    ("enumerator", "decimation_verify"),
    ("enumerator", "spectrum_closed_form"),
    ("determinants", "det_closed_form"),
    ("cli", "main"),
    ("butterfly", "render"),
    ("butterfly", "write_raster"),
    ("crsf", "sample_crsf"),
    ("crsf", "brute_force_partition"),
    ("crsf", "noloop_log_probability"),
)


def eigen_gflop(dim: int) -> float:
    """Flops of one dense Hermitian eigenvalue solve, computed, not measured.

    The reduction to tridiagonal form (LAPACK zhetrd) costs 16/3 n^3 real
    flops; the tridiagonal eigenvalue step is O(n^2) and left out.
    """
    return 16.0 / 3.0 * dim**3 / 1e9


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, operation id]
        self.spans: list[list] = []
        self.gflop = 0.0
        self.op_id = 0
        self.active = False  # spans are recorded only while set
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer, spans, local, lock = self, self.spans, self._local, self._lock
        count_flops = name == "operator.eigenvalues"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                idx = len(spans)
                spans.append([name, perf_counter(), None, stack[-1] if stack else None, tracer.op_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
                if count_flops:
                    tracer.gflop += eigen_gflop(args[0].dimension)

        return wrapper

    def install(self) -> None:
        """Wrap every target under every sglap module attribute bound to it."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "sglap" or k.startswith("sglap.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"sglap.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every rebound attribute; return those still not original."""
        for mod, attr, original in self._rebound:
            setattr(mod, attr, original)
        left = [
            f"{mod.__name__}.{attr}"
            for mod, attr, original in self._rebound
            if getattr(mod, attr) is not original
        ]
        self._rebound = []
        return left

    @property
    def rebound_names(self) -> list[str]:
        return [f"{mod.__name__}.{attr}" for mod, attr, _ in self._rebound]

    def summary(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, tuple[int, float]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for s, e in sorted(children.get(k, ())):
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - covered)
        return out


class _CountingHandler(logging.Handler):
    def __init__(self, counts: Counter, rules: list[tuple[int, str, str]]) -> None:
        super().__init__(logging.DEBUG)
        self.counts, self.rules = counts, rules

    def emit(self, record: logging.LogRecord) -> None:
        for level, prefix, key in self.rules:
            if record.levelno == level and str(record.msg).startswith(prefix):
                self.counts[key] += 1


# logger -> (level to enable, [(record level, message prefix, counter name)])
_LOG_RULES = {
    "sglap.butterfly": (logging.INFO, [(logging.INFO, "orbit terminated", "butterfly.terminated_orbits")]),
    "sglap.crsf": (
        logging.DEBUG,
        [
            (logging.DEBUG, "clamping", "crsf.clamped_acceptances"),
            (logging.WARNING, "total face flux", "crsf.window_warnings"),
        ],
    ),
}


class EventCounters:
    """Context manager counting sglap log events and decimation RuntimeWarnings.

    While active, the sglap loggers stop propagating (nothing reaches the
    console) and every warning is recorded instead of printed.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._saved: list[tuple[logging.Logger, int, bool, logging.Handler]] = []

    def __enter__(self) -> "EventCounters":
        for name, (level, rules) in _LOG_RULES.items():
            logger = logging.getLogger(name)
            handler = _CountingHandler(self.counts, rules)
            self._saved.append((logger, logger.level, logger.propagate, handler))
            logger.addHandler(handler)
            logger.setLevel(level)
            logger.propagate = False
        self._warnings = warnings.catch_warnings(record=True)
        self._records = self._warnings.__enter__()
        warnings.simplefilter("always")
        return self

    def drain(self) -> None:
        """Fold recorded warnings into the counts and drop them."""
        for w in self._records:
            if issubclass(w.category, RuntimeWarning) and w.filename.endswith("decimation.py"):
                self.counts["decimation.runtime_warnings"] += 1
        self._records.clear()

    def __exit__(self, *exc) -> None:
        self.drain()
        self._warnings.__exit__(*exc)
        for logger, level, propagate, handler in self._saved:
            logger.removeHandler(handler)
            logger.setLevel(level)
            logger.propagate = propagate
        self._saved = []
