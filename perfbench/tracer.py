"""Span tracer for the benchmark's traced run.

The tracer replaces, for the duration of a traced pass, every public
function of the ``pdisim`` package in every ``pdisim.*`` namespace that
binds it (so ``experiments.sample_noise`` and ``cli.fidelity_sweep`` are
caught as well as ``sensor.sample_noise``), plus the per-cell task function
that the sweep hands to its executor. It also shadows ``open`` inside
``pdisim.io`` to count the bytes that module moves. Nothing inside the
program is edited: spans sit at module boundaries only.

Spans (name, start, end, parent, pass id) stay in memory and are written
out once, when the run ends. ``uninstall`` puts every original attribute
back; ``leftovers`` reports any that are not.
"""

import builtins
import functools
import inspect
import sys
import types
from collections import Counter
from time import perf_counter

#: Private functions traced in addition to the public ones: the per-cell
#: task function of the sweep executor.
EXTRA_FUNCTIONS = {("pdisim.experiments", "_run_cell")}

_MARK = "_perfbench_wrapper"


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_drawn(tracer, fn, args, kwargs, result, error):
    if error is None:
        tracer.counts["sensor.values_drawn"] += _bound(fn, args, kwargs)["frames"].size


def _count_forward(tracer, fn, args, kwargs, result, error):
    if error is None:
        tracer.counts["forward.values_out"] += result.frames.size


def _count_pixels(tracer, fn, args, kwargs, result, error):
    if error is None:
        tracer.counts["reconstruct.pixels"] += result.phase.size


def _count_states(tracer, fn, args, kwargs, result, error):
    if error is None:
        arguments = _bound(fn, args, kwargs)
        tracer.counts["qudit.states_scored"] += arguments["n_states"] * arguments["n_runs"]


def _count_exit(tracer, fn, args, kwargs, result, error):
    # argparse reports bad arguments by raising SystemExit from main().
    if error is not None or result != 0:
        tracer.counts["cli.exit_nonzero"] += 1


#: Work counters recorded at the same boundaries as the spans.
HOOKS = {
    "sensor.sample_noise": _count_drawn,
    "forward.simulate_interferograms": _count_forward,
    "reconstruct.extract_phase": _count_pixels,
    "qudit.bootstrap_fidelity": _count_states,
    "cli.main": _count_exit,
}


class _CountingFile:
    """File proxy that adds the size of every read and write to a counter."""

    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    @staticmethod
    def _size(data):
        return len(data.encode("utf-8")) if isinstance(data, str) else len(data)

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts["io.bytes_read"] += self._size(data)
        return data

    def readline(self, *args):
        data = self._fh.readline(*args)
        self._counts["io.bytes_read"] += self._size(data)
        return data

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._fh)
        self._counts["io.bytes_read"] += self._size(line)
        return line

    def write(self, data):
        self._counts["io.bytes_written"] += self._size(data)
        return self._fh.write(data)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """In-memory spans and counters for the traced passes of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "pdisim" or name.startswith("pdisim."))]

    @staticmethod
    def _traceable(value) -> bool:
        if not isinstance(value, types.FunctionType):
            return False
        module = getattr(value, "__module__", "") or ""
        if not module.startswith("pdisim"):
            return False
        return (not value.__name__.startswith("_")
                or (module, value.__name__) in EXTRA_FUNCTIONS)

    def install(self):
        wrappers = {}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if not self._traceable(value):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrapper)
        io_module = sys.modules["pdisim.io"]
        self._patches.append((io_module, "open", None))
        io_module.open = self._open

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            if original is None:
                vars(module).pop(attr, None)
            else:
                setattr(module, attr, original)
        self._patches.clear()

    def leftovers(self) -> list[str]:
        """Attributes that still hold a tracer object (empty when restored)."""
        found = []
        for module in self._modules():
            for attr, value in vars(module).items():
                if getattr(value, _MARK, False) is True:
                    found.append(f"{module.__name__}.{attr}")
        if "open" in vars(sys.modules["pdisim.io"]):
            found.append("pdisim.io.open")
        return found

    def _open(self, *args, **kwargs):
        return _CountingFile(builtins.open(*args, **kwargs), self.counts)

    def _wrap(self, fn):
        name = f"{_short(fn.__module__)}.{fn.__name__}"
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.pass_id)
                if hook is not None:
                    hook(tracer, fn, args, kwargs, result, error)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- analysis ----------------------------------------------------------

    def span_table(self):
        """Rows (name, start, end, self_s, parent, pass id) in start order.

        Self time is the span's duration minus the durations of its direct
        children; children of one span never overlap, since every traced
        call is synchronous.
        """
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [(self.names[name_id], start, end, end - start - child_time[i],
                 parent, pass_id)
                for i, (name_id, start, end, parent, pass_id) in enumerate(self.spans)]

    def write(self, path, header_lines=()):
        rows = self.span_table()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("index,name,start_s,end_s,self_s,parent,pass\n")
            t0 = rows[0][1] if rows else 0.0
            for i, (name, start, end, self_s, parent, pass_id) in enumerate(rows):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{self_s:.9f},{parent},{pass_id}\n")
