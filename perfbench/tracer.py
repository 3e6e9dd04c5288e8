"""In-memory spans around the calls the benchmark makes into `tubal`.

A Tracer replaces the public functions listed in TRACED with wrappers that
record one span per call: name, start, end, parent span and trial id.  The
wrappers are installed on every `tubal` module that holds the function, so
calls the library makes to its own public functions (for example
`rand_low_tubal` calling `normal_fill` and `tprod`) are spans too.  Nothing
under `src/` changes: `installed` swaps module attributes for the length of
a block and restores them.  Spans stay in memory until the run reports.
"""

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

# layer -> (module, public functions wrapped in that layer)
TRACED = {
    "rng": ("tubal.rng", ("substream", "normal_fill")),
    "sensing": ("tubal.sensing", ("make_gaussian_map", "apply_map", "adjoint_map",
                                  "make_bernoulli_mask", "proj_omega", "proj_omega_c")),
    "tensor": ("tubal.tensor", ("tprod", "fft_dim3", "ifft_dim3")),
    "tsvd": ("tubal.tsvd", ("svt", "tubal_rank", "singular_values", "tnn",
                            "spectral_norm", "tsvd")),
    "solve": ("tubal.solve", ("solve_gaussian", "solve_completion")),
    "lab": ("tubal.lab", ("rand_low_tubal", "make_verdict", "rel_error", "psnr",
                          "phase_grid")),
    "io": ("tubal.io", ("read_tensor", "write_tensor", "read_mask", "write_mask",
                        "read_image", "write_image", "write_csv", "write_history_csv",
                        "write_report_csv", "write_grid_csv", "write_table_csv",
                        "write_manifest", "read_manifest")),
}
# The cli layer has no wrapped function: the benchmark opens a `cli.<subcommand>`
# span around each call it makes to `tubal.cli.main`.


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "report")

    def __init__(self, name, start, parent, trial):
        self.name, self.start, self.end = name, start, start
        self.parent, self.trial = parent, trial
        self.report = None  # the SolverReport, on solver spans

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; `span` opens one explicitly, `installed` wraps `tubal`."""

    def __init__(self, layers=tuple(TRACED)):
        self.layers = layers
        self.spans = []
        self.trial = None
        self.io_bytes = 0
        self.io_files = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self.trial)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        counts_bytes = name.startswith("io.write_")
        is_solver = name.startswith("solve.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not self._stack or self._stack[-1].layer != "io"
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if is_solver:
                s.report = result[1]
            if counts_bytes and outer:
                # only the outermost writer: write_report_csv calls write_csv
                self.io_files += 1
                self.io_bytes += os.path.getsize(args[0])
            return result

        return traced

    @contextmanager
    def installed(self):
        """Within the block, every TRACED function of `self.layers` is wrapped
        wherever a `tubal` module refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tubal" or name.startswith("tubal."))]
        saved = []
        for layer in self.layers:
            modname, names = TRACED[layer]
            home = importlib.import_module(modname)
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    # -- summaries -------------------------------------------------------

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def busy(self, *names):
        """Seconds inside spans with these names, a nested one counted once."""
        total = 0.0
        for s in self.named(*names):
            parent = s.parent
            while parent is not None and parent.name not in names:
                parent = parent.parent
            if parent is None:
                total += s.duration
        return total

    def self_times(self):
        """Per-layer self time: span durations minus their children's.

        Returns {layer: seconds}; time inside a root `bench.*` span that no
        library span covers is reported under "bench".
        """
        child = {id(s): 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.duration
        out = {}
        for s in self.spans:
            own = s.duration - child[id(s)]
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out
