"""In-memory spans around sphmark's public functions, installed from outside.

The tracer rebinds module and class attributes of the already imported
``sphmark`` package to timing wrappers and puts the originals back on
``restore()``.  No file under ``src/`` is edited.  A span is recorded only
while an operation is active (``Tracer.op`` is not None), so checks and
set-up that run between operations stay out of the trace.
"""

import functools
import sys
import time

# (module, attribute path) of every wrapped public function; the span name
# is "<module>.<path>"
TARGETS = (
    ("cli", "main"),
    ("codec", "embed"),
    ("codec", "make_signature"),
    ("codec", "generate_patterns"),
    ("codec", "extract_nonblind"),
    ("codec", "embedding_mask"),
    ("codec", "SignatureSet.save"),
    ("codec", "SignatureSet.load"),
    ("grid", "texture_mask"),
    ("grid", "write_ppm"),
    ("grid", "read_ppm"),
    ("grid", "sample_bilinear"),
    ("harmonics", "forward_sht"),
    ("harmonics", "inverse_sht"),
    ("harmonics", "make_cover"),
    ("so3", "rotate_coeffs"),
    ("so3", "wigner_D"),
    ("so3", "little_d"),
    ("so3", "rotate_image"),
    ("attacks", "apply_attack"),
    ("coupling", "bispectrum_vector"),
    ("metrics", "psnr"),
    ("metrics", "ssim"),
    ("metrics", "bispectrum_cosine"),
)

SPAN_NAMES = tuple("%s.%s" % t for t in TARGETS)


class Tracer:
    """Records spans as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target wherever a sphmark module holds a reference."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == "sphmark"]
        try:
            for modname, path in targets:
                mod = sys.modules["sphmark." + modname]
                name = "%s.%s" % (modname, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(mod, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._rebind(owner, attr, raw, new)
                    continue
                orig = getattr(mod, path)
                new = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._rebind(m, attr, orig, new)
        except BaseException:
            self.restore()
            raise

    def _rebind(self, owner, attr, orig, new):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, new)

    def restore(self):
        """Put back every original attribute, newest rebinding first."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def layer_totals(spans):
    """Per span name: [calls, self seconds].

    Self time is a span's duration minus the durations of its direct
    children.  Calls are synchronous and single-threaded, so children
    never overlap one another and their durations add up to the part of
    the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        t = totals.setdefault(name, [0, 0.0])
        t[0] += 1
        t[1] += (end - start) - child[i]
    return totals
