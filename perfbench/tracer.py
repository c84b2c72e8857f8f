"""Per-layer tracing that wraps the program's functions from outside.

`instrument` replaces the public functions of each layer module, and the
public methods of the classes those modules define, with wrappers that
record a span per call.  A span's self time is its duration minus the time
covered by the wrapped calls it made.  Every module attribute that refers to
a wrapped function is replaced, so calls through ``from x import f`` names
are traced too.  Nothing inside the program is edited.

Stats are kept per (step, span name) in memory: calls, total and self time.
Counters record exact work done at the same boundaries.
"""

import functools
import importlib
import inspect
import sys
import time

# layer modules in pipeline order; `_kernels` spans are named `kernels.*`
LAYERS = ("io", "imgprep", "visual", "_kernels", "audio", "aggregate",
          "concepts", "ml", "shotviz")


class Tracer:
    def __init__(self):
        self.step = None
        self.stats = {}        # (step, name) -> [calls, total_s, self_s]
        self.counts = {}       # (step, name) -> int
        self._children = []    # child time accumulated per open span

    def reset(self):
        self.stats.clear()
        self.counts.clear()

    def enter(self):
        self._children.append(0.0)
        return time.perf_counter()

    def leave(self, name, start):
        duration = time.perf_counter() - start
        child = self._children.pop()
        if self._children:
            self._children[-1] += duration
        if name is None:
            return
        st = self.stats.setdefault((self.step, name), [0, 0.0, 0.0])
        st[0] += 1
        st[1] += duration
        st[2] += duration - child

    def count(self, name, amount=1):
        key = (self.step, name)
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(name, start)
            return hook(self, args, result) if hook else result
        return traced

    def frames(self, stream):
        """Iterate a frame stream, timing each decoded frame."""
        it = iter(stream)
        while True:
            start = self.enter()
            try:
                frame = next(it)
            except StopIteration:
                self.leave(None, start)
                return
            except BaseException:
                self.leave(None, start)
                raise
            self.leave("io.frame_decode", start)
            self.count("frames_decoded")
            self.count("bytes_decoded", frame.nbytes)
            yield frame


class _TracedStream:
    """Frame-stream proxy: attributes pass through, iteration is timed."""

    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def __iter__(self):
        return self._tracer.frames(self._stream)


def _hook_read_frames(tracer, args, stream):
    return _TracedStream(stream, tracer)


def _hook_read_wav(tracer, args, clip):
    tracer.count("audio_samples_read", clip.samples.size)
    return clip


def _hook_frame_features(tracer, args, result):
    frame = args[0]
    tracer.count("pixels_featurized", frame.shape[0] * frame.shape[1])
    return result


HOOKS = {
    "io.read_frames": _hook_read_frames,
    "io.read_wav": _hook_read_wav,
    "visual.frame_features": _hook_frame_features,
}


def _public_callables(module):
    """(span name, owner, attribute, function) for the module's public
    functions and the public methods of the classes it defines."""
    prefix = module.__name__.rsplit(".", 1)[1].lstrip("_")
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{prefix}.{attr}", module, attr, value
        elif inspect.isclass(value):
            for meth, fn in sorted(vars(value).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{prefix}.{attr}.{meth}", value, meth, fn


def instrument(tracer, package="avmir"):
    """Wrap every public function of the layer modules; returns the names."""
    modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
    loaded = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == package
                                    or name.startswith(package + "."))]
    names = []
    for module in modules:
        for name, owner, attr, fn in list(_public_callables(module)):
            wrapped = tracer.wrap(name, fn, HOOKS.get(name))
            setattr(owner, attr, wrapped)
            if owner is module:
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)
            names.append(name)
    return names
