"""In-memory spans recorded around calls into dqeig, from outside the package.

A Tracer replaces functions at the attributes their callers look them up
through (module globals and the ``__matmul__`` of the matrix classes), records
one span per call while a solve or set-up span is open, and puts every
original back on ``uninstall``. A target that no longer exists is listed in
``absent`` instead of failing the run.
"""

import functools
import json
import time

# span fields: name, start, end, parent index (-1 for a root), solve id, info
NAME, START, END, PARENT, SOLVE, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []
        self._solve = None

    def open(self, name, solve=None):
        """Open a span; a root span starts recording for the calls inside it."""
        parent = self._stack[-1] if self._stack else -1
        if parent == -1:
            self._solve = solve
        self.spans.append([name, time.perf_counter(), None, parent, self._solve, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def install(self, owner, attr, name, info=None):
        """Wrap ``owner.attr``. ``name`` is a span name or a function of the
        call's arguments; ``info(args, result)`` attaches a small dict."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            idx = tracer.open(name_of(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if info is not None:
                tracer.spans[idx][INFO] = info(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self):
        """Duration of each span minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "solve": s[SOLVE], "self": own,
                    "info": s[INFO],
                }) + "\n")
