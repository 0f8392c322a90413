"""In-memory span tracer that wraps mhnes functions from outside the package.

A target is a function or method of the program. Entering a ``Tracer``
replaces the target at every name its callers use: the defining module, every
mhnes module that bound it with ``from ... import``, ``runner.SEARCHERS``, and
both ``forward`` and its ``__call__`` alias on classes. Leaving it puts every
original back. Spans stay in memory with their parent's id; self time is the
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "attrs")

    def __init__(self, sid, parent, name, start, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.attrs = attrs

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s


class Tracer:
    """Records spans around the functions named by ``targets``.

    ``targets`` is a list of ``(span name, owner, attribute, attrs_fn)``:
    owner is a module or class, and ``attrs_fn(args, kwargs)`` (or None)
    returns the span's attributes from the call's arguments. Several
    targets may share a span name. ``count_tape`` also counts every
    recorded tape node, its output bytes, and the most bytes one tape held.
    """

    def __init__(self, targets, count_tape=False):
        self.targets = targets
        self.count_tape = count_tape
        self.spans = []
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.tape_peak_bytes = 0
        self._tape_bytes = weakref.WeakKeyDictionary()
        self._stack = []
        self._patches = []  # (container, key, original, is_dict)

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(
                len(spans),
                parent.id if parent is not None else None,
                name,
                _clock(),
                attrs_fn(args, kwargs) if attrs_fn is not None else None,
            )
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.dur

        traced.__wrapped__ = fn
        return traced

    def _count_record(self, record):
        def counted(tape, node):
            nbytes = node.out.data.nbytes
            self.tape_nodes += 1
            self.tape_bytes += nbytes
            held = self._tape_bytes.get(tape, 0) + nbytes
            self._tape_bytes[tape] = held
            if held > self.tape_peak_bytes:
                self.tape_peak_bytes = held
            return record(tape, node)

        return counted

    # -- patching --------------------------------------------------------

    def _set(self, container, key, value, is_dict=False):
        original = container[key] if is_dict else container.__dict__[key]
        self._patches.append((container, key, original, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()
        return False

    def _install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "mhnes" or n.startswith("mhnes.")]
        for name, owner, attr, attrs_fn in self.targets:
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    self._set(owner, attr,
                              classmethod(self._wrap(name, raw.__func__, attrs_fn)))
                    continue
                wrapped = self._wrap(name, raw, attrs_fn)
                self._set(owner, attr, wrapped)
                if attr == "forward" and owner.__dict__.get("__call__") is raw:
                    self._set(owner, "__call__", wrapped)
                continue
            wrapped = self._wrap(name, raw, attrs_fn)
            for mod in modules:  # every module-level name bound to the function
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict) and key.isupper():
                        for k, v in list(value.items()):  # e.g. runner.SEARCHERS
                            if v is raw:
                                self._set(value, k, wrapped, is_dict=True)
        if self.count_tape:
            from mhnes.tensor import Tape

            self._set(Tape, "record", self._count_record(Tape.__dict__["record"]))

    def _uninstall(self):
        while self._patches:
            container, key, original, is_dict = self._patches.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")
