"""A pytest plugin that lists the ``raise`` statements in ``src/ncgraph`` that
a run never reaches.

It is off unless loaded by name::

    PYTHONPATH=src:tests python -m pytest -q -p raise_trace --raise-trace-out unreached.txt

Each ``raise`` is found with ``ast``.  While the tests run,
``sys.settrace`` and ``threading.settrace`` watch the lines of each package
function that holds a ``raise`` that has not run yet; a function that holds
none is not traced line by line.  A ``raise`` counts as reached when any of
its lines runs, so ``raise first_error() or Fallback()`` counts even if no
run builds ``Fallback``.  At the end the unreached ones are printed, and
written one a line to ``--raise-trace-out`` if it is given, as
``path:line: raise Name`` with the path taken from the repository root.
Code in a subprocess, such as the demos, is not traced.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncgraph"


def raise_sites(path):
    """(first line, last line, raised expression) of each ``raise`` in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, node.end_lineno, "" if exc is None else ast.unparse(exc)


class RaiseTracer:
    """Which of the package's ``raise`` statements have run."""

    def __init__(self):
        # site: (path, first line, raised expression); file: {line: site}
        self.sites, self.lines = [], {}
        for path in sorted(PACKAGE.glob("*.py")):
            lines = self.lines[str(path)] = {}
            for first, last, name in sorted(raise_sites(path)):
                site = (path, first, name)
                self.sites.append(site)
                lines.update(dict.fromkeys(range(first, last + 1), site))
        self.reached = set()
        self.files = {}     # co_filename -> that file's {line: site}, or None
        self.tracers = {}   # code -> its line tracer, or None

    def _tracer(self, code):
        name = code.co_filename
        if name not in self.files:
            self.files[name] = self.lines.get(os.path.realpath(name))
        file_lines = self.files[name]
        watched = {} if file_lines is None else {
            line: file_lines[line] for _, _, line in code.co_lines()
            if line in file_lines and file_lines[line] not in self.reached}
        if not watched:
            return None

        def line_tracer(frame, event, arg):
            if event == "line" and frame.f_lineno in watched:
                site = watched[frame.f_lineno]
                self.reached.add(site)
                for line in [k for k, s in watched.items() if s == site]:
                    del watched[line]
                if not watched:
                    self.tracers[code] = None
                    return None
            return line_tracer
        return line_tracer

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code not in self.tracers:
            self.tracers[code] = self._tracer(code)
        return self.tracers[code]

    def start(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def unreached(self):
        """``path:line: raise Name`` for each site not reached, in file order."""
        unreached = [site for site in self.sites if site not in self.reached]
        return [f"{path.relative_to(ROOT)}:{line}: raise {name}".rstrip()
                for path, line, name in unreached]


def pytest_addoption(parser):
    parser.addoption("--raise-trace-out", metavar="PATH",
                     help="write the unreached raise statements to PATH, one a line")


def pytest_configure(config):
    config._raise_tracer = RaiseTracer()
    config._raise_tracer.start()


def pytest_sessionfinish(session):
    tracer = session.config._raise_tracer
    tracer.stop()
    out = session.config.getoption("--raise-trace-out")
    if out:
        with open(out, "w") as f:
            f.writelines(line + "\n" for line in tracer.unreached())


def pytest_terminal_summary(terminalreporter, config):
    tracer = config._raise_tracer
    unreached = tracer.unreached()
    terminalreporter.section("raise statements never reached")
    for line in unreached:
        terminalreporter.write_line(line)
    terminalreporter.write_line(
        f"{len(unreached)} of {len(tracer.sites)} raise statements in src/ncgraph unreached")
