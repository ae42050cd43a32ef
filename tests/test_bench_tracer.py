"""The benchmark's tracer (``bench/tracing.py``) patches names on the
package's modules by attribute.  A name it patches that a module no longer
has would break every traced benchmark run, so it is installed here on the
current package around one small CLI call."""

import importlib.util
from pathlib import Path

from bifurcbox import cli

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_counts_and_uninstalls(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._saved)
        assert patched and all(_current(o, a) is not f for o, a, f in patched)
        assert cli.main(["predict", "--domain", "square", "--lam", "5",
                         "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["critpoints.search"] == 1
    assert tracer.counts["critpoints.seeds"] > 0 and tracer.counts["critpoints.pairs"] == 4
    assert all(_current(owner, attr) is original for owner, attr, original in patched)
