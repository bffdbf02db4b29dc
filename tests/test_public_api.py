"""Every exported name exists, modules share no private names, and every
per-layer benchmark metric is fed by a name the benchmark's tracer can wrap."""

import ast
import importlib
import importlib.util
import json
import pathlib

import cliffstring

PACKAGE_DIR = pathlib.Path(cliffstring.__file__).parent
ROOT = PACKAGE_DIR.parent.parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if not p.stem.startswith("__"))


def test_every_exported_name_exists():
    missing = []
    for name in ["cliffstring"] + [f"cliffstring.{m}" for m in MODULES]:
        mod = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("cliffstring")
            offenders += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if sibling and alias.name.startswith("_")
            ]
    assert offenders == []


def _tracer():
    """perfbench/tracer.py, loaded from the checkout without running the benchmark."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolves(module, attr):
    """Whether the tracer would find (and wrap) cliffstring.<module>.<attr>."""
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(f"cliffstring.{module}")
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return owner is not None and vars(owner).get(name) is not None


def test_every_per_layer_metric_is_fed_by_a_wrapped_name():
    # the tracer leaves out a metric whose wrapped names are all gone, and
    # the benchmark's result then no longer lists every per-layer metric
    tracer = _tracer()
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    live = [(module, group) for module, attr, group, _ in tracer.WRAPPED if _resolves(module, attr)]
    modules, groups = {module for module, _ in live}, {group for _, group in live}

    def fed(source, key):
        if source == "busy":
            return key in modules
        if source != "value":
            return key in groups
        # a hooked value needs its group's wrapper; the benchmark records the rest
        return key not in tracer._HOOKED or tracer._HOOKED[key] in groups

    fed_names = {name for name, _, _, source, key in tracer.METRICS if fed(source, key)}
    assert [name for name in per_layer if name not in fed_names] == []


def test_traced_algebra_jobs_give_finite_metrics(tmp_path):
    """The tracer's hook reads each mul_arrays call's positional arrays; a
    traced octonion-check and lorentz-check must still give strict-JSON
    per-layer metrics with products counted."""
    from cliffstring import cli

    tracer = _tracer()
    tr = tracer.Tracer()
    tr.install()
    self_s, report_bytes = 0.0, 0
    try:
        for job, argv in enumerate([
            ["octonion-check", "--seed", "3", "--trials", "40"],
            ["lorentz-check", "--seed", "3", "--trials", "4"],
        ]):
            report = tmp_path / f"{job}.json"
            rc, seconds, callee = tr.run(job, lambda: cli.main(argv + ["--report", str(report)]))
            assert rc == 0
            self_s += seconds - callee
            report_bytes += report.stat().st_size
    finally:
        tr.uninstall()
    metrics = tr.metrics({"cli.self_s": self_s, "cli.report_bytes": report_bytes,
                          "trace.overhead_ratio": 1.0})
    json.dumps(metrics, allow_nan=False)
    assert metrics["octonion.products"]["value"] > 0
    assert metrics["octonion.ns_per_product"]["value"] > 0
