"""Every exported name exists and has a caller in src/ (or an allowlisted
reason), every default-valued parameter is passed by some call (or has an
allowlisted reason), modules share no private names, and every per-layer
benchmark metric is fed by a name the benchmark's tracer can wrap."""

import ast
import importlib
import importlib.util
import json
import pathlib
import re

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


# cliffstring.__all__ when it was a hand-kept copy of the modules' names; every
# one of them must still be a package name.  PolySpace left it: J^z's identity
# is decided in normal form, and the space is now the tests' dense-oracle basis.
# quaternion_pairs left it: it returned the pairs' q and r unchanged.
# mass_shell_residual and momentum_vector left it: p.eta.p = det K is an identity
# of sigma4_complex, and only a test read them, which now computes p itself.
PACKAGE_NAMES_BEFORE = {
    "EPS", "MixedSubspaceError", "ModeSpectrum", "NonpositiveTimeError", "NotHermitianError",
    "OctHermitian", "Octonion", "PhysicalConstants", "Resolution", "__version__",
    "act_vector", "alternativity_check", "boost_generator", "build_canonical",
    "canonical_residual", "charge_density_coefficients", "charge_quadrature", "cliff_conj",
    "cliff_inner", "compatibility_residual", "conj_arrays", "contraction_residual",
    "coordinates", "current_density", "det2", "divergence_residual", "emission_bound",
    "endpoint_flux", "eom_residual", "eta4", "factor_from_matrix", "gram_matrix",
    "hermiticity_residual", "integrality_residual", "jz_spectrum", "lorentz_closure_residual",
    "m0_matrices", "make_factor", "matrix_to_vector", "mixed_algebra_residual",
    "mul_arrays", "norm_arrays", "omat_adjoint", "omat_mul", "phase_generator",
    "reconstruction_errors",
    "reconstruction_residual", "redshift", "reflection_factor", "resolve_hermitian",
    "resolve_spacetime", "rotation_generator", "sigma_set", "spectrum_from_json",
    "spectrum_to_json", "su2_closure_residual", "tensor_algebra_residual", "tensor_form",
    "three_vector_form", "vector_to_matrix", "vectors",
}


def test_package_surface_is_the_modules_all_joined():
    """cliffstring.__all__ is every module's __all__ and __version__, each name once and
    the module's own object, and it keeps every name it had as a hand-kept list."""
    owners = [(m, importlib.import_module(f"cliffstring.{m}")) for m in MODULES]
    joined = [(m, name) for m, mod in owners for name in getattr(mod, "__all__", ())]
    names = cliffstring.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted([name for _, name in joined] + ["__version__"])
    modules = dict(owners)
    assert [f"{m}.{name}" for m, name in joined
            if getattr(cliffstring, name) is not getattr(modules[m], name)] == []
    assert sorted(PACKAGE_NAMES_BEFORE - set(names)) == []


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


# What cli.py may import from the modules that own the checks' physics: each
# command's check function and the argparse cap on lorentz-check's depth.
CLI_IMPORTS_ALLOWED = {
    "octonion": {"octonion_checks"},
    "lorentz": {"lorentz_checks", "MAX_NEST_DEPTH"},
    "quantum_rep": {"quantum_checks"},
}


def test_cli_imports_only_the_check_functions_and_no_residual():
    """The CLI parses, reduces and writes; each check's maths stays in its module.
    A whole module import ("*") from those three modules would get round the list."""
    offenders = []
    for node in ast.walk(ast.parse((PACKAGE_DIR / "cli.py").read_text())):
        if isinstance(node, ast.Import):
            names = [(alias.name.rpartition(".")[2], "*") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            names = [(module, alias.name) if module else (alias.name, "*") for alias in node.names]
        else:
            continue
        offenders += [f"{module}.{name}" for module, name in names if name.endswith("_residual")
                      or name not in CLI_IMPORTS_ALLOWED.get(module, {name})]
    assert offenders == []


def _float_formatting(source):
    """Where source calls repr, applies % to a bytes literal or names a '<U…' dtype."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr":
            found.append(f"{node.lineno}: repr call")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and isinstance(node.left, ast.Constant) and isinstance(node.left.value, bytes)):
            found.append(f"{node.lineno}: % on bytes")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[<>=|]?U\d*", node.value)):
            found.append(f"{node.lineno}: {node.value!r} dtype")
    return found


def test_cli_formats_no_float():
    """Float text is floattext's: the CLI calls json_texts, json_table and csv_rows."""
    assert _float_formatting('t = repr(v)\nb = b"%.17g" % v\nu = x.view(f"<U{w}")') == [
        "1: repr call", "2: % on bytes", "3: '<U' dtype"]
    assert _float_formatting((PACKAGE_DIR / "cli.py").read_text()) == []


def _imported_modules(path):
    """The last dotted part of each module that a source file imports, or imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            names |= {module} if module else {alias.name for alias in node.names}
    return names


def test_only_the_cli_imports_fixtures():
    """The library's modules draw their own random values; fixtures imports
    matrices, octonion and string_modes, so a library import of it could close
    a cycle through them."""
    importers = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if "fixtures" in _imported_modules(path)]
    assert importers == ["cli.py"]


# Public names that no code in src/ calls, each with the reason it stays.
UNCALLED_ALLOWED = {
    "Octonion": "perfbench's tracer wraps Octonion.__init__ for octonion.objects",
    "cliff_inner": "perfbench's tracer wraps it for clifford.inner_calls",
    "reconstruction_residual": "perfbench's tracer wraps it for resolve.reconstruct_s",
    "gram_matrix": "waits on ROADMAP item 6 (a named check or removal)",
    "resolve_spacetime": "waits on ROADMAP item 6 (the spacetime roundtrip check)",
    "matrix_to_vector": "waits on ROADMAP item 5 (the 10D linearization)",
}


def _references():
    """(module, top-level statement's names, referenced name) over src/, __init__ aside."""
    refs = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            targets = getattr(stmt, "targets", [])
            owners = {getattr(stmt, "name", None)} | {t.id for t in targets if isinstance(t, ast.Name)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.append((path.stem, owners, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.append((path.stem, owners, node.attr))
    return refs


def test_every_public_name_has_a_caller_in_src():
    refs = _references()
    uncalled = {}
    for module in MODULES:
        for name in getattr(importlib.import_module(f"cliffstring.{module}"), "__all__", ()):
            # a name's own definition does not count as its caller
            if not any(ref == name and not (stem == module and name in owners)
                       for stem, owners, ref in refs):
                uncalled[name] = module
    assert [f"{uncalled[name]}.{name}" for name in uncalled if name not in UNCALLED_ALLOWED] == []
    # an allowlisted name that is gone or has gained a caller leaves the list
    assert sorted(set(UNCALLED_ALLOWED) - set(uncalled)) == []


# Default-valued parameters of public functions, methods and dataclasses in
# src/ that no call passes, each with the reason it stays a parameter.
ONE_VALUE_ALLOWED = {}


def _parameters(fn, method):
    """[(parameter, position or None)] of fn's default-valued parameters;
    a method's position does not count self or cls."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    params = [(a.arg, i - method) for i, a in enumerate(positional) if i >= first]
    kw_only = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    return params + [(a.arg, None) for a, d in kw_only if d is not None]


def _defaulted():
    """{qualified name: (callee name, parameter, position)} over src/'s public
    functions, methods and dataclass fields; a constructor's callee is its class."""
    out = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for p, i in _parameters(node, False):
                    out[f"{path.stem}.{node.name}({p})"] = (node.name, p, i)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                for i, name in enumerate(f.target.id for f in fields):
                    if fields[i].value is not None:
                        out[f"{path.stem}.{node.name}({name})"] = (node.name, name, i)
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or fn.name[0] != "_"):
                    callee = node.name if fn.name == "__init__" else fn.name
                    for p, i in _parameters(fn, True):
                        out[f"{path.stem}.{node.name}.{fn.name}({p})"] = (callee, p, i)
    return out


def _passed():
    """{callee name: (most positional arguments, keywords)} over every call in
    src/, tests/ and perfbench/; *args passes every position, **kwargs every
    keyword, and cls(...) in a class body calls that class."""
    passed = {}

    def record(name, call):
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        count, keywords = passed.get(name, (0, set()))
        count = max(count, float("inf") if starred else len(call.args))
        passed[name] = (count, keywords | {k.arg for k in call.keywords})  # None: **kwargs

    for directory in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    record(getattr(node.func, "id", None) or getattr(node.func, "attr", None), node)
                elif isinstance(node, ast.ClassDef):
                    for call in ast.walk(node):
                        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls":
                            record(node.name, call)
    return passed


def test_every_default_valued_parameter_is_passed_somewhere():
    """A parameter that every call leaves at its default is a constant in disguise."""
    passed = _passed()
    unpassed = []
    for qualified, (callee, param, position) in _defaulted().items():
        count, keywords = passed.get(callee, (0, set()))
        by_position = position is not None and position < count
        if not (by_position or param in keywords or None in keywords):
            unpassed.append(qualified)
    assert [name for name in unpassed if name not in ONE_VALUE_ALLOWED] == []
    # an allowlisted parameter that is gone or is now passed leaves the list
    assert sorted(set(ONE_VALUE_ALLOWED) - set(unpassed)) == []


def _perfbench(name):
    """perfbench/<name>.py, loaded from the checkout without running the benchmark."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _perfbench("tracer")


def test_one_job_of_each_benchmark_kind_passes_the_benchmark_check(tmp_path, monkeypatch):
    """perfbench's own check finds no job wrong, one job of each kind its
    workloads run.  A job may miss its target: n = 64 resolve jobs can fail
    --tol 1e-10 (ROADMAP item 4)."""
    from cliffstring import cli

    workloads, checks = _perfbench("workloads"), _perfbench("checks")
    jobs = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.job_list(workload, 1, 0.0):
            jobs.setdefault(workloads.kind(job), job)
    jobs = list(jobs.values())
    assert len(jobs) == 13  # 2 algebra, 4 factor and 7 dynamics kinds
    for i, job in enumerate(jobs):
        job["id"] = i  # each workload counts its own ids from 0
    workloads.write_fixtures(jobs, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    wrong = {}
    for job in jobs:
        reasons, _ = checks.check_job(job, cli.main(workloads.argv(job)), workloads.files(job))
        if reasons:
            wrong[workloads.kind(job)] = reasons
    assert wrong == {}


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
    per-layer metrics with products counted, and lorentz-check's det2 calls
    must feed minkowski.busy_s."""
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
    assert metrics["minkowski.busy_s"]["value"] > 0
