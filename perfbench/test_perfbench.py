"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import locc_lab  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import check_pass, run_pass  # noqa: E402
from tracing import Tracer, layer_functions, metric_specs, per_layer  # noqa: E402


def module_bindings():
    """(module, attribute) -> object, for every locc_lab module namespace."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "locc_lab" or name.startswith("locc_lab.")
        for attr, value in vars(module).items()
    }


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return workloads.WORKLOADS[request.param](locc_lab, 7, str(tmp_path))


def test_traced_and_untraced_answers_have_one_digest(workload):
    pool = workload.pool(0)
    plain, _, _, _ = run_pass(workload, pool)
    assert check_pass(workload, pool, plain) == []
    tracer = Tracer(locc_lab)
    with tracer.installed():
        traced, _, _, _ = run_pass(workload, pool, tracer)
    assert workloads.digest(traced) == workloads.digest(plain)
    assert tracer.calls["query"] == len(pool)
    values = per_layer(tracer.calls, tracer.counts, tracer.self_s, 0.0)
    assert set(values) == set(metric_specs())


def test_traced_counts_repeat_exactly(workload):
    pool = workload.pool(0)
    seen = []
    for _ in range(2):
        tracer = Tracer(locc_lab)
        with tracer.installed():
            run_pass(workload, pool, tracer)
        seen.append((dict(tracer.calls), dict(tracer.counts)))
    assert seen[0] == seen[1]


def test_originals_restored_after_a_traced_query_raises():
    before = module_bindings()
    tracer = Tracer(locc_lab)
    spectrum = locc_lab.make_spectrum(["0.5", "0.5"])
    with pytest.raises(ValueError):
        with tracer.installed():
            for module, attr in (("multicopy", "tensor_power"), ("catalysis", "majorized_by")):
                wrapped = getattr(getattr(locc_lab, module), attr)
                assert wrapped is not before[("locc_lab." + module, attr)]
            with tracer.span("query", 0):
                locc_lab.tensor_power(spectrum, 0)
    after = module_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.calls["spectrum.tensor_power"] == 1
    assert tracer._stack == []


def test_every_namespace_binding_is_wrapped():
    originals = set(map(id, layer_functions(locc_lab).values()))
    tracer = Tracer(locc_lab)
    with tracer.installed():
        assert not any(id(v) in originals for v in module_bindings().values())


def test_self_time_excludes_children():
    tracer = Tracer(locc_lab)
    x = locc_lab.make_spectrum(["0.4", "0.36", "0.14", "0.1"])
    y = locc_lab.make_spectrum(["0.5", "0.25", "0.25"])
    with tracer.installed():
        with tracer.span("query", 0):
            locc_lab.pmax_scan(x, y, 6)
    spans = {s[0]: s for s in tracer.spans}
    scan = spans["multicopy.pmax_scan"]
    children = [s for s in tracer.spans if s[3] == tracer.spans.index(scan)]
    assert len(children) == 18  # 6 x (two powers + one sweep)
    covered = sum(s[2] - s[1] for s in children)
    assert tracer.self_s["multicopy.pmax_scan"] == pytest.approx(scan[2] - scan[1] - covered)
    assert sum(tracer.self_s.values()) == pytest.approx(spans["query"][2] - spans["query"][1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    dirs = iter(range(10))

    def fingerprint(seed, index):
        workdir = tmp_path / str(next(dirs))
        workdir.mkdir()
        w = workloads.WORKLOADS[name](locc_lab, seed, str(workdir))
        return [(q.kind, q.probs, q.extra.get("k_max"), len(q.args)) for q in w.pool(index)]

    assert fingerprint(3, 1) == fingerprint(3, 1)
    assert fingerprint(3, 1) != fingerprint(4, 1)
    assert fingerprint(3, 1) != fingerprint(3, 2)


@pytest.mark.parametrize("q,lo,hi", [(4, 2, 4), (10, 2, 2), (12, 2, 4), (20, 3, 5), (17, 2, 6)])
def test_grid_size_matches_the_package_grid(q, lo, hi):
    cfg = locc_lab.CatalystSearchConfig(lo, hi, q)
    assert ref.grid_size(q, lo, hi) == sum(1 for _ in locc_lab.grid_candidates(cfg))
    assert ref.grid_size(q, lo, hi) == sum(1 for _ in ref.grid(q, lo, hi))


def test_reference_reproduces_the_paper():
    p = workloads.CATALOG_PROBS
    assert ref.pmax_at(p["eq2"], p["eq3"], 1) == workloads.PAPER_PMAX[("eq2", "eq3", 1)]
    assert ref.pmax_at(p["eq6"], p["eq7"], 2) == workloads.PAPER_PMAX[("eq6", "eq7", 2)]
    for (a, b), n in workloads.PAPER_MIN_K.items():
        got = [ref.deterministic_at(p[a], p[b], m) for m in range(1, n + 1)]
        assert got == [False] * (n - 1) + [True]
    assert ref.catalyzes(ref.vector(p["eq2"]), ref.vector(p["eq3"]), ref.vector(p["chi"]))
    assert ref.relation(p["eq12"], p["eq13"]) == "incomparable"
    assert ref.strong(p["eq12"], p["eq13"])


def test_a_wrong_answer_fails_its_check(tmp_path):
    w = workloads.ManyCopy(locc_lab, 1, str(tmp_path))
    query = next(q for q in w.pool(0) if q.names == ("eq6", "eq7") and q.kind == "pmax_scan")
    answer = w.run(query)
    assert check_pass(w, [query], [answer]) == []
    wrong = locc_lab.pmax_scan(*query.args[:2], query.args[2] - 1)
    assert len(check_pass(w, [query], [wrong])) == 1
