"""Self-tests of the benchmark's own code.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's main suite.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from caggbench import catalog, tracing, workloads  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return workloads.import_program()


def test_self_time_of_hand_built_span_tree():
    # 0 [0, 10] holds 1 [1, 4] (which holds 2 [2, 3]) and 3 [5, 9];
    # 4 [11, 12] is a second root
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_summarize_splits_self_time_between_nested_wrappers():
    t = tracing.Tracer()
    inner = t._span(lambda: sum(range(20000)), "inner")
    outer = t._span(lambda: [inner(), inner()], "outer")
    outer()
    outer()
    s = t.summarize()
    assert s["calls"] == {"inner": 4.0, "outer": 2.0}
    assert s["self"]["inner"] == s["total"]["inner"]
    assert s["self"]["outer"] == pytest.approx(s["total"]["outer"] - s["total"]["inner"])
    assert 0 < s["self"]["outer"] < s["total"]["outer"]
    late = t.summarize(lo=3)  # the second outer call only
    assert late["calls"] == {"inner": 2.0, "outer": 1.0}


def test_metric_names_and_counts():
    names = [n for n, *_ in catalog.END_TO_END] + [n for n, *_ in catalog.PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert catalog.NAME_RE.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for _, unit, better, *_ in catalog.END_TO_END + tuple(catalog.PER_LAYER):
        assert catalog.UNIT_RE.fullmatch(unit) and better in ("lower", "higher")
    assert 1 <= len(catalog.END_TO_END) <= 16
    assert 1 <= len(catalog.PER_LAYER) <= 128
    bounds = {name: bound for name, _, _, bound in catalog.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert ("setup_s", "s", "lower", max(bounds.values())) in catalog.END_TO_END
    for why in catalog.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_benchmark_json_matches_catalog():
    written = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert written == catalog.benchmark_json()


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("cls", [workloads.TrainCagg32, workloads.EvalCagg128])
def test_inputs_repeat_with_the_seed(cls, prog, tmp_path):
    trees = []
    for run, seed in enumerate((5, 5, 6)):
        d = tmp_path / str(run)
        d.mkdir()
        cls.make_inputs(prog, seed, d)
        trees.append(_tree(d))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_conv_name_map_covers_every_layer(prog):
    model = prog.models.build_caggnet(prog.models.ModelConfig(
        levels=3, columns=2, base_channels=8, seed=1))
    t = tracing.Tracer()
    t.register_params(model.params)
    assert t.layer_names == list(catalog.CONV_LAYERS)
    assert len(catalog.CONV_LAYERS) == 27

    originals = (prog.functional.conv2d, dict(prog.autograd.RULES),
                 prog.models.forward, prog.train.forward, prog.models.ParamStore.apply_grads)
    x = prog.tensor_core.Tensor4(np.random.default_rng(0).random((1, 1, 16, 16), dtype=np.float32))
    with t.installed(prog):
        fp = prog.models.forward(model, x, training=True)
        prog.autograd.backward(fp.tape, prog.train.traced_bce_loss(fp.probs_var, x.data > 0.5))
    assert (prog.functional.conv2d, dict(prog.autograd.RULES), prog.models.forward,
            prog.train.forward, prog.models.ParamStore.apply_grads) == originals

    s = t.summarize()
    assert s["calls"]["functional.conv2d"] == 27 and s["calls"]["autograd.conv2d"] == 27
    conv = [i for i, n in enumerate(t.span_names) if n.endswith("conv2d")]
    layers = np.array(t.layer)[np.isin(np.array(t.name), conv)]
    assert sorted(layers.tolist()) == sorted(list(range(27)) * 2)
    assert all(v > 0 for v in s["conv_fwd"].values())
    assert all(v > 0 for v in s["conv_bwd"].values())


def test_train_passes_continue_one_model(prog, tmp_path):
    cls = workloads.TrainCagg32
    cls.make_inputs(prog, 3, tmp_path)
    wl = cls(prog, 3, tmp_path)
    first, again = wl.prepare(), wl.prepare()
    assert first.model is not wl.model and first.epoch == again.epoch == 0
    done = wl.run(first)
    assert wl.check(done).failed == 0
    # the state a pass starts from is untouched until `advance`
    assert wl.fingerprint(wl.run(again)) == wl.fingerprint(done)
    wl.advance(done)
    nxt = wl.prepare()
    assert nxt.epoch == 1 and nxt.adam.t == done.adam.t > 0
    trained = done.model.params.snapshot()
    assert all(np.array_equal(v, trained[k]) for k, v in nxt.model.params.snapshot().items())
