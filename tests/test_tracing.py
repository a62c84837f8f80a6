"""The benchmark's tracer swaps gloss functions for wrappers, looking each one
up with ``vars(owner)[attr]``; every name it lists must still exist there.
Its workloads call gloss with fixed arguments, which must still bind."""
import importlib.util
import inspect
from pathlib import Path

import pytest

from gloss import data, framework
from gloss.framework import TrainConfig
from gloss.models import ModelBundle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    entries = [(owner, attr) for owner, attr, *_ in tracing.TARGETS + tracing.LEAVES]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in entries
               if attr not in vars(owner)]
    assert len(entries) > 40 and missing == []


# (callable, positional arguments, keyword names) as perfbench/workloads.py passes them
WORKLOAD_CALLS = [
    (framework.train, 3, ("classifier", "mode", "optimizer", "start_epoch")),
    (framework.predict_probs, 2, ()),
    (framework.generate_explanations, 3, ()),
    (framework.evaluate, 2, ("seed",)),
    (TrainConfig.for_schema, 1, ("seed", "epochs", "batch_size", "lr")),
    (framework.load_bundle, 1, ()),
    (framework.load_classifier, 1, ()),
    (data.load_jsonl, 2, ()),
    (data.filter_and_split, 3, ()),
    (data.build_vocab, 2, ()),
    (ModelBundle, 4, ("seed",)),
]


@pytest.mark.parametrize("fn, n_positional, keywords", WORKLOAD_CALLS,
                         ids=[fn.__qualname__ for fn, *_ in WORKLOAD_CALLS])
def test_workload_call_arguments_still_bind(fn, n_positional, keywords):
    inspect.signature(fn).bind(*range(n_positional), **{k: None for k in keywords})
