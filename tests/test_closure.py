"""The batched closure of build_poset: pinned context ids, the
max_contexts boundary, the meet pass against the pairwise oracle, and
the batched canonical form, lookups and in-batch duplicates of every
closure step against the one-at-a-time references."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms import algebra
from toposkms import index as context_index
from toposkms import scenario
from toposkms.algebra import Context, build_poset, contexts_equal
from toposkms.cli import main
from toposkms.errors import NotUnitary, PosetTooLarge, ScenarioError
from toposkms.scenario import load_scenario
from toposkms.tolerances import DEFAULT_TOL

from conftest import diagonal_context, random_unitary
from oracles import (
    build_poset_one_at_a_time,
    canonical_by_block,
    meet_context,
    meet_edges,
)

# sha256 of the newline-joined context ids of each closed poset, in index
# order, with its size
CORPUS_IDS = {
    "example_c3": (11, "087aa237c47afdfa075d4ed5773474b039ccaaafe2d72a3591d55514c1c8cd9c"),
    "gibbs_external": (32, "9ccf53d2f6c11c4c49401f8563e32cafa9c7e6d0dce31e31b73fa0fcb6ae47ee"),
    "gibbs_internal": (8, "5c5c68622f588d8e401742250d99e09c775d3f7f15486cb69effc905d14d2703"),
    "modular_suite": (4, "8bcdd900653f718211cde7e4a8a0acb7fd530ec01b3d0788d6dd74215029cb7e"),
    "negative_control": (8, "5c5c68622f588d8e401742250d99e09c775d3f7f15486cb69effc905d14d2703"),
    "reconstruction": (3, "3fe47001aca08f32034138fbfaf0547c763640b0cc2e69bbe11f684b48e4336b"),
    "underdetermined": (1, "4cc6139a206961767ccabb14895ffb10164c5a134784b5d75c9e2d35199e22a9"),
}
# perfbench's generated scenarios at seeds 1-3: the downward-closed
# diagonal C^6 poset (its ids do not depend on the seed), and the
# modular_dense posets of dims 4-10, 20 contexts each
LARGE_POSET_IDS = (202, "07e0b6105cdef1c7d1c3596fc0704639de98034de13a36370616cd6a1930170c")
MODULAR_DENSE_IDS = {
    1: ("1ddde5ba3d7c51b742c12f799284970737aa1cb227b34e09cc045471ab8ba0c9",
        "c78736e03c7fa72b1e79578502d058f45b4666e19528218006a3bbe09793df99",
        "6e7f78b3ebe45ab2f968007cfbeedf14d31ceb0add4370dbec12f0dd9dd6bbb2",
        "11525236123273c2abd50e119365793b967af5a6bad4c7d78ee2fd2c0e417989",
        "eef4ba67efd16ac7e82bcf508bc709e8c11e2b693149567f0cb3166e9f78485d",
        "e47b566ea018d05e44b08f0e6a2a74c10b27d368df9ec7588e8b37f2e266309c",
        "3a8c0557153ef9bc29f7a8191571bf88a75f974842ead404f6e5021d4baaad19"),
    2: ("9ede3a254b14d0b8687e26811906ff1cea3aec78847de94f328197ad44cf075a",
        "8ff73cb78466f3f8710fc1744768941ccf8800919131921a48fcd50e2aeb994b",
        "a652a80a8b4c49ae625941cd109d8d635d685de44dd19ab6b272818c0c10360b",
        "e38b084d7c2b97e64f376b600def4a5571a5f63e6585a07c6c804f9207560687",
        "868522275d87783a6668b87a0adedd26d4552d767f0a06737ea459a61493628e",
        "f39b9ba61ed0af56eec2bbc2ec2bd7e851ee3bf0975f97be4cd339a955b45b47",
        "04cfffcad5998c25d762a856809c94ae2ae9537d29e902bbe16eec4ecf280083"),
    3: ("adcfe06c65db72c4648afa68e025db8696e9ec2903bef2821bf2dc8c8788cdfa",
        "c0c4d33dbad2d782c7d176fdc0615530d94271c4497dd00b02dec89baf142cab",
        "0fc10552a6d861a666c0a49322bd993358a47a83ab5da42da24937560ffb6976",
        "6f27275b2126de9566713c2a9a431af8956f0262472272ea80d13da703a956c3",
        "888fad6bca15b9bc408b3821dc8b1e7f488398d19f37803f15079a92da589849",
        "4f07eb37d7952b7d358187168b431610bd8414296e67b6adbbd0ca8edc5039d1",
        "bb465054ef1caa3c2c7270b5cf7c7f2d1cbcf50ac6fa650d5cac4198cfb65435"),
}


def _ids(poset):
    digest = hashlib.sha256("\n".join(v.id for v in poset.contexts).encode())
    return len(poset), digest.hexdigest()


def test_corpus_closures_are_pinned(scenario_dir):
    got = {path.stem: _ids(load_scenario(path).poset)
           for path in sorted(scenario_dir.glob("*.json"))}
    assert got == CORPUS_IDS


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_closures_are_pinned(harness, seed):
    assert _ids(load_scenario(harness.large_poset_scenario(seed)).poset) \
        == LARGE_POSET_IDS
    got = tuple(_ids(load_scenario(harness.modular_dense_scenario(seed, n)).poset)
                for n in range(4, 11))
    assert got == tuple((20, d) for d in MODULAR_DENSE_IDS[seed])


@pytest.mark.parametrize("name", ["gibbs_external", "modular_suite"])
def test_max_contexts_at_the_closed_size(scenario_dir, tmp_path, capfd, name):
    # gibbs_external closes under the flow, modular_suite with meet closure
    # on: the closed size loads, one less stops at the last candidate
    size = CORPUS_IDS[name][0]
    raw = json.loads((scenario_dir / f"{name}.json").read_text())
    raw["poset"]["max_contexts"] = size
    assert _ids(load_scenario(raw).poset) == CORPUS_IDS[name]
    raw["poset"]["max_contexts"] = size - 1
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["run", "--scenario", str(path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"poset exceeded max_contexts={size - 1}" in capfd.readouterr().err
    with pytest.raises(ScenarioError) as caught:
        load_scenario(raw)
    assert isinstance(caught.value.__cause__, PosetTooLarge)


def test_downward_closure_fails_closed_before_bell_k(tmp_path, capfd,
                                                     monkeypatch):
    """One 16-block diagonal context on C^16 has Bell(16) - 2, about 10^10,
    proper coarse-grainings.  The closure canonicalises them in chunks of
    at most max_contexts - len(contexts) + 1, so with max_contexts 200 it
    stops at the first candidate past the cap, having handed at most 201
    labelings to the canonical form (the seed's among them)."""
    n = 16
    built = []
    canonical = algebra._canonical_forms

    def counted(frame, labelings, *args, **kwargs):
        built.extend(labelings)
        return canonical(frame, labelings, *args, **kwargs)

    monkeypatch.setattr(algebra, "_canonical_forms", counted)
    path = tmp_path / "diag16.json"
    path.write_text(json.dumps({
        "name": "diag16", "dim": n, "beta": 1.0,
        "hamiltonian": {"diag": [float(i) for i in range(n)]},
        "state": {"gibbs": True},
        "projections": {f"E{i}": {"diag": np.eye(n)[i].tolist()}
                        for i in range(n)},
        "contexts": {"V": {"blocks": [f"E{i}" for i in range(n)]}},
        "poset": {"downward_closure": True, "meet_closure": False,
                  "group_closure": False, "max_contexts": 200},
        "checks": ["poset"],
    }), encoding="utf-8")
    code = main(["run", "--scenario", str(path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "poset exceeded max_contexts=200" in capfd.readouterr().err
    assert 199 <= len(built) <= 201


def pairwise_meets(contexts, paired, tol):
    """(i, j, labels) of the non-trivial meets, one pair at a time."""
    out = []
    for i, v in enumerate(contexts):
        for j in range(max(i + 1, paired), len(contexts)):
            w = meet_context(v, contexts[j], tol)
            if w is not None:
                out.append((i, j, w))
    return out


def _check_meets(contexts, tol):
    """ContextIndex.meets and meet_edges against the pairwise oracle, for
    every `paired` cut the closure can take."""
    index = algebra.ContextIndex(tol, contexts)
    for paired in sorted({0, len(contexts) // 2, len(contexts) - 1}):
        pairs = []
        for i, j, edges in index.meet_edges(paired):
            for a, b, table in zip(i.tolist(), j.tolist(), edges):
                assert table.tobytes() == meet_edges(
                    contexts[a], contexts[b], tol).tobytes(), (a, b)
                pairs.append((a, b))
        n = len(contexts)
        assert sorted(pairs) == [(a, b) for a in range(n)
                                 for b in range(max(a + 1, paired), n)]
        batched = index.meets(paired)
        oracle = pairwise_meets(contexts, paired, tol)
        assert [m[:2] for m in batched] == [m[:2] for m in oracle]
        for (i, _, labels), (_, _, w) in zip(batched, oracle):
            made = Context.on_frame(contexts[i].frame, labels)
            assert made.frame.tobytes() == w.frame.tobytes()
            assert np.array_equal(made.labels, w.labels) and made.id == w.id


def pairwise_meet_closure(seeds, tol):
    """build_poset(seeds, meet_closure=True) one pair at a time, with a
    linear contexts_equal scan for duplicates."""
    kept = []

    def add(c):
        if any(contexts_equal(v, c, tol) for v in kept):
            return False
        kept.append(c)
        return True

    for s in seeds:
        add(s)
    paired = 0
    while paired < len(kept):
        snapshot = list(kept)
        for _, _, w in pairwise_meets(snapshot, paired, tol):
            add(w)
        paired = len(snapshot)
    return kept


def _dense_contexts(rng, n):
    """Contexts of the modular_dense kind: the basis M of a random frame
    and a partition W of it, their images under random unitaries, and
    bases T turned inside two of M's vectors; M and T0, turned inside
    the first two, meet in a context that is not a seed."""
    w = random_unitary(rng, n)
    labels = rng.integers(0, 3, size=n)
    labels[:3] = [0, 1, 2]
    out = [Context.on_frame(w, np.arange(n), "M"),
           Context.on_frame(w, labels, "W")]
    for c in range(2):
        out.append(Context.on_frame(random_unitary(rng, n) @ w,
                                    rng.permutation(labels), f"R{c}"))
    for c in range(3):
        turn = [0, 1] if c == 0 else rng.choice(n, 2, replace=False)
        inner = np.eye(n, dtype=complex)
        inner[np.ix_(turn, turn)] = random_unitary(rng, 2)
        out.append(Context.on_frame(w @ inner, np.arange(n), f"T{c}"))
    return out


@given(n=st.integers(3, 7), seed=st.integers(0, 2**32 - 1),
       entries=st.sampled_from([context_index.PRODUCT_ENTRIES, 48]))
def test_batched_meets_match_the_pairwise_oracle(n, seed, entries):
    """Dense contexts of dims 3-7, in one product per pair of buckets or
    in many slices (48 entries hold at most three 4 x 4 products): the
    same meets in the same order as the pairwise loop, the same edge
    tables bit for bit, and the same closure."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context_index, "PRODUCT_ENTRIES", entries)
        rng = np.random.default_rng(seed)
        seeds = _dense_contexts(rng, n)
        _check_meets(seeds, DEFAULT_TOL)
        closed = build_poset(seeds, meet_closure=True)
        assert len(closed) > len(build_poset(seeds))
        assert [v.id for v in closed.contexts] == [
            v.id for v in pairwise_meet_closure(seeds, DEFAULT_TOL)]


@pytest.mark.parametrize("entries", [context_index.PRODUCT_ENTRIES, 48])
def test_meets_on_the_corpus_and_rotated_c4(scenario_dir, monkeypatch,
                                            entries):
    monkeypatch.setattr(context_index, "PRODUCT_ENTRIES", entries)
    rng = np.random.default_rng(7)
    w = random_unitary(rng, 4)
    rotated = build_poset([Context([np.outer(c, c.conj()) for c in w.T], "W")],
                          downward_closure=True)
    posets = [rotated] + [load_scenario(path).poset
                          for path in sorted(scenario_dir.glob("*.json"))]
    for poset in posets:
        if len(poset) > 1:
            _check_meets(poset.contexts, poset.tol)


def _same_context(v, ref):
    """v is bit for bit the reference context ref."""
    assert v.frame.tobytes() == ref.frame.tobytes()
    assert not v.frame.flags.writeable
    assert v.labels.dtype == ref.labels.dtype
    assert v.labels.tobytes() == ref.labels.tobytes()
    assert np.asarray(v.starts).tolist() == ref.starts.tolist()
    assert v.ranks == ref.ranks and v.dim == ref.dim
    assert (v.fingerprint, v.id) == (ref.fingerprint, ref.id)


def _formed_rows(made):
    """The dense blocks a lookup forms itself from the contexts' frames."""
    return context_index.ContextIndex(DEFAULT_TOL)._match(made)[2]


@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, 50))
def test_batched_canonical_form_matches_the_per_block_reference(n, seed,
                                                                 count):
    """A random unitary frame at n = 2..8 and a chunk of 1-50 random
    labelings, the first with only even label values, so that some go
    unused (as meets give [0, 0, 2]): the batched canonical form gives
    each context of the per-block reference bit for bit, and so does
    on_frame, a chunk of one.  On a stack of distinct frames, one per
    labeling, each context and its rows are bit for bit those of one call
    per frame.  The rows handed to lookup are, bit for bit, those it forms
    from the canonical frames."""
    rng = np.random.default_rng(seed)
    frame = random_unitary(rng, n)
    labelings = rng.integers(0, n + 1, size=(count, n))
    labelings[0] = 2 * rng.integers(0, 2, size=n)
    made, rows = algebra._canonical_forms(frame, labelings)
    assert len(made) == count
    for v, labels in zip(made, labelings):
        _same_context(v, canonical_by_block(frame, labels))
    assert rows.tobytes() == _formed_rows(made).tobytes()
    _same_context(Context.on_frame(frame, labelings[-1], "L"),
                  canonical_by_block(frame, labelings[-1], "L"))
    frames = np.array([random_unitary(rng, n) for _ in range(count)])
    made, rows = algebra._canonical_forms(frames, labelings)
    assert len(made) == count
    assert rows.tobytes() == _formed_rows(made).tobytes()
    first = 0
    for v, one, labels in zip(made, frames, labelings):
        alone, alone_rows = algebra._canonical_forms(one, labels[None])
        _same_context(v, alone[0])
        _same_context(v, canonical_by_block(one, labels))
        assert rows[first:first + v.k].tobytes() == alone_rows.tobytes()
        first += v.k
    assert first == len(rows)


def _poset_state(poset):
    """What a closed poset holds: its contexts bit for bit, the block
    table, the order and the restriction tables."""
    index = poset.index
    return ([(v.id, v.fingerprint, v.frame.tobytes(), v.labels.tobytes(),
              v.ranks) for v in poset.contexts],
            index.block_ids, index.ranks.tolist(), index.rows.tobytes(),
            poset.leq.tobytes(), poset.block_maps)


def _closures(sources):
    """(seeds, keyword arguments) of build_poset for each scenario (a
    path or a raw dict), as load_scenario calls it."""
    calls = []

    def recorded(seeds, **kwargs):
        calls.append((list(seeds), kwargs))
        return build_poset(seeds, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "build_poset", recorded)
        for source in sources:
            load_scenario(source)
    return calls


def _modular_dense(harness):
    """perfbench's modular_dense scenarios, n = 4..10 at seed 1: closed
    downward, under meets and under the flow."""
    return [harness.modular_dense_scenario(1, n) for n in range(4, 11)]


def _rotated_c4():
    w = random_unitary(np.random.default_rng(7), 4)
    return Context([np.outer(c, c.conj()) for c in w.T], "W")


def _sharing_seeds():
    """The diagonal C^4 context and one rotated inside span{e0, e1}: the
    coarse-graining of the second that merges its first two blocks
    equal coarse-grainings of the first."""
    turn = np.eye(4, dtype=complex)
    turn[:2, :2] = random_unitary(np.random.default_rng(3), 2)
    return [diagonal_context(4, "D"),
            Context([np.outer(c, c.conj()) for c in turn.T], "E")]


@pytest.mark.parametrize("entries", [context_index.PRODUCT_ENTRIES, 48])
def test_build_poset_matches_the_one_at_a_time_reference(scenario_dir,
                                                         harness,
                                                         monkeypatch,
                                                         entries):
    """The corpus closures, the benchmark's modular_dense closures, the
    diagonal C^4 and C^5 and the rotated C^4 downward closures, and two
    seeds that share coarse-grainings with meets: the same contexts,
    block table, order and restriction tables as building and looking up
    one candidate at a time, in one chunk per downward step or, at 48
    entries, in chunks of three and products cut into slices."""
    cases = _closures(sorted(scenario_dir.glob("*.json")))
    assert len(cases) == 7
    cases += _closures(_modular_dense(harness))
    monkeypatch.setattr(context_index, "PRODUCT_ENTRIES", entries)
    cases += [([seed], {"downward_closure": True}) for seed in (
        diagonal_context(4, "D4"), diagonal_context(5, "D5"), _rotated_c4())]
    cases.append((_sharing_seeds(), {"downward_closure": True,
                                     "meet_closure": True}))
    for seeds, kwargs in cases:
        assert _poset_state(build_poset(seeds, **kwargs)) == _poset_state(
            build_poset_one_at_a_time(seeds, **kwargs))


def test_a_stale_match_is_extended(monkeypatch):
    """The diagonal C^4 closure looks up all its coarse-grainings in one
    chunk, so {01}{23} adds the block {01} after {01}{2}{3} was looked
    up; append extends the older match with the blocks added since, and
    each distinct block, known by its diagonal support, has one table
    id."""
    stale = []
    append = context_index.ContextIndex.append

    def recorded(self, v, match=None):
        if match is not None and match[1].shape[1] < len(self.ranks):
            stale.append(v.id)
        return append(self, v, match)

    monkeypatch.setattr(context_index.ContextIndex, "append", recorded)
    seed = diagonal_context(4, "D4")
    poset = build_poset([seed], downward_closure=True)
    assert stale
    assert _poset_state(poset) == _poset_state(
        build_poset_one_at_a_time([seed], downward_closure=True))
    ids = {}
    for v, table in zip(poset.contexts, poset.index.block_ids):
        for b, t in enumerate(table):
            support = np.flatnonzero(np.diag(v.block(b)).real > 0.5)
            ids.setdefault(tuple(support.tolist()), set()).add(t)
    assert len(ids) == len(poset.index.ranks) == 2 ** 4 - 2
    assert all(len(held) == 1 for held in ids.values())


def _recorded_appends(monkeypatch) -> list:
    """The ids of the contexts ContextIndex.append adds, in order."""
    appended = []
    append = context_index.ContextIndex.append

    def recorded(self, v, match=None):
        appended.append(v.id)
        return append(self, v, match)

    monkeypatch.setattr(context_index.ContextIndex, "append", recorded)
    return appended


def _check_caps(monkeypatch, seeds, **kwargs) -> int:
    """For every max_contexts from the seed count up to the closed size,
    the closure appends the same contexts as the one-at-a-time reference
    and raises PosetTooLarge at the same candidate, or closes in both;
    the closed size."""
    appended = _recorded_appends(monkeypatch)
    size = len(build_poset(seeds, **kwargs))
    for cap in range(len(seeds), size + 1):
        runs = []
        for build in (build_poset, build_poset_one_at_a_time):
            appended.clear()
            try:
                build(seeds, max_contexts=cap, **kwargs)
                raised = False
            except PosetTooLarge:
                raised = True
            runs.append((raised, list(appended)))
        assert runs[0] == runs[1], cap
        assert runs[0][0] == (cap < size)
        assert len(runs[0][1]) == min(cap, size)
    return size


def test_max_contexts_inside_a_chunk_with_duplicates(monkeypatch):
    """Two seeds that share coarse-grainings, closed downward: their
    coarse-grainings are one chunk, which holds equal contexts.  For
    every max_contexts from the seed count up to the closed size, the
    closure appends the same contexts as the one-at-a-time reference and
    raises PosetTooLarge at the same candidate, or closes in both."""
    seeds = _sharing_seeds()
    size = _check_caps(monkeypatch, seeds, downward_closure=True)
    assert size < 2 * 14  # the seeds share coarse-grainings


def _turned(turn, seed, context_id):
    """The C^4 basis context of the standard basis with the vectors
    `turn` rotated among themselves by a random unitary."""
    inner = np.eye(4, dtype=complex)
    inner[np.ix_(turn, turn)] = random_unitary(np.random.default_rng(seed),
                                               len(turn))
    return Context([np.outer(c, c.conj()) for c in inner.T], context_id)


def _meet_twins():
    """The diagonal C^4 context, two bases turned inside span{e0, e1}
    and one turned inside span{e2, e3}: each pair of the first three
    meets in the same context {e0 + e1, e2, e3}, and E1 ∧ F = E2 ∧ F."""
    return ([diagonal_context(4, "D"), _turned([0, 1], 3, "E1"),
             _turned([0, 1], 4, "E2"), _turned([2, 3], 5, "F")],
            {"meet_closure": True})


def _group_twins():
    """Two dense C^4 bases and the phase [U, U D, U'], D diagonal in the
    first basis: U and U D move the first to the same context, as D
    fixes it, and the second to different ones."""
    rng = np.random.default_rng(11)
    w = random_unitary(rng, 4)
    d = w @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) @ w.conj().T
    u, other = random_unitary(rng, 4), random_unitary(rng, 4)
    return ([Context.on_frame(w, np.arange(4), "W"),
             Context.on_frame(random_unitary(rng, 4), [0, 0, 1, 2], "R")],
            {"unitaries": [[u, u @ d, other]]})


def _downward_twins():
    """_sharing_seeds closed downward: the coarse-grainings of both
    seeds are one chunk, and some of E's equal some of D's."""
    return _sharing_seeds(), {"downward_closure": True}


@pytest.mark.parametrize("case", [_meet_twins, _group_twins,
                                  _downward_twins])
@pytest.mark.parametrize("entries", [context_index.PRODUCT_ENTRIES, 48])
def test_in_batch_duplicates_match_the_one_at_a_time_reference(
        monkeypatch, case, entries):
    """A meet pass where V1 ∧ V2 = V1 ∧ V3, a group sweep where two images
    of one context coincide, and a downward step where two contexts share
    a coarse-graining: the in-batch frame test finds equal candidates,
    and the closure is the one-at-a-time reference's.  At 48 entries the
    downward step comes in chunks of three, which here split the shared
    coarse-grainings, so only the closure is compared there."""
    monkeypatch.setattr(context_index, "PRODUCT_ENTRIES", entries)
    found = []
    twins = algebra._twins

    def recorded(*args):
        out = twins(*args)
        found.extend(out.values())
        return out

    monkeypatch.setattr(algebra, "_twins", recorded)
    seeds, kwargs = case()
    poset = build_poset(seeds, **kwargs)
    assert found or (entries == 48 and case is _downward_twins)
    assert len(poset) > len(seeds)
    assert _poset_state(poset) == _poset_state(
        build_poset_one_at_a_time(seeds, **kwargs))


@pytest.mark.parametrize("case", [_meet_twins, _group_twins])
def test_max_contexts_inside_a_meet_or_group_batch(monkeypatch, case):
    """For every max_contexts from the seed count up to the closed size,
    a meet pass or a group sweep with equal candidates appends the same
    contexts as the one-at-a-time reference and raises PosetTooLarge at
    the same candidate, or closes in both."""
    seeds, kwargs = case()
    assert _check_caps(monkeypatch, seeds, **kwargs) > len(seeds) + 1


def test_a_non_unitary_phase_adds_nothing(monkeypatch):
    """A phase whose second matrix is not unitary raises NotUnitary before
    its sweep appends any image, though the first is unitary."""
    appended = _recorded_appends(monkeypatch)
    seeds, kwargs = _group_twins()
    u = kwargs["unitaries"][0][0]
    with pytest.raises(NotUnitary):
        build_poset(seeds, unitaries=[[u, 1.5 * u]])
    assert appended == [v.id for v in seeds]


def test_one_lookup_per_batch(harness, monkeypatch):
    """After its seeds, build_poset looks up each batch it puts in
    canonical form in one ContextIndex.lookup call: a modular_dense
    closure makes at most 8 calls."""
    counts = {"lookup": 0, "forms": 0}
    lookup, forms = context_index.ContextIndex.lookup, algebra._canonical_forms

    def counted_lookup(self, candidates, rows=None):
        counts["lookup"] += isinstance(candidates, list)
        return lookup(self, candidates, rows)

    def counted_forms(*args):
        counts["forms"] += 1
        return forms(*args)

    for seeds, kwargs in _closures(_modular_dense(harness)):
        with monkeypatch.context() as mp:
            mp.setattr(context_index.ContextIndex, "lookup", counted_lookup)
            mp.setattr(algebra, "_canonical_forms", counted_forms)
            counts.update(lookup=0, forms=0)
            build_poset(seeds, **kwargs)
        assert counts["lookup"] == len(seeds) + counts["forms"]
        assert counts["lookup"] <= 8
