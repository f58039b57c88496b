import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singprep import (
    InputError,
    EvalReport,
    cosine_sim,
    dtw_align,
    evaluate_pair,
    f0_rmse,
    mcd_from_frames,
    mcep,
    semitone_accuracy,
    tokenize_transcript,
    vuv_error,
    wer,
)
from singprep.metrics import (_DCT_BASIS, _N_MELS, MCEP_HOP, MCEP_ORDER, MCEP_RATE,
                              McepFrames, read_embedding)
from singprep.dsp import F0Contour, Waveform, resample

from helpers import SR, sine, speech_clip, voiced_segment
from oracles import dtw_align_oracle, dtw_oracle_cost, wer_oracle


def diag(n):
    return [(i, i) for i in range(n)]


def _mcd(ref, hyp):
    """MCD over the DTW path of the two clips' mel-cepstra, as evaluate_pair scores it."""
    a, b = mcep(ref), mcep(hyp)
    return mcd_from_frames(a, b, dtw_align(a, b))


class TestMcep:
    def test_frame_shape(self):
        frames = mcep(sine(220.0, 1.0, sr=MCEP_RATE))
        assert frames.frames.shape[1] == 13
        assert frames.order == 13
        assert frames.hop == MCEP_HOP

    def test_wrong_rate_rejected(self):
        with pytest.raises(InputError, match="24000"):
            mcep(sine(220.0, 1.0, sr=16000))

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            mcep(Waveform(np.zeros(600), MCEP_RATE))

    def test_deterministic(self):
        w = sine(220.0, 0.5)
        assert np.array_equal(mcep(w).frames, mcep(w).frames)

    def test_distinguishes_spectra(self):
        a = mcep(sine(220.0, 0.5)).frames.mean(axis=0)
        b = mcep(Waveform(voiced_segment(0.5, 220.0, 220.0,
                                         [(600, 90)], seed=1), SR)).frames.mean(axis=0)
        assert np.abs(a - b).max() > 0.1


    def test_cosine_basis_equals_scipy_dct(self):
        from scipy.fft import dct

        logmel = np.random.default_rng(4).uniform(-40.0, 5.0, (200, _N_MELS))
        expected = dct(logmel, type=2, norm="ortho", axis=1)[:, 1:MCEP_ORDER + 1]
        assert np.max(np.abs(logmel @ _DCT_BASIS.T - expected)) <= 1e-12


class TestDtwAlign:
    def test_identical_sequences_take_diagonal(self):
        rng = np.random.default_rng(0)
        a = McepFrames(rng.standard_normal((6, 3)), MCEP_HOP, 3)
        assert dtw_align(a, a) == diag(6)

    def test_path_boundaries(self):
        rng = np.random.default_rng(1)
        a = McepFrames(rng.standard_normal((5, 3)), MCEP_HOP, 3)
        b = McepFrames(rng.standard_normal((8, 3)), MCEP_HOP, 3)
        path = dtw_align(a, b)
        assert path[0] == (0, 0) and path[-1] == (4, 7)

    def test_path_monotone_with_unit_steps(self):
        rng = np.random.default_rng(2)
        a = McepFrames(rng.standard_normal((7, 3)), MCEP_HOP, 3)
        b = McepFrames(rng.standard_normal((5, 3)), MCEP_HOP, 3)
        path = dtw_align(a, b)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}

    def test_duplicated_frame_absorbed(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((5, 3))
        dup = np.insert(base, 2, base[2], axis=0)
        a = McepFrames(base, MCEP_HOP, 3)
        b = McepFrames(dup, MCEP_HOP, 3)
        path = dtw_align(a, b)
        cost = sum(np.linalg.norm(base[i] - dup[j]) for i, j in path)
        assert cost == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("trial", range(20))
    def test_cost_matches_bruteforce_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        n, m = rng.integers(2, 7, size=2)
        a = rng.standard_normal((n, 4))
        b = rng.standard_normal((m, 4))
        path = dtw_align(McepFrames(a, MCEP_HOP, 4), McepFrames(b, MCEP_HOP, 4))
        cost = sum(np.linalg.norm(a[i] - b[j]) for i, j in path)
        assert cost == pytest.approx(dtw_oracle_cost(a, b), rel=1e-9)


def path_cost(a, b, path):
    return sum(float(np.linalg.norm(a.frames[i] - b.frames[j])) for i, j in path)


def assert_matches_oracle(a, b):
    path = dtw_align(a, b)
    expected = dtw_align_oracle(a, b)
    assert path == expected
    assert path_cost(a, b, path) == path_cost(a, b, expected)


class TestDtwAlignMatchesFrozenOracle:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (2, 17),
                                       (17, 2), (23, 31), (40, 12)])
    def test_random_shapes(self, shape):
        rng = np.random.default_rng(sum(shape))
        n, m = shape
        assert_matches_oracle(McepFrames(rng.standard_normal((n, 5)), MCEP_HOP, 5),
                              McepFrames(rng.standard_normal((m, 5)), MCEP_HOP, 5))

    @pytest.mark.parametrize("trial", range(40))
    def test_integer_frames_with_exact_ties(self, trial):
        rng = np.random.default_rng(500 + trial)
        n, m = rng.integers(1, 25, size=2)
        a = rng.integers(-1, 2, size=(n, 2)).astype(float)
        b = rng.integers(-1, 2, size=(m, 2)).astype(float)
        assert_matches_oracle(McepFrames(a, MCEP_HOP, 2), McepFrames(b, MCEP_HOP, 2))

    def test_mcep_frames_of_unequal_clips(self):
        w, _, _ = speech_clip()
        other = Waveform(voiced_segment(1.3, 180.0, 150.0,
                                        [(700, 100), (1200, 140)], seed=5), SR)
        a, b = mcep(w), mcep(other)
        assert len(a) != len(b)
        assert_matches_oracle(a, b)
        assert_matches_oracle(b, a)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(1, 14), st.integers(0, 2**32 - 1),
       st.booleans())
def test_dtw_align_oracle_property(n, m, seed, integer):
    rng = np.random.default_rng(seed)
    if integer:
        a = rng.integers(-2, 3, size=(n, 3)).astype(float)
        b = rng.integers(-2, 3, size=(m, 3)).astype(float)
    else:
        a, b = rng.standard_normal((n, 3)), rng.standard_normal((m, 3))
    assert_matches_oracle(McepFrames(a, MCEP_HOP, 3), McepFrames(b, MCEP_HOP, 3))


_DTW_RSS_SCRIPT = """
import numpy as np
from singprep.metrics import McepFrames, dtw_align
def peak_kb():
    return next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith("VmHWM:"))
rng = np.random.default_rng(0)
a, b = rng.standard_normal((3000, 13)), rng.standard_normal((2800, 13))
dtw_align(McepFrames(a[:50]), McepFrames(b[:40]))  # load BLAS first
before = peak_kb()
dtw_align(McepFrames(a), McepFrames(b))
print(peak_kb() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_dtw_memory_is_one_cost_matrix():
    # 3000 x 2800 float64 cells are 64 MB. A separate distance and cost
    # matrix grew the peak by 129 MB; building both in one array, by 65 MB.
    # VmHWM is read in a child so the test process's own peak does not count.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _DTW_RSS_SCRIPT],
                          capture_output=True, text=True, env=env, check=True)
    assert int(done.stdout) / 1024 <= 96  # VmHWM is in kB


class TestMcepFramesValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, bad):
        frames = np.zeros((4, 3))
        frames[2, 1] = bad
        with pytest.raises(InputError, match="finite"):
            McepFrames(frames, MCEP_HOP, 3)

    @pytest.mark.parametrize("hop", [0.0, -MCEP_HOP, float("nan"), float("inf")])
    def test_nonpositive_or_non_finite_hop_rejected(self, hop):
        with pytest.raises(InputError, match="hop"):
            McepFrames(np.zeros((2, 3)), hop, 3)


class TestMcd:
    def test_identity_zero(self):
        w, _, _ = speech_clip()
        assert _mcd(w, w) == 0.0

    def test_constant_offset_closed_form(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((40, 13))
        offset = rng.standard_normal(13) * 0.3
        a = McepFrames(base, MCEP_HOP, 13)
        b = McepFrames(base + offset, MCEP_HOP, 13)
        expected = (10.0 / math.log(10)) * math.sqrt(2.0 * float(offset @ offset))
        assert mcd_from_frames(a, b, diag(40)) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        a, _, _ = speech_clip()
        b = Waveform(a.samples[::-1].copy(), a.sample_rate)
        assert _mcd(a, b) == pytest.approx(_mcd(b, a), rel=1e-9)

    def test_positive_for_different_audio(self):
        assert _mcd(sine(220.0, 0.5), sine(330.0, 0.5)) > 0.5


class TestF0Rmse:
    def test_identity_zero(self):
        c = F0Contour(np.full(50, 220.0), MCEP_HOP)
        assert f0_rmse(c, c, diag(50)) == 0.0

    def test_octave_shift_is_ln2(self):
        ref = F0Contour(np.full(50, 220.0), MCEP_HOP)
        hyp = F0Contour(np.full(50, 440.0), MCEP_HOP)
        assert f0_rmse(ref, hyp, diag(50)) == pytest.approx(math.log(2), abs=1e-9)

    def test_only_covoiced_frames_counted(self):
        ref = F0Contour(np.array([220.0, 0.0, 220.0, 220.0]), MCEP_HOP)
        hyp = F0Contour(np.array([220.0, 330.0, 0.0, 220.0]), MCEP_HOP)
        assert f0_rmse(ref, hyp, diag(4)) == 0.0

    def test_disjoint_voicing_returns_none(self):
        ref = F0Contour(np.array([220.0, 0.0]), MCEP_HOP)
        hyp = F0Contour(np.array([0.0, 220.0]), MCEP_HOP)
        assert f0_rmse(ref, hyp, diag(2)) is None


class TestVuvError:
    def test_identity_zero(self):
        c = F0Contour(np.array([220.0, 0.0, 220.0]), MCEP_HOP)
        assert vuv_error(c, c, diag(3)) == 0.0

    def test_complete_flip_is_one(self):
        ref = F0Contour(np.array([220.0, 0.0]), MCEP_HOP)
        hyp = F0Contour(np.array([0.0, 220.0]), MCEP_HOP)
        assert vuv_error(ref, hyp, diag(2)) == 1.0

    def test_partial_disagreement(self):
        ref = F0Contour(np.array([220.0, 0.0, 220.0, 220.0]), MCEP_HOP)
        hyp = F0Contour(np.array([220.0, 0.0, 0.0, 220.0]), MCEP_HOP)
        assert vuv_error(ref, hyp, diag(4)) == pytest.approx(0.25)


class TestSemitoneAccuracy:
    def test_identity_is_one(self):
        c = F0Contour(np.full(20, 220.0), MCEP_HOP)
        assert semitone_accuracy(c, c, diag(20)) == 1.0

    def test_full_semitone_off_is_zero(self):
        ref = F0Contour(np.full(20, 220.0), MCEP_HOP)
        hyp = F0Contour(np.full(20, 220.0 * 2 ** (1 / 12)), MCEP_HOP)
        assert semitone_accuracy(ref, hyp, diag(20)) == 0.0

    def test_forty_cents_rounds_to_same_note(self):
        ref = F0Contour(np.full(20, 220.0), MCEP_HOP)
        hyp = F0Contour(np.full(20, 220.0 * 2 ** (0.4 / 12)), MCEP_HOP)
        assert semitone_accuracy(ref, hyp, diag(20)) == 1.0

    def test_no_covoiced_returns_none(self):
        ref = F0Contour(np.zeros(5), MCEP_HOP)
        assert semitone_accuracy(ref, ref, diag(5)) is None


class TestWer:
    def test_identity_zero(self):
        assert wer(["a", "b", "c"], ["a", "b", "c"]) == 0.0

    def test_empty_ref_is_none(self):
        assert wer([], ["a"]) is None

    def test_empty_hyp_all_deletions(self):
        assert wer(["a", "b"], []) == 1.0

    def test_substitution(self):
        assert wer(["a", "b"], ["a", "x"]) == 0.5

    def test_can_exceed_one(self):
        assert wer(["a"], ["x", "y", "z"]) == 3.0

    def test_matches_oracle_on_500_random_pairs(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "d"]
        for _ in range(500):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            assert wer(ref, hyp) == pytest.approx(wer_oracle(ref, hyp))


class TestTokenizeTranscript:
    def test_latin_lowercased(self):
        assert tokenize_transcript("Song FAN") == ["song", "fan"]

    def test_han_chars_are_single_tokens(self):
        assert tokenize_transcript("我和你") == ["我", "和", "你"]

    def test_mixed_order_preserved(self):
        assert tokenize_transcript("我 sing 你") == ["我", "sing", "你"]

    def test_punctuation_and_digits_dropped(self):
        assert tokenize_transcript("one, two! 42") == ["one", "two"]

    def test_empty(self):
        assert tokenize_transcript("") == []


class TestCosineSim:
    def test_identical_is_one(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_sim(v, v) == pytest.approx(1.0)

    def test_scale_invariant(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_sim(v, 7.5 * v) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) \
            == pytest.approx(0.0)

    def test_opposite_is_minus_one(self):
        v = np.array([1.0, -2.0])
        assert cosine_sim(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            cosine_sim(np.zeros(3), np.ones(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            cosine_sim(np.ones(3), np.ones(4))


class TestReadEmbedding:
    def test_text_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1.0\n-2.5\n0.25\n")
        assert read_embedding(p) == pytest.approx([1.0, -2.5, 0.25])

    def test_npy_file(self, tmp_path):
        p = tmp_path / "e.npy"
        np.save(p, np.array([0.5, 0.5]))
        assert read_embedding(p) == pytest.approx([0.5, 0.5])

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("")
        with pytest.raises(InputError):
            read_embedding(p)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("not numbers\n")
        with pytest.raises(InputError):
            read_embedding(p)


class TestEvaluatePair:
    def test_identity_metrics_exact(self):
        w, _, _ = speech_clip()
        out = evaluate_pair(w, w, ref_tokens=["song", "fan"],
                            hyp_tokens=["song", "fan"],
                            ref_embedding=np.array([1.0, 2.0]),
                            hyp_embedding=np.array([1.0, 2.0]))
        assert out["mcd_db"] == 0.0
        assert out["f0_rmse"] == 0.0
        assert out["vuv_e"] == 0.0
        assert out["semitone_accuracy"] == 1.0
        assert out["wer"] == 0.0
        assert out["sim"] == pytest.approx(1.0)

    def test_optional_metrics_none_when_absent(self):
        w, _, _ = speech_clip()
        out = evaluate_pair(w, w)
        assert out["wer"] is None and out["sim"] is None

    def test_cross_rate_pair_resampled(self):
        # Band-limit the reference so the 16 kHz copy carries the same
        # content; the comparison then isolates the resampling path.
        w, _, _ = speech_clip()
        hyp16 = resample(w, 16000)
        ref = resample(hyp16, w.sample_rate)
        out = evaluate_pair(ref, hyp16)
        assert out["mcd_db"] < 3.0
        assert out["vuv_e"] < 0.2

    def test_band_limited_hyp_scores_worse_than_identity(self):
        w, _, _ = speech_clip()
        narrow = resample(resample(w, 8000), w.sample_rate)
        assert evaluate_pair(w, narrow)["mcd_db"] > evaluate_pair(w, w)["mcd_db"]

    def test_pitch_shift_reflected_in_f0_rmse(self):
        src = Waveform(voiced_segment(0.8, 200.0, 200.0, [(600, 90)], seed=3), SR)
        up = Waveform(voiced_segment(0.8, 200.0 * 2 ** (2 / 12),
                                     200.0 * 2 ** (2 / 12), [(600, 90)], seed=3), SR)
        out = evaluate_pair(src, up)
        # Two semitones is ln(2)/6 ~= 0.1155 per co-voiced frame; edge frames
        # inflate an RMSE, so pin the ballpark rather than the exact value.
        assert 0.09 <= out["f0_rmse"] <= 0.25


class TestEvalReport:
    def one(self, **over):
        vals = {"mcd_db": 5.0, "f0_rmse": 0.1, "vuv_e": 0.05,
                "semitone_accuracy": 0.9, "wer": 0.2, "sim": 0.8}
        vals.update(over)
        return vals

    def test_aggregate_means(self):
        r = EvalReport()
        r.add("u1", self.one(mcd_db=4.0))
        r.add("u2", self.one(mcd_db=6.0))
        assert r.aggregate()["mcd_db"] == pytest.approx(5.0)

    def test_none_values_skipped_in_aggregate(self):
        r = EvalReport()
        r.add("u1", self.one(wer=None))
        r.add("u2", self.one(wer=0.5))
        assert r.aggregate()["wer"] == pytest.approx(0.5)

    def test_all_none_aggregates_to_none(self):
        r = EvalReport()
        r.add("u1", self.one(sim=None))
        assert r.aggregate()["sim"] is None

    def test_range_validation(self):
        r = EvalReport()
        with pytest.raises(InputError):
            r.add("u1", self.one(vuv_e=1.5))
        with pytest.raises(InputError):
            r.add("u2", self.one(semitone_accuracy=-0.1))
        with pytest.raises(InputError):
            r.add("u3", self.one(sim=2.0))

    @pytest.mark.parametrize("key", ["mcd_db", "f0_rmse", "vuv_e",
                                     "semitone_accuracy", "wer", "sim"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, key, bad):
        r = EvalReport()
        with pytest.raises(InputError, match="not finite"):
            r.add("u1", self.one(**{key: bad}))
        assert r.per_utterance == {}

    def test_duplicate_utterance_rejected(self):
        r = EvalReport()
        r.add("u1", self.one())
        with pytest.raises(InputError):
            r.add("u1", self.one())

    def test_unknown_metric_rejected(self):
        r = EvalReport()
        with pytest.raises(InputError):
            r.add("u1", {**self.one(), "bogus": 1.0})

    def test_document_shape(self):
        r = EvalReport()
        r.add("u1", self.one())
        doc = r.to_document()
        assert set(doc) == {"per_utterance", "aggregate"}
        assert set(doc["per_utterance"]["u1"]) == {
            "mcd_db", "f0_rmse", "vuv_e", "semitone_accuracy", "wer", "sim"}

    def test_matches_bundled_schema(self):
        import json
        from importlib import resources
        import jsonschema
        schema = json.loads(resources.files("singprep.data")
                            .joinpath("eval_report.schema.json").read_text())
        r = EvalReport()
        r.add("u1", self.one(wer=None))
        jsonschema.validate(json.loads(r.dumps()), schema)

    def test_failures_key_only_with_failures(self):
        import json
        from importlib import resources
        import jsonschema
        schema = json.loads(resources.files("singprep.data")
                            .joinpath("eval_report.schema.json").read_text())
        r = EvalReport()
        r.add("u1", self.one())
        clean = r.dumps()
        r.failures["u2"] = "InputError: u2.wav: not a readable WAV file"
        doc = json.loads(r.dumps())
        assert list(doc) == ["per_utterance", "aggregate", "failures"]
        assert doc["failures"] == {"u2": "InputError: u2.wav: not a readable WAV file"}
        jsonschema.validate(doc, schema)
        del doc["failures"]
        assert json.dumps(doc, indent=2) + "\n" == clean

    def test_dumps_deterministic(self):
        r = EvalReport()
        r.add("b", self.one())
        r.add("a", self.one())
        assert r.dumps() == r.dumps()

    def test_table_has_all_columns(self):
        r = EvalReport()
        r.add("u1", self.one())
        header = r.table().splitlines()[0]
        for name in ("utt_id", "mcd_db", "f0_rmse", "vuv_e",
                     "semitone_accuracy", "wer", "sim"):
            assert name in header


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abcd"), max_size=8))
def test_wer_oracle_property(ref, hyp):
    assert wer(ref, hyp) == pytest.approx(wer_oracle(ref, hyp))
