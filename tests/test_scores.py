"""Score types, sufficient statistics, plugin fit, and CSV ingestion."""

import math
import struct
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bayescal import cli
from bayescal import (
    BackgroundData,
    GaussianParams,
    Hypothesis,
    ScoreFileError,
    ValidationError,
    collect_stats,
    fit_plugin,
    gaussian_log_density,
    load_background_csv,
    parse_label,
)

finite_scores = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    max_size=40,
)


class TestCollectStats:
    def test_empty(self):
        s = collect_stats([])
        assert (s.n, s.mean, s.sum_sq_dev) == (0, 0.0, 0.0)

    def test_constant_data(self):
        s = collect_stats([2.0, 2.0, 2.0])
        assert (s.n, s.mean, s.sum_sq_dev) == (3, 2.0, 0.0)

    def test_hand_computed(self):
        # (1-2)^2 + (2-2)^2 + (3-2)^2 = 2
        s = collect_stats([1.0, 2.0, 3.0])
        assert (s.n, s.mean, s.sum_sq_dev) == (3, 2.0, 2.0)

    def test_single_point_has_zero_ssd(self):
        s = collect_stats([7.25])
        assert (s.n, s.mean, s.sum_sq_dev) == (1, 7.25, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_naming_index(self, bad):
        with pytest.raises(ValidationError, match=r"\[2\]"):
            collect_stats([0.0, 1.0, bad, 3.0])

    @pytest.mark.parametrize("bad, shown", [(float("nan"), "nan"), (-float("inf"), "-inf")])
    def test_nonfinite_value_shown_as_background_data_shows_it(self, bad, shown):
        with pytest.raises(ValidationError, match=rf"^score \[1\] is not finite: {shown}$"):
            collect_stats([0.0, bad])
        with pytest.raises(ValidationError, match=rf"^h1_scores\[1\] is not finite: {shown}$"):
            BackgroundData([0.0, bad], [])


@given(finite_scores)
def test_collect_stats_permutation_invariant(scores):
    forward = collect_stats(scores)
    backward = collect_stats(scores[::-1])
    assert forward.n == backward.n
    assert math.isclose(forward.mean, backward.mean, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(
        forward.sum_sq_dev, backward.sum_sq_dev, rel_tol=1e-12, abs_tol=1e-9
    )


@given(finite_scores, finite_scores)
def test_collect_stats_merge_property(first, second):
    """Stats of a concatenation equal the pooled merge of per-batch stats."""
    a = collect_stats(first)
    b = collect_stats(second)
    combined = collect_stats(first + second)
    n = a.n + b.n
    assert combined.n == n
    if n == 0:
        return
    pooled_mean = (a.n * a.mean + b.n * b.mean) / n
    pooled_ssd = a.sum_sq_dev + b.sum_sq_dev
    if a.n and b.n:
        pooled_ssd += a.n * b.n / n * (a.mean - b.mean) ** 2
    assert math.isclose(combined.mean, pooled_mean, rel_tol=1e-10, abs_tol=1e-10)
    assert math.isclose(combined.sum_sq_dev, pooled_ssd, rel_tol=1e-10, abs_tol=1e-8)



@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e150,
                          max_value=1e150), min_size=1, max_size=200))
# summed in order, 1e16 + 1.0 rounds to 1e16 and the mean to 0.0; exactly, it is 1/3
@example([1e16, 1.0, -1e16])
def test_collect_stats_sums_are_correctly_rounded(scores):
    """The mean is the exact sum of the scores, rounded once, over n, and
    ``sum_sq_dev`` the exact sum of the float squared deviations, rounded once."""
    stats = collect_stats(scores)
    assert stats.mean == float(sum(map(Fraction, scores))) / len(scores)
    squares = [(v - stats.mean) * (v - stats.mean) for v in scores]
    assert stats.sum_sq_dev == float(sum(map(Fraction, squares)))

class TestFitPlugin:
    def test_symmetric_example(self):
        # ML variance is ssd/n = 2/3 per class, so precision is 1.5
        theta = fit_plugin(BackgroundData((1, 2, 3), (-3, -2, -1)))
        assert theta.mu1 == 2.0 and theta.mu2 == -2.0
        assert math.isclose(theta.lambda1, 1.5, rel_tol=1e-15)
        assert math.isclose(theta.lambda2, 1.5, rel_tol=1e-15)

    def test_zero_variance_class_hits_floor(self):
        theta = fit_plugin(BackgroundData((5.0, 5.0), (0.0, 1.0)), variance_floor=1e-12)
        assert theta.lambda1 == 1e12

    def test_insufficient_data_names_class(self):
        with pytest.raises(ValidationError, match=r"^n1 must be >= 2, got 1$"):
            fit_plugin(BackgroundData((0.0,), (0.0, 1.0)))
        with pytest.raises(ValidationError, match=r"^n2 must be >= 2, got 0$"):
            fit_plugin(BackgroundData((0.0, 1.0), ()))

    def test_variance_floor_must_be_positive(self):
        with pytest.raises(ValidationError):
            fit_plugin(BackgroundData((0.0, 1.0), (0.0, 1.0)), variance_floor=0.0)

    def test_fit_maximizes_sample_log_likelihood(self):
        rng = np.random.default_rng(12)
        data = BackgroundData(rng.normal(1, 2, 25), rng.normal(-1, 0.5, 30))
        theta = fit_plugin(data)

        def total_ll(mu1, mu2, lam1, lam2):
            return float(
                gaussian_log_density(np.array(data.h1_scores), mu1, lam1).sum()
                + gaussian_log_density(np.array(data.h2_scores), mu2, lam2).sum()
            )

        base = total_ll(theta.mu1, theta.mu2, theta.lambda1, theta.lambda2)
        for delta in (1e-3, -1e-3):
            assert total_ll(theta.mu1 + delta, theta.mu2, theta.lambda1, theta.lambda2) < base
            assert total_ll(theta.mu1, theta.mu2 + delta, theta.lambda1, theta.lambda2) < base
            assert total_ll(theta.mu1, theta.mu2, theta.lambda1 + delta, theta.lambda2) < base
            assert total_ll(theta.mu1, theta.mu2, theta.lambda1, theta.lambda2 + delta) < base


class TestGaussianParams:
    def test_scalar_precision_message(self):
        with pytest.raises(ValidationError, match=r"^lambda2 must be finite and > 0, got -0.5$"):
            GaussianParams(0.0, 0.0, 1.0, -0.5)

    def test_arrays_of_valid_elements_are_accepted(self):
        theta = GaussianParams(np.zeros(3), np.ones(3), np.full(3, 2.0), np.full(3, 0.5))
        assert theta.lambda1.shape == (3,)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("mu1", math.nan, r"^mu1 must be finite, got nan$"),
            ("mu2", -math.inf, r"^mu2 must be finite, got -inf$"),
            ("lambda1", 0.0, r"^lambda1 must be finite and > 0, got 0.0$"),
            ("lambda1", -2.0, r"^lambda1 must be finite and > 0, got -2.0$"),
            ("lambda2", math.inf, r"^lambda2 must be finite and > 0, got inf$"),
            ("lambda2", math.nan, r"^lambda2 must be finite and > 0, got nan$"),
        ],
    )
    def test_one_bad_array_element_raises(self, field, bad, message):
        fields = {"mu1": np.zeros(4), "mu2": np.ones(4), "lambda1": np.ones(4), "lambda2": np.ones(4)}
        fields[field][2] = bad
        with pytest.raises(ValidationError, match=message):
            GaussianParams(**fields)

    def test_fields_must_share_a_shape(self):
        with pytest.raises(ValidationError, match="same shape"):
            GaussianParams(np.zeros(3), np.zeros(3), np.ones(2), np.ones(3))


class TestGaussianLogDensity:
    def test_standard_normal_at_zero(self):
        assert math.isclose(
            gaussian_log_density(0.0, 0.0, 1.0), -0.9189385332046727, rel_tol=1e-12
        )

    @pytest.mark.parametrize("precision", [0.25, 1.0, 9.0])
    def test_mode_value(self, precision):
        expected = 0.5 * math.log(precision) - 0.5 * math.log(2 * math.pi)
        assert math.isclose(gaussian_log_density(1.7, 1.7, precision), expected, rel_tol=1e-12)

    def test_quadratic_term(self):
        # distance 2 at unit precision costs 4/2 nats below the mode
        expected = -0.5 * math.log(2 * math.pi) - 2.0
        assert math.isclose(gaussian_log_density(1.0, -1.0, 1.0), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_precision(self, bad):
        with pytest.raises(ValidationError):
            gaussian_log_density(0.0, 0.0, bad)

    def test_vectorized_over_scores(self):
        e = np.array([-1.0, 0.0, 2.5])
        out = gaussian_log_density(e, 0.0, 4.0)
        assert out.shape == e.shape
        assert out[1] == gaussian_log_density(0.0, 0.0, 4.0)

    @pytest.mark.parametrize("mean,precision", [(0.0, 1.0), (3.0, 0.2), (-2.0, 25.0)])
    def test_normalization_by_quadrature(self, mean, precision):
        sigma = 1.0 / math.sqrt(precision)
        x = np.linspace(mean - 10 * sigma, mean + 10 * sigma, 4001)
        total = np.trapezoid(np.exp(gaussian_log_density(x, mean, precision)), x)
        assert abs(total - 1.0) < 1e-6


class TestBackgroundData:
    def test_counts(self):
        data = BackgroundData((1.0, 2.0), (0.0,))
        assert (data.n1, data.n2) == (2, 1)

    def test_rejects_nonfinite_naming_index(self):
        with pytest.raises(ValidationError, match=r"h2_scores\[1\]"):
            BackgroundData((1.0,), (0.0, float("nan")))

    @pytest.mark.parametrize(
        "h1", [1.0, np.array(1.0), [[1.0, 2.0]], np.ones((2, 1))],
        ids=["scalar", "0d_array", "nested_list", "2d_array"],
    )
    def test_rejects_scalar_and_nested(self, h1):
        with pytest.raises(TypeError):
            BackgroundData(h1, ())

    @pytest.mark.parametrize("h1", ["12", b"12"])
    def test_rejects_a_string_class(self, h1):
        with pytest.raises(TypeError, match=r"^h1_scores must be a flat sequence of numbers"):
            BackgroundData(h1, ())
        with pytest.raises(TypeError):
            collect_stats(h1)

    def test_rejects_non_number(self):
        with pytest.raises(ValueError, match="could not convert"):
            BackgroundData((1.0,), ("abc",))

    def test_stats_are_derived_not_settable(self):
        with pytest.raises(TypeError):
            BackgroundData((1.0,), (), h1_stats=collect_stats([2.0]))
        assert "stats" not in repr(BackgroundData((1.0,), ()))


def _bits(s):
    """A SufficientStats as exact bytes, so equal means equal bit for bit."""
    return s.n, struct.pack("<dd", s.mean, s.sum_sq_dev)


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e150,
                       max_value=1e150), max_size=200),
    finite_scores,
)
@example([], [])
@example([3.5], [-1.25])
def test_background_stats_are_collect_stats_of_each_class(h1, h2):
    data = BackgroundData(h1, h2)
    assert _bits(data.h1_stats) == _bits(collect_stats(h1))
    assert _bits(data.h2_stats) == _bits(collect_stats(h2))
    swapped = BackgroundData(data.h2_scores, data.h1_scores)
    assert _bits(swapped.h1_stats) == _bits(data.h2_stats)
    assert _bits(swapped.h2_stats) == _bits(data.h1_stats)


class TestLabelParsing:
    @pytest.mark.parametrize(
        "label,expected",
        [("H1", Hypothesis.H1), ("h2", Hypothesis.H2), ("TAR", Hypothesis.H1),
         ("non", Hypothesis.H2), (" tar ", Hypothesis.H1)],
    )
    def test_aliases(self, label, expected):
        assert parse_label(label) is expected

    def test_unknown_label(self):
        with pytest.raises(ValidationError, match="unknown label"):
            parse_label("H3")


class TestCsvIngestion:
    def test_happy_path_with_aliases(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nH1,1.5\ntar,2.5\nnon,-3.0\nh2,-1.0\n")
        data = load_background_csv(f)
        assert data.h1_scores == (1.5, 2.5)
        assert data.h2_scores == (-3.0, -1.0)

    def test_blank_lines_tolerated(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nH1,1.0\n\nH2,-1.0\n")
        data = load_background_csv(f)
        assert (data.n1, data.n2) == (1, 1)

    def test_bad_score_reports_line(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nH1,1.0\nH2,abc\n")
        with pytest.raises(ScoreFileError, match=":3:"):
            load_background_csv(f)

    def test_bad_label_reports_line(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nwhat,1.0\n")
        with pytest.raises(ScoreFileError, match=":2:"):
            load_background_csv(f)

    def test_nonfinite_score_rejected(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nH1,nan\n")
        with pytest.raises(ScoreFileError, match="non-finite"):
            load_background_csv(f)

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nH1,1.0,extra\n")
        with pytest.raises(ScoreFileError, match="2 fields"):
            load_background_csv(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("score,label\nH1,1.0\n")
        with pytest.raises(ScoreFileError, match="header"):
            load_background_csv(f)

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xef\xbb\xbflabel,score\nH1,1.0\nH2,-2.5\n",
            b"label,score\r\nH1,1.0\r\nH2,-2.5\r\n",
            b"\xef\xbb\xbflabel,score\r\nH1,1.0\r\nH2,-2.5\r\n",
            b" label , score \n H1 , 1.0 \nH2, -2.5\n",
        ],
        ids=["bom", "crlf", "bom_crlf", "padded"],
    )
    def test_edge_formats_parse(self, tmp_path, raw):
        f = tmp_path / "scores.csv"
        f.write_bytes(raw)
        data = load_background_csv(f)
        assert data.h1_scores == (1.0,) and data.h2_scores == (-2.5,)

    @pytest.mark.parametrize("score", ["1e400", "nan", "-inf"])
    def test_nonfinite_rejected_with_line_and_exit_2(self, tmp_path, capsys, score):
        f = tmp_path / "scores.csv"
        f.write_text(f"label,score\nH1,1.0\nH2,{score}\n")
        with pytest.raises(ScoreFileError, match=":3: non-finite"):
            load_background_csv(f)
        assert cli.main(["llr", "--background", str(f), "--score", "0"]) == 2
        assert f":3: non-finite score '{score}'" in capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("")
        with pytest.raises(ScoreFileError, match="empty"):
            load_background_csv(f)

    def test_quoted_fields(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text('"label","score"\n"H1","1.5"\n"non","-2.0"\nH1,"0.5"\n')
        data = load_background_csv(f)
        assert data.h1_scores == (1.5, 0.5) and data.h2_scores == (-2.0,)

    def test_spellings_of_one_class_keep_file_order(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nH1,1.0\n h1 ,2.0\nH2,-1.0\nTAR,3.0\ntar,4.0\nH1,5.0\n")
        data = load_background_csv(f)
        assert data.h1_scores == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert data.h2_scores == (-1.0,)

    def test_bad_label_after_many_good_rows_reports_its_own_line(self, tmp_path):
        f = tmp_path / "scores.csv"
        rows = [f"{('H1', 'h2', 'tar', 'NON')[i % 4]},{i}.5" for i in range(5000)]
        f.write_text("label,score\n" + "\n".join(rows) + "\nh3,1.0\nH1,2.0\n")
        with pytest.raises(ScoreFileError, match=":5002: unknown label 'h3'"):
            load_background_csv(f)

    def test_bad_label_is_reported_before_a_bad_score(self, tmp_path):
        f = tmp_path / "scores.csv"
        f.write_text("label,score\nH1,1.0\nwhat,abc\n")
        with pytest.raises(ScoreFileError, match=":3: unknown label 'what'"):
            load_background_csv(f)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_past_the_first_chunk_reports_its_line(self, tmp_path, eol):
        # the reader decodes 8 KiB chunks; the byte sits well beyond the first
        rows = ["label,score"] + [f"H1,{i}.25" for i in range(3000)] + ["H2,\udcff2.0"]
        f = tmp_path / "scores.csv"
        f.write_bytes(eol.join(rows + ["H1,1.0", ""]).encode("utf-8", "surrogateescape"))
        with pytest.raises(ScoreFileError, match=r":3002: byte 0xff is not UTF-8"):
            load_background_csv(f)


_ALIASES = {"h1": Hypothesis.H1, "tar": Hypothesis.H1, "h2": Hypothesis.H2, "non": Hypothesis.H2}
_padding = st.text(" \t", max_size=2)


@st.composite
def _csv_field(draw, text):
    """``text`` with random padding, quoted or not."""
    field = draw(_padding) + text + draw(_padding)
    return f'"{field}"' if draw(st.booleans()) else field


@st.composite
def _background_file(draw):
    """(CSV bytes, h1 scores, h2 scores) for labels drawn from the aliases in
    random case and padding, ``repr`` scores, LF or CRLF and blank lines."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["label,score"]
    written = {Hypothesis.H1: [], Hypothesis.H2: []}
    rows = st.tuples(
        st.sampled_from(sorted(_ALIASES)),
        # past about 1e154 a class's sum of squared deviations overflows,
        # which BackgroundData refuses: that is not a parsing property
        st.floats(min_value=-1e150, max_value=1e150),
        st.booleans(),
    )
    for alias, score, blank_before in draw(st.lists(rows, max_size=30)):
        if blank_before:
            lines.append("")
        label = "".join(c.upper() if draw(st.booleans()) else c for c in alias)
        lines.append(f"{draw(_csv_field(label))},{draw(_csv_field(repr(score)))}")
        written[_ALIASES[alias]].append(score)
    raw = (eol.join(lines) + eol * draw(st.integers(0, 2))).encode()
    return raw, tuple(written[Hypothesis.H1]), tuple(written[Hypothesis.H2])


@given(_background_file())
def test_generated_csv_reads_back_the_scores_written(tmp_path_factory, generated):
    raw, h1, h2 = generated
    f = tmp_path_factory.getbasetemp() / "generated.csv"
    f.write_bytes(raw)
    data = load_background_csv(f)
    assert data.h1_scores == h1 and data.h2_scores == h2


# Every container of scores is summarized one way, so each gives the same bits.
CONTAINERS = {"tuple": tuple, "list": list, "array": lambda v: array("d", v)}
# small, around powers of two, and the largest casework file
PARITY_SIZES = [0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 55_000]


def _spread_scores(n, seed):
    """n scores of one class, at a scale drawn from 1e-5 to 1e4."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 100.0) * 10.0 ** int(rng.integers(-5, 5))
    return rng.normal(rng.uniform(-5.0, 5.0), 1.0, n) * scale


class TestContainers:
    """``collect_stats`` and ``BackgroundData`` give the same stats, bit for
    bit, for the same scores in a tuple, a list, an ``array('d')`` or a
    float64 array."""

    @pytest.mark.parametrize("container", CONTAINERS)
    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_collect_stats_agrees_across_containers(self, n, container):
        scores = _spread_scores(n, n)
        held = CONTAINERS[container](scores.tolist())
        assert _bits(collect_stats(held)) == _bits(collect_stats(scores))

    @pytest.mark.parametrize("container", CONTAINERS)
    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_background_data_agrees_across_containers(self, n, container):
        h1, h2 = _spread_scores(n, n), _spread_scores(n + 3, n + 100_000)
        held = BackgroundData(*(CONTAINERS[container](s.tolist()) for s in (h1, h2)))
        reference = BackgroundData(h1, h2)
        assert held == reference
        assert _bits(held.h1_stats) == _bits(reference.h1_stats)
        assert _bits(held.h2_stats) == _bits(reference.h2_stats)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 128, 129, 257])
    def test_negative_zeros_sum_to_positive_zero(self, n):
        """``math.fsum`` keeps no zero partial, so a class of -0.0 alone has
        mean +0.0, in every container."""
        zeros = [-0.0] * n
        for scores in (zeros, tuple(zeros), array("d", zeros)):
            stats = collect_stats(scores)
            assert _bits(stats) == _bits(collect_stats(np.array(zeros)))
            assert math.copysign(1.0, stats.mean) == 1.0
            assert _bits(BackgroundData(scores, ()).h1_stats) == _bits(stats)

    def test_python_ints_are_taken_as_floats(self):
        scores = [3, -1, 2.5, 2**60 + 1, 7, 0, 1, 4, 9]
        assert _bits(collect_stats(scores)) == _bits(collect_stats(np.array(scores, dtype=float)))
        assert BackgroundData(scores, ()).h1_scores == tuple(float(v) for v in scores)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64,
                              min_value=-1e150, max_value=1e150), max_size=300))
    @example([-0.0] * 9)
    @example([0.0, -0.0] * 70)
    def test_any_finite_list(self, scores):
        assert _bits(collect_stats(scores)) == _bits(collect_stats(np.array(scores)))

    @pytest.mark.parametrize(
        "h1, message",
        [
            ([0.0, math.nan, 1.0], r"^h1_scores\[1\] is not finite: nan$"),
            ([0.0, 1.0, -math.inf], r"^h1_scores\[2\] is not finite: -inf$"),
            # the mean overflows
            ([1e308, 1e308, -1.0], r"^h1_scores overflow float range when summarized; "
                                   r"the largest in magnitude is h1_scores\[0\] = 1e\+308$"),
            # the mean is 0, the squared deviations overflow
            ([-1.0, 1e200, -1e200], r"^h1_scores overflow float range when summarized; "
                                    r"the largest in magnitude is h1_scores\[1\] = 1e\+200$"),
        ],
        ids=["nan", "inf", "mean", "squares"],
    )
    def test_refusals_agree_across_containers(self, h1, message):
        """Every container raises the same message, and none warns."""
        errors = []
        for scores in (h1, tuple(h1), array("d", h1), np.array(h1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=message):
                    BackgroundData(scores, ())
                with pytest.raises(ValidationError) as refused:
                    collect_stats(scores)
            errors.append(str(refused.value))
        assert len(set(errors)) == 1


#: Measured worst |math route - numpy route| of ``gaussian_log_density``, in
#: units of eps (2^-52) times the sum of its terms' magnitudes: 0.56 over
#: 20 000 random (score, mean, precision), on the one input whose log rounds
#: differently. The bound allows twice that, and more.
GAUSSIAN_ROUTE_EPS = 2.0


def test_gaussian_log_density_routes_agree():
    """Plain floats take ``math.log``, numpy scalars ``np.log``, which can
    round a precision's log differently by an ulp."""
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for _ in range(5000):
        mean, precision = rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-4.0, 4.0)
        e = mean + rng.uniform(-12.0, 12.0) / math.sqrt(precision)
        plain = gaussian_log_density(e, mean, precision)
        numpy = gaussian_log_density(*map(np.float64, (e, mean, precision)))
        assert type(plain) is float
        z = e - mean
        terms = 0.5 * (abs(math.log(precision)) + math.log(2 * math.pi) + precision * z * z)
        worst = max(worst, abs(plain - numpy) / (2.0**-52 * terms))
    assert worst <= GAUSSIAN_ROUTE_EPS
