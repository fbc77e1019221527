"""Instance and report documents: round-trips, digests, generation."""

import json

import numpy as np
import pytest

from tvdist import (
    EstimateReport,
    ParameterError,
    ParseError,
    SizeError,
    derive_seed,
    emit_instance,
    emit_report,
    files,
    generate_instance,
    generate_markov_instance,
    generate_product_instance,
    instance_digest,
    np_boundary,
    parse_instance,
    ratio_of,
    region_csv,
)


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("kind,n,q", [("product", 5, 3), ("markov", 4, 3), ("markov", 1, 2)])
    def test_emit_parse_fixed_point(self, kind, n, q):
        inst = generate_instance(kind, n, q, seed=42)
        text = emit_instance(inst)
        reparsed = parse_instance(text)
        assert emit_instance(reparsed) == text
        assert parse_instance(emit_instance(reparsed)).n == n

    def test_generated_files_are_seed_deterministic(self, tmp_path):
        a = emit_instance(generate_product_instance(6, 4, seed=123, skew=0.5))
        b = emit_instance(generate_product_instance(6, 4, seed=123, skew=0.5))
        c = emit_instance(generate_product_instance(6, 4, seed=124, skew=0.5))
        assert a == b
        assert a != c

    def test_hand_authored_rows_renormalized_once(self):
        text = """{"kind": "product", "n": 1, "q": 2, "p": [[0.5000001, 0.5]], "q_dist": [[0.25, 0.75]]}"""
        pair = parse_instance(text)
        assert np.sum(pair.p_marginals[0]) == pytest.approx(1.0, abs=1e-15)
        again = parse_instance(emit_instance(pair))
        np.testing.assert_array_equal(again.p_marginals, pair.p_marginals)

    def test_rejects_row_sum_off_by_too_much(self):
        text = """{"kind": "product", "n": 1, "q": 2, "p": [[0.6, 0.5]], "q_dist": [[0.5, 0.5]]}"""
        with pytest.raises(ParseError, match=r"p row 0 sums to 1\.1, "):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "[1, 2, 3]",
            '{"kind": "exotic", "n": 1, "q": 2}',
            '{"kind": "product", "n": 2, "q": 2, "p": [[0.5, 0.5]], "q_dist": [[0.5, 0.5]]}',
            '{"kind": "product", "n": 1, "q": 2, "p": [[0.5, 0.5]]}',
            '{"kind": "product", "n": true, "q": 2, "p": [[0.5, 0.5]], "q_dist": [[0.5, 0.5]]}',
            '{"kind": "markov", "n": 2, "q": 2, "p_init": [0.5, 0.5], "q_init": [0.5, 0.5], '
            '"p_kernels": [], "q_kernels": []}',
            pytest.param(
                '{"kind": "markov", "n": 1, "q": 2, "p_init": [[0.5, 0.5], [1, 0]], '
                '"q_init": [0.5, 0.5], "p_kernels": [], "q_kernels": []}',
                id="two-initial-rows",
            ),
            pytest.param(
                '{"kind": "markov", "n": 3, "q": 2, "p_init": [0.5, 0.5], "q_init": [0.5, 0.5], '
                '"p_kernels": [[[1, 0], [0, 1]], [[1, 0], [0, 1], [0.5, 0.5]]], '
                '"q_kernels": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}',
                id="ragged-kernels",
            ),
            pytest.param(
                '{"kind": "markov", "n": 3, "q": 2, "p_init": [0.5, 0.5], "q_init": [0.5, 0.5], '
                '"p_kernels": [[[1, 0], [0, 1], [0.5, 0.5]], [[1, 0], [0, 1], [0.5, 0.5]]], '
                '"q_kernels": [[[1, 0], [0, 1], [0.5, 0.5]], [[1, 0], [0, 1], [0.5, 0.5]]]}',
                id="kernels-with-q-plus-one-rows",
            ),
            pytest.param('{"kind": "product", "n": ' + "1" * 5000 + ', "q": 2}', id="5000-digit-integer"),
            pytest.param("[" * 200_000, id="nested-200000-deep"),
        ],
    )
    def test_rejects_malformed_documents(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_digest_stable_and_input_sensitive(self):
        a = generate_product_instance(3, 2, seed=5)
        b = generate_product_instance(3, 2, seed=5)
        c = generate_product_instance(3, 2, seed=6)
        assert instance_digest(a) == instance_digest(b)
        assert instance_digest(a) != instance_digest(c)
        assert instance_digest(a).startswith("sha256:")


class TestReportRoundTrip:
    def test_fptas_report(self):
        rep = EstimateReport(0.25, 0.1, 0.2, 37, 5, 0.0015)
        doc = json.loads(emit_report(rep, "fptas", "sha256:00"))
        assert list(doc.items()) == [
            ("mode", "fptas"),
            ("estimate", 0.25),
            ("epsilon", 0.1),
            ("d_lb", 0.2),
            ("max_support", 37),
            ("elapsed_ms", 0.0015 * 1e3),
            ("instance_digest", "sha256:00"),
        ]

    def test_certified_report_appends_its_bracket(self):
        rep = EstimateReport(0.25, 0.1, 0.2, 37, 5, 0.0015, upper=0.26, eps_s=0.1)
        doc = json.loads(emit_report(rep, "fptas", "sha256:00"))
        assert list(doc) == [
            "mode", "estimate", "epsilon", "d_lb", "max_support", "elapsed_ms",
            "instance_digest", "upper", "eps_s",
        ]
        assert (doc["upper"], doc["eps_s"]) == (0.26, 0.1)

    def test_oracle_report_omits_epsilon(self):
        rep = EstimateReport(0.25, None, 0.2, 0, 0, 0.0015)
        for mode in ("exact", "oracle"):
            text = emit_report(rep, mode, "sha256:00")
            assert '"epsilon"' not in text
            assert list(json.loads(text)) == [
                "mode", "estimate", "d_lb", "max_support", "elapsed_ms", "instance_digest"
            ]


class TestRegionCsv:
    def test_header_and_vertices(self):
        boundary = np_boundary(ratio_of([0.75, 0.25], [0.25, 0.75]))
        text = region_csv(boundary)
        lines = text.strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "0.0,0.0"
        assert lines[-1] == "1.0,1.0"
        assert len(lines) == 1 + len(boundary)


class TestGeneration:
    def test_skew_controls_spikiness(self):
        spiky = generate_product_instance(1, 16, seed=7, skew=0.1).p_marginals[0]
        flat = generate_product_instance(1, 16, seed=7, skew=100.0).p_marginals[0]
        assert spiky.max() > flat.max()

    def test_markov_rows_are_stochastic(self):
        pair = generate_markov_instance(5, 4, seed=8)
        np.testing.assert_allclose(pair.p_kernels.sum(axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(pair.q_kernels.sum(axis=2), 1.0, atol=1e-12)

    def test_negative_seed_accepted(self):
        generate_product_instance(2, 2, seed=-1)

    @pytest.mark.parametrize("generate", [generate_product_instance, generate_markov_instance])
    @pytest.mark.parametrize(
        "n,q,skew,error",
        [
            (0, 2, 1.0, ParameterError),
            (-3, 2, 1.0, ParameterError),
            (2, 2, -1.0, ParameterError),
            (2.5, 2, 1.0, ParameterError),
            (True, 2, 1.0, ParameterError),
            (10**8, 10**5, 1.0, SizeError),
        ],
    )
    def test_refuses_before_drawing(self, generate, n, q, skew, error, monkeypatch):
        monkeypatch.setattr(files, "_rng", lambda seed: pytest.fail("drew before refusing"))
        with pytest.raises(error):
            generate(n, q, seed=1, skew=skew)

    def test_derive_seed_deterministic(self):
        assert derive_seed(9, 4, 3) == derive_seed(9, 4, 3)
        assert derive_seed(9, 4, 3) != derive_seed(9, 4, 2)
