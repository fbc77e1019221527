"""Instance and report documents: round-trips, digests, generation."""

import numpy as np
import pytest

from tvdist import (
    ParseError,
    derive_seed,
    emit_instance,
    emit_report,
    generate_instance,
    generate_markov_instance,
    generate_product_instance,
    instance_digest,
    np_boundary,
    parse_instance,
    parse_report,
    ratio_of,
    region_csv,
)
from tvdist.files import ReportFile


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
        inst = parse_instance(text)
        assert np.sum(inst.pair.p_marginals[0]) == pytest.approx(1.0, abs=1e-15)
        again = parse_instance(emit_instance(inst))
        np.testing.assert_array_equal(again.pair.p_marginals, inst.pair.p_marginals)

    def test_rejects_row_sum_off_by_too_much(self):
        text = """{"kind": "product", "n": 1, "q": 2, "p": [[0.6, 0.5]], "q_dist": [[0.5, 0.5]]}"""
        with pytest.raises(ParseError):
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
        rep = ReportFile("fptas", 0.25, 0.1, 0.2, 37, 1.5, "sha256:00")
        back = parse_report(emit_report(rep))
        assert back == rep

    def test_oracle_report_omits_epsilon(self):
        rep = ReportFile("oracle", 0.25, None, 0.2, 0, 1.5, "sha256:00")
        text = emit_report(rep)
        assert '"epsilon"' not in text
        assert parse_report(text).epsilon is None


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
        spiky = generate_product_instance(1, 16, seed=7, skew=0.1).pair.p_marginals[0]
        flat = generate_product_instance(1, 16, seed=7, skew=100.0).pair.p_marginals[0]
        assert spiky.max() > flat.max()

    def test_markov_rows_are_stochastic(self):
        pair = generate_markov_instance(5, 4, seed=8).pair
        np.testing.assert_allclose(pair.p_kernels.sum(axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(pair.q_kernels.sum(axis=2), 1.0, atol=1e-12)

    def test_negative_seed_accepted(self):
        generate_product_instance(2, 2, seed=-1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(9, 4, 3) == derive_seed(9, 4, 3)
        assert derive_seed(9, 4, 3) != derive_seed(9, 4, 2)
