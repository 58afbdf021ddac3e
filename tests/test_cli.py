import copy
import functools
import json
import math
import operator
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from convring import ConvringError, GenerationFailed, RingContext, files, is_observable, sequential_decode
from convring.cli import erase_stream, fit_loglog, generate_code, main

Z9 = RingContext(3, 2)


@pytest.fixture()
def code_file(tmp_path, kernel_code_z8):
    path = tmp_path / "code.json"
    files.save_code(str(path), kernel_code_z8)
    return str(path)


@pytest.fixture()
def nonexact_file(tmp_path, nonexact_code_z9):
    code = nonexact_code_z9.with_parity_check()
    path = tmp_path / "nonexact.json"
    files.save_code(str(path), code)
    return str(path)


class TestFiles:
    def test_code_roundtrip_bytes(self, tmp_path, kernel_code_z8):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        files.save_code(str(p1), kernel_code_z8)
        code = files.load_code(str(p1))
        files.save_code(str(p2), code)
        assert p1.read_bytes() == p2.read_bytes()
        assert code.k_blocks == kernel_code_z8.k_blocks
        assert code.parity_matrix() == kernel_code_z8.parity_matrix()

    def test_stream_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        files.save_stream(str(path), 3, [[1, 2, None], [0, 0, 0]])
        n, symbols = files.load_stream(str(path))
        assert n == 3 and symbols == [[1, 2, None], [0, 0, 0]]

    def test_pattern_conflict_detected(self):
        symbols = [[1, None, 3]]
        files.check_pattern_consistency(symbols, [(0, 1)])
        with pytest.raises(ValueError):
            files.check_pattern_consistency(symbols, [(0, 2)])

    def test_message_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"k": 2, "symbols": [[1, 2], [3, 0]]}))
        assert files.load_message(str(path)) == (2, [[1, 2], [3, 0]])


class TestChannel:
    def test_zero_loss_identity(self):
        symbols = [[1, 2], [3, 4]]
        out, erasures = erase_stream(symbols, "iid", seed=1, eps=0.0)
        assert out == symbols and erasures == []

    def test_total_loss(self):
        symbols = [[1, 2], [3, 4]]
        out, erasures = erase_stream(symbols, "iid", seed=1, eps=1.0)
        assert all(x is None for sym in out for x in sym)
        assert len(erasures) == 4

    def test_seed_determinism(self):
        symbols = [[random.Random(0).randrange(8) for _ in range(5)] for _ in range(50)]
        a = erase_stream(symbols, "iid", seed=42, eps=0.3)
        b = erase_stream(symbols, "iid", seed=42, eps=0.3)
        assert a == b
        c = erase_stream(symbols, "iid", seed=43, eps=0.3)
        assert a != c

    def test_iid_rate_within_three_sigma(self):
        total = 10_000
        symbols = [[0] * 10 for _ in range(total // 10)]
        eps = 0.1
        _, erasures = erase_stream(symbols, "iid", seed=7, eps=eps)
        sigma = math.sqrt(total * eps * (1 - eps))
        assert abs(len(erasures) - total * eps) <= 3 * sigma

    def test_ge_burstiness_runs(self):
        symbols = [[0] * 4 for _ in range(100)]
        out, erasures = erase_stream(
            symbols, "ge", seed=5, eps=0.0, ge_params=(0.01, 0.9, 0.05, 0.2)
        )
        assert 0 < len(erasures) < 400


class TestGen:
    def test_rejects_empty_and_overfull(self):
        with pytest.raises(ValueError):
            generate_code(2, 2, 3, [0, 0], 1, seed=0)
        with pytest.raises(ValueError):
            generate_code(2, 2, 3, [3, 0], 1, seed=0)

    def test_deterministic_and_observable(self):
        a = generate_code(2, 2, 3, [1, 1], 1, seed=11)
        b = generate_code(2, 2, 3, [1, 1], 1, seed=11)
        assert files.code_to_json(a) == files.code_to_json(b)
        assert is_observable(a)
        assert a.k_blocks == (1, 1)

    def test_generation_failure_budget(self):
        with pytest.raises(GenerationFailed):
            generate_code(2, 2, 3, [1, 1], 1, seed=0, retries=0)


class TestCliCommands:
    def test_check_nonexact(self, nonexact_file, capsys):
        assert main(["check", "--code", nonexact_file]) == 0
        out = capsys.readouterr().out
        assert "observable: false" in out

    def test_check_kernel_code(self, code_file, capsys):
        assert main(["check", "--code", code_file]) == 0
        assert "observable: true" in capsys.readouterr().out

    def test_decode_window_reports_list_size(self, tmp_path, code_file, capsys):
        rx = [
            [5, None, None, 6, None],
            [6, 6, 4, None, 6],
            [2, 1, None, None, None],
            [2, None, 4, 0, 0],
        ]
        rx_path = tmp_path / "rx.json"
        files.save_stream(str(rx_path), 5, rx)
        pat_path = tmp_path / "pat.json"
        files.save_pattern(
            str(pat_path),
            [(0, 1), (0, 2), (0, 4), (1, 3), (2, 2), (2, 3), (2, 4), (3, 1)],
        )
        rc = main(
            [
                "decode",
                "--code", code_file,
                "--received", str(rx_path),
                "--pattern", str(pat_path),
                "--at", "0",
                "-T", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "list size: 64" in out

    def test_oracle_command(self, tmp_path, code_file, capsys):
        rx = [[5, None, 0, 6, 0], [6, 6, 4, 3, 6], [2, 1, 1, 2, 0]]
        rx_path = tmp_path / "rx.json"
        files.save_stream(str(rx_path), 5, rx)
        rc = main(
            ["oracle", "--code", code_file, "--received", str(rx_path), "--at", "0", "-T", "1"]
        )
        assert rc == 0
        assert "solutions:" in capsys.readouterr().out

    def test_encode_channel_decode_roundtrip(self, tmp_path, capsys):
        code = generate_code(2, 2, 4, [2, 0], 1, seed=3)
        code_path = tmp_path / "c.json"
        files.save_code(str(code_path), code)
        msg = [[random.Random(9).randrange(4) for _ in range(2)] for _ in range(4)]
        msg_path = tmp_path / "m.json"
        msg_path.write_text(json.dumps({"k": 2, "symbols": msg}))
        stream_path = tmp_path / "s.json"
        assert main(["encode", "--code", str(code_path), "--message", str(msg_path), "--out", str(stream_path)]) == 0
        rx_path = tmp_path / "rx.json"
        pat_path = tmp_path / "pat.json"
        assert main([
            "channel", "--input", str(stream_path), "--eps", "0.0",
            "--seed", "1", "--out-received", str(rx_path), "--out-pattern", str(pat_path),
        ]) == 0
        rc = main(["decode", "--code", str(code_path), "--received", str(rx_path), "--pattern", str(pat_path), "-T", "1"])
        assert rc == 0
        _, rx_syms = files.load_stream(str(rx_path))
        _, tx_syms = files.load_stream(str(stream_path))
        assert rx_syms == tx_syms  # zero-loss channel is the identity

    def test_sequential_report_counts_plan_paths(self, tmp_path, capsys):
        # the sequential report says which path each window took, one count
        # per decision, as SequentialResult.plan_counts does
        from convring import sequential_decode

        code = generate_code(3, 2, 4, [1, 0], 1, seed=7)
        rng = random.Random(4)
        sent = code.encode([[rng.randrange(9) for _ in range(code.k)] for _ in range(200)])
        rx, _ = erase_stream(sent, "iid", 4, 0.10)
        code_path, rx_path, rep_path = tmp_path / "c.json", tmp_path / "rx.json", tmp_path / "rep.json"
        files.save_code(str(code_path), code)
        files.save_stream(str(rx_path), code.n, rx)
        args = ["decode", "--code", str(code_path), "--received", str(rx_path), "-T", "2"]
        assert main([*args, "--report", str(rep_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        report = files.load_report(str(rep_path))
        res = sequential_decode(code, rx, 2)
        expected = {
            "first_decodes": res.plan_counts.first_decodes,
            "value_replays": res.plan_counts.value_replays,
            "fallbacks": res.plan_counts.fallbacks,
        }
        assert printed["plan_counts"] == report["plan_counts"] == expected
        assert sum(expected.values()) == len(report["decisions"]) == len(res.decisions)
        assert expected["first_decodes"] and expected["value_replays"]

    def test_pattern_conflict_is_usage_error(self, tmp_path, code_file):
        rx_path = tmp_path / "rx.json"
        files.save_stream(str(rx_path), 5, [[None, 0, 0, 0, 0]])
        pat_path = tmp_path / "pat.json"
        files.save_pattern(str(pat_path), [(0, 3)])
        rc = main([
            "decode", "--code", code_file, "--received", str(rx_path),
            "--pattern", str(pat_path), "--at", "0",
        ])
        assert rc == 2

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--code", str(bad)]) == 2

    def test_wrong_nu_is_usage_error(self, tmp_path):
        code = generate_code(3, 2, 4, [1, 0], 1, seed=7)
        assert code.nu == 2
        doc = files.code_to_json(code)
        doc["nu"] = 0
        path = tmp_path / "wrong-nu.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--code", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"symbols": [[5, None, 0, 6, 0]]},  # no "n"
            {"n": 5, "symbols": 7},  # symbols not a list
            {"n": 5, "symbols": [[5, "x", 0, 6, 0]]},
            {"n": 5, "symbols": [[5, None, 1.5, 6, 0]]},
            {"n": 5, "symbols": [[5, None, True, 6, 0]]},
            {"n": 5, "symbols": [5, None, 0, 6, 0]},  # a symbol that is no list
            {"n": 5, "symbols": [[5, None, 0, 6]]},
            {"n": "5", "symbols": [[5, None, 0, 6, 0]]},
            [[5, None, 0, 6, 0]],
        ],
        ids=["no-n", "symbols-int", "entry-str", "entry-float", "entry-bool", "symbol-int",
             "short-symbol", "n-str", "not-object"],
    )
    def test_malformed_stream_is_usage_error(self, tmp_path, code_file, doc):
        path = tmp_path / "rx.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            files.load_stream(str(path))
        assert main(["decode", "--code", code_file, "--received", str(path), "--at", "0"]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("k_blocks"),
            lambda d: d.pop("p"),
            lambda d: d.update(n=5.0),
            lambda d: d.update(k_blocks=[2, "0", 0]),
            lambda d: d.update(H=[[["x"]]]),
            lambda d: d["H"][0][0].pop(),  # a parity row one entry short
            lambda d: d["H"][0][0].__setitem__(0, [1, 2.5]),
            lambda d: d.update(nu=True),
        ],
        ids=["no-k_blocks", "no-p", "n-float", "k_block-str", "coeff-str", "short-row",
             "coeff-float", "nu-bool"],
    )
    def test_malformed_code_is_usage_error(self, tmp_path, kernel_code_z8, edit):
        doc = files.code_to_json(kernel_code_z8)
        edit(doc)
        path = tmp_path / "code.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            files.load_code(str(path))
        rx_path = tmp_path / "rx.json"
        files.save_stream(str(rx_path), 5, [[5, None, 0, 6, 0]])
        assert main(["decode", "--code", str(path), "--received", str(rx_path), "--at", "0"]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(k_blocks=[2, 0]),  # G has one row
            lambda d: d.update(k_blocks=[1, 0, 0]),
            lambda d: d.update(k_blocks=[-1, 2]),
            lambda d: d.update(H=d["H"][:1]),
            lambda d: d.update(G=None, k_blocks=[3, 0]),  # H has three rows, l_0 = 1
        ],
        ids=["k_blocks-vs-G", "k_blocks-long", "k_block-negative", "H-one-layer", "H-only-k_blocks"],
    )
    def test_layer_shapes_must_agree(self, tmp_path, edit):
        # each document is the Z_9 stream code with one layer shape off
        doc = files.code_to_json(generate_code(3, 2, 4, [1, 0], 1, seed=7))
        path = tmp_path / "code.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--code", str(path)]) == 0
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            files.load_code(str(path))
        assert main(["check", "--code", str(path)]) == 2

    @pytest.mark.parametrize(
        "loader, doc",
        [
            (files.load_pattern, {"erasures": [[0]]}),
            (files.load_pattern, {"erasures": [[0, None]]}),
            (files.load_pattern, {}),
            (files.load_message, {"k": 2, "symbols": [[1, None]]}),
            (files.load_message, {"k": 2, "symbols": [[1, 2, 3]]}),
        ],
    )
    def test_malformed_pattern_or_message_rejected(self, tmp_path, loader, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            loader(str(path))

    def test_stats_empty(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"windows": 0}

    def test_stats_aggregates(self, tmp_path, code_file, capsys):
        rx = [[5, None, 0, 6, 0], [6, 6, 4, 3, 6], [2, 1, 1, 2, 0]]
        rx_path = tmp_path / "rx.json"
        files.save_stream(str(rx_path), 5, rx)
        rep_path = tmp_path / "rep.json"
        main([
            "decode", "--code", code_file, "--received", str(rx_path),
            "--at", "0", "-T", "1", "--report", str(rep_path),
        ])
        capsys.readouterr()
        assert main(["stats", str(rep_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["windows"] == 1
        assert summary["unique_rate"] == 1.0
        assert summary["mean_list_size"] == 1


def test_fit_loglog_recovers_exponent():
    xs = [2, 4, 8, 16, 32]
    ys = [3 * x**2 for x in xs]
    assert abs(fit_loglog(xs, ys) - 2.0) < 1e-9


class TestPipeline:
    def test_encode_channel_sequential_recovery(self, tmp_path):
        # low-rate channel: windows stay within the correctable erasure count
        rng = random.Random(31)
        code = generate_code(2, 2, 4, [1, 0], 1, seed=8)
        from convring import column_distance, sequential_decode

        d1 = column_distance(code, 1)
        assert d1 >= 2
        msg = [[rng.randrange(4) for _ in range(code.k)] for _ in range(30)]
        stream = code.encode(msg)
        recovered = 0
        for seed in range(30):
            rx, erasures = erase_stream(stream, "iid", seed=seed, eps=0.04)
            # keep only patterns within the per-window guarantee
            ok = True
            for i in range(len(stream)):
                win = [e for e in erasures if i <= e[0] <= i + 1]
                if len(win) > d1 - 1:
                    ok = False
                    break
            if not ok or not erasures:
                continue
            res = sequential_decode(code, rx, T=1)
            assert res.complete
            assert res.stream == stream
            recovered += 1
        assert recovered >= 3

    def test_invalid_after_guess_is_not_an_invalid_word(self, tmp_path):
        # a valid codeword stream: "first" guesses at t = 830 and the window
        # at 833 is then inconsistent, so the guess, not the word, is at fault
        from convring import sequential_decode

        code = generate_code(2, 2, 4, [1, 1], 1, seed=2)
        rng = random.Random(2)
        sent = code.encode([[rng.randrange(4) for _ in range(code.k)] for _ in range(1600)])
        rx, _ = erase_stream(sent, "iid", 2, 0.10)
        first = sequential_decode(code, rx, T=2, policy="first")
        assert first.decisions[-2:] == [(830, "picked-first", 4), (833, "invalid-after-guess", 830)]
        assert first.halted_at == 833 and first.last_outcome.kind == "invalid"
        halt = sequential_decode(code, rx, T=2)
        assert halt.decisions[-1] == (57, "list", 2) and halt.halted_at == 57
        # a corrupted known symbol in the first window is the word's own fault
        bad = [list(sym) for sym in rx]
        bad[0][0] = (bad[0][0] + 1) % 4
        assert sequential_decode(code, bad, T=2, policy="first").decisions == [(0, "invalid")]
        code_path = tmp_path / "c.json"
        files.save_code(str(code_path), code)
        for stream, policy, rc in ((rx, "first", 0), (rx, "halt", 0), (bad, "first", 1)):
            rx_path = tmp_path / "rx.json"
            files.save_stream(str(rx_path), 4, stream)
            args = ["decode", "--code", str(code_path), "--received", str(rx_path), "-T", "2"]
            assert main([*args, "--policy", policy]) == rc

    def test_enumeration_cap_env(self, monkeypatch, kernel_code_z8):
        from convring import CapExceeded, column_distance

        monkeypatch.setenv("CONVRING_CAP", "100")
        with pytest.raises(CapExceeded):
            column_distance(kernel_code_z8, 1)
        monkeypatch.delenv("CONVRING_CAP")

    def test_decode_csv_format(self, tmp_path, code_file, capsys):
        rx = [[5, None, 0, 6, 0], [6, 6, 4, 3, 6], [2, 1, 1, 2, 0]]
        rx_path = tmp_path / "rx.json"
        files.save_stream(str(rx_path), 5, rx)
        rc = main([
            "decode", "--code", code_file, "--received", str(rx_path),
            "--at", "0", "-T", "1", "--format", "csv",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("i,T,e,")


@functools.cache
def _stream_documents():
    """The code, stream and pattern documents of a short stream of the benchmark's Z_9 code."""
    code = generate_code(p=3, r=2, n=4, k_blocks=[1, 0], deg=1, seed=7)
    rng = random.Random(5)
    sent = code.encode([[rng.randrange(9)] for _ in range(8)])
    received, erasures = erase_stream(sent, "iid", 5, 0.2)
    return (
        files.code_to_json(code),
        {"n": code.n, "symbols": received},
        {"erasures": [list(pair) for pair in erasures]},
    )


def _leaves(doc, path=()):
    """The path of each leaf of a JSON document, a value that is not a list or an object."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaves(value, (*path, key))
    else:
        yield path


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@st.composite
def mutated_documents(draw):
    """The stream's documents with one leaf of one of them replaced, deleted or set huge."""
    docs = copy.deepcopy(_stream_documents())
    doc = docs[draw(st.integers(0, 2))]
    *head, last = draw(st.sampled_from(list(_leaves(doc))))
    parent = functools.reduce(operator.getitem, head, doc)
    action = draw(st.sampled_from(["replace", "delete", "huge"]))
    if action == "delete":
        del parent[last]
    elif action == "huge":
        parent[last] = draw(st.sampled_from([1, -1])) * draw(st.integers(2**63, 2**300))
    else:
        parent[last] = draw(JSON_VALUES)
    return docs


@seed(2023)
@settings(max_examples=200, deadline=None, database=None)
@given(mutated_documents())
def test_loader_fuzz_returns_or_raises_typed_error(docs):
    # every mutated document loads and decodes, or raises ValueError or a
    # ConvringError, and neither takes long
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("code.json", "rx.json", "pattern.json")]
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc))
        start = time.perf_counter()
        try:
            code = files.load_code(str(paths[0]))
            _, received = files.load_stream(str(paths[1]))
            files.check_pattern_consistency(received, files.load_pattern(str(paths[2])))
            sequential_decode(code, received, 2)
        except (ValueError, ConvringError):
            pass
        assert time.perf_counter() - start < 5
