"""CLI workbench: config loading, exit codes, end-to-end subcommands."""

import json
import logging
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import one_at_a_time
from triggercraft import tuning, workbench
from triggercraft.candidates import (
    DEFAULT_VOICES,
    Vocabulary,
    build_blocklist,
    dictionary_candidates,
)
from triggercraft.distance import CostContext
from triggercraft.errors import ConfigError
from triggercraft.tuning import Grid
from triggercraft.workbench import load_config, main

pytestmark = pytest.mark.usefixtures("_quiet_root_logger")


@pytest.fixture
def _quiet_root_logger():
    # main() calls logging.basicConfig; keep pytest's handlers authoritative.
    yield


@pytest.fixture
def config_path(fixtures_dir):
    return str(fixtures_dir / "config.json")


# JSON text the decoder cannot turn into a value: an integer over the
# 4,300-digit conversion limit, and nesting past the recursion limit.
UNDECODABLE = {"long-integer": '{"seed": ' + "1" * 5000 + "}", "deep-nesting": "[" * 100_000}

# Config values of the wrong type or range, as JSON text: (key, value).
BAD_CONFIG_VALUES = {
    "zero-media-length": ("media_lengths", '{"show_a_e01": 0}'),
    "nan-media-length": ("media_lengths", '{"show_a_e01": NaN}'),
    "overflowing-media-length": ("media_lengths", '{"show_a_e01": 1e999}'),
    "fractional-top-k": ("top_k", "2.9"),
    "boolean-top-k": ("top_k", "true"),
    "fractional-seed": ("seed", "1.5"),
    "string-scale": ("scales", '{"s": "1", "d": 1, "i": 1}'),
    "boolean-scale": ("scales", '{"s": 1, "d": true, "i": 1}'),
    "string-grid-value": ("grid", '{"lo": "0", "hi": 1, "step": 0.5}'),
    "boolean-grid-value": ("grid", '{"lo": 0, "hi": true, "step": 0.5}'),
    "numeric-path": ("dictionary", "5"),
    "surrogate-path": ("out_dir", '"out\\udfff"'),
    "surrogate-media-id": ("media_lengths", '{"show\\ud800": 60}'),
}

# Wake-word entry fields of the wrong type, over a valid entry for VA1.
BAD_WAKE_ENTRIES = {
    "phones-string": {"phones": "AH L EH K S AH"},
    "blocklist-string": {"blocklist": "echo"},
    "phone-not-a-string": {"phones": ["AH", 1]},
    "id-not-a-string": {"id": 5},
    "text-not-a-string": {"text": ["Alexa"]},
}


# Voice pools that break the pool rule, made from the default pool as JSON
# entries: (mutation, the error it raises).
BAD_VOICE_POOLS = {
    "five-standard": (lambda v: v[:4] + [{"id": "s-x", "kind": "standard", "gender": "f"}]
                      + v[5:], "4 standard and 6 wavenet"),
    "gender-skew": (lambda v: [v[0], {**v[1], "gender": "f"}, *v[2:]], "half female, half male"),
    "duplicate-id": (lambda v: [v[0], {**v[1], "id": v[0]["id"]}, *v[2:]], "unique"),
}


def write_config(tmp_path, fixtures_dir, **overrides):
    """Write a config into tmp_path with absolute fixture paths."""
    raw = {
        "dictionary": str(fixtures_dir / "mini_dict.txt"),
        "wake_words": str(fixtures_dir / "wake_words.json"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_defaults(self, tmp_path, fixtures_dir):
        config = load_config(write_config(tmp_path, fixtures_dir))
        assert config.top_k == 100
        assert config.seed == 0
        assert config.scales.s == config.scales.d == config.scales.i == 1.0
        assert config.grid.point_count() == 21 ** 3
        assert config.voices == DEFAULT_VOICES
        assert config.out_dir == tmp_path / "out"
        assert config.weight_table_path is None
        assert config.media_lengths == {}

    def test_bundled_config(self, config_path):
        config = load_config(config_path)
        assert config.top_k == 10
        assert config.seed == 7
        assert config.grid.point_count() == 5 ** 3
        assert config.scales.s == 1.46
        assert config.media_lengths == {"show_a_e01": 1320.0, "news_b_e02": 1800.0}

    def test_missing_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"wake_words": "w.json"}', encoding="utf-8")
        with pytest.raises(ConfigError, match="missing 'dictionary'"):
            load_config(path)

    def test_nonexistent_referenced_file(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir, dictionary="no_such.txt")
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_relative_paths_resolve_against_config(self, tmp_path, fixtures_dir):
        shutil.copy(fixtures_dir / "mini_dict.txt", tmp_path / "mini_dict.txt")
        shutil.copy(fixtures_dir / "wake_words.json", tmp_path / "wake_words.json")
        path = tmp_path / "config.json"
        path.write_text(
            '{"dictionary": "mini_dict.txt", "wake_words": "wake_words.json"}',
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.dictionary_path == tmp_path / "mini_dict.txt"
        assert len(config.dictionary()) > 0

    def test_grid_presets(self, tmp_path, fixtures_dir):
        config = load_config(write_config(tmp_path, fixtures_dir, grid="extended"))
        assert config.grid.point_count() == 31 ** 3

    def test_unknown_grid_preset(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir, grid="gigantic")
        with pytest.raises(ConfigError, match="unknown grid preset"):
            load_config(path)

    def test_explicit_grid_bounds(self, tmp_path, fixtures_dir):
        path = write_config(
            tmp_path, fixtures_dir, grid={"lo": 0.0, "hi": 1.0, "step": 0.5}
        )
        assert load_config(path).grid.point_count() == 27

    @pytest.mark.parametrize(
        "grid",
        [
            {"lo": 0.0, "hi": 1.0, "step": 0.0},
            {"lo": 0.0, "hi": 1.0, "step": float("nan")},
            {"lo": 1.0, "hi": 0.5, "step": 0.25},
            {"lo": -0.5, "hi": 1.0, "step": 0.5},
        ],
        ids=["zero-step", "nan-step", "hi-below-lo", "negative-lo"],
    )
    def test_bad_grid_rejected(self, tmp_path, fixtures_dir, caplog, grid):
        path = write_config(tmp_path, fixtures_dir, grid=grid)
        with pytest.raises(ConfigError, match="bad 'grid' entry"):
            load_config(path)
        caplog.clear()
        assert main(["--config", str(path), "blocklist", "--wake", "VA1"]) == 1
        assert "bad grid axis" in caplog.text
        assert "Traceback" not in caplog.text

    # 1e9 values on one axis, or 101 on each of three: both over the cap,
    # both caught before any axis is listed.
    @pytest.mark.parametrize("step", [1e-9, 0.01], ids=["long-axis", "many-points"])
    def test_grid_over_cap_rejected_without_listing(self, tmp_path, fixtures_dir, monkeypatch, step):
        def listed(self):
            raise AssertionError("grid values were listed")

        monkeypatch.setattr(Grid, "axis_values", listed)
        path = write_config(tmp_path, fixtures_dir, grid={"lo": 0.0, "hi": 1.0, "step": step})
        with pytest.raises(ConfigError, match=f"cap of {tuning.MAX_GRID_POINTS}"):
            load_config(path)
        assert main(["--config", str(path), "blocklist", "--wake", "VA1"]) == 1

    def test_bad_scales(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir, scales={"s": 1.0})
        with pytest.raises(ConfigError, match="scales"):
            load_config(path)

    def test_bad_top_k(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir, top_k=0)
        with pytest.raises(ConfigError, match="top_k"):
            load_config(path)

    def test_bad_media_lengths(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir, media_lengths={"x": "long"})
        with pytest.raises(ConfigError, match="media_lengths"):
            load_config(path)

    def test_advanced_model_needs_weight_table(self, tmp_path, fixtures_dir):
        config = load_config(write_config(tmp_path, fixtures_dir))
        assert config.model("simple").variant == "simple"
        with pytest.raises(ConfigError, match="weight_table"):
            config.model("advanced")

    def test_unknown_wake_word(self, config_path):
        config = load_config(config_path)
        with pytest.raises(ConfigError, match="unknown wake word"):
            config.wake_word("VA99")

    def test_empty_wake_word_file(self, tmp_path, fixtures_dir):
        empty = tmp_path / "wake.json"
        empty.write_text("[]", encoding="utf-8")
        config = load_config(
            write_config(tmp_path, fixtures_dir, wake_words=str(empty))
        )
        with pytest.raises(ConfigError, match="no wake words"):
            config.wake_words()

    def test_malformed_wake_word_entry(self, tmp_path, fixtures_dir):
        bad = tmp_path / "wake.json"
        bad.write_text('[{"id": "X", "text": "x"}]', encoding="utf-8")
        config = load_config(write_config(tmp_path, fixtures_dir, wake_words=str(bad)))
        with pytest.raises(ConfigError, match="bad wake-word entry"):
            config.wake_words()

    @pytest.mark.parametrize("text", [UNDECODABLE["long-integer"], UNDECODABLE["deep-nesting"]],
                             ids=["long-integer", "deep-nesting"])
    def test_undecodable_config_is_a_config_error(self, tmp_path, caplog, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)
        caplog.clear()
        assert main(["--config", str(path), "blocklist", "--wake", "VA1"]) == 1
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("text", [UNDECODABLE["long-integer"], UNDECODABLE["deep-nesting"]],
                             ids=["long-integer", "deep-nesting"])
    def test_undecodable_wake_word_file_is_a_config_error(self, tmp_path, fixtures_dir, text):
        bad = tmp_path / "wake.json"
        bad.write_text(text, encoding="utf-8")
        path = write_config(tmp_path, fixtures_dir, wake_words=str(bad))
        with pytest.raises(ConfigError, match="bad wake-word file"):
            load_config(path).wake_words()
        assert main(["--config", str(path), "blocklist", "--wake", "VA1"]) == 1

    @pytest.mark.parametrize("key,value", BAD_CONFIG_VALUES.values(), ids=BAD_CONFIG_VALUES)
    def test_bad_value_is_a_config_error(self, tmp_path, fixtures_dir, key, value):
        raw = json.loads((fixtures_dir / "config.json").read_text(encoding="utf-8"))
        for name in ("dictionary", "wake_words", "weight_table"):
            raw[name] = str(fixtures_dir / raw[name])
        del raw[key]
        # Spliced in as text: NaN and 1e999 are JSON the decoder accepts.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw)[:-1] + f', "{key}": {value}}}', encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        harness = ["harness"] + [
            arg for kind in ("events", "verification", "adjudication")
            for arg in (f"--{kind}", str(fixtures_dir / f"{kind}.jsonl"))
        ]
        assert main(["--config", str(path), "--out", str(tmp_path), *harness]) == 1

    def test_config_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('["dictionary", "wake_words"]', encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)
        assert main(["--config", str(path), "blocklist", "--wake", "VA1"]) == 1

    @pytest.mark.parametrize("mutate,message", BAD_VOICE_POOLS.values(), ids=BAD_VOICE_POOLS)
    def test_bad_voice_pool_is_a_config_error(self, tmp_path, fixtures_dir, mutate, message):
        pool = [{"id": v.id, "kind": v.kind, "gender": v.gender} for v in DEFAULT_VOICES]
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, fixtures_dir, voices=mutate(pool)))

    def test_bad_voice_pool_refused_before_any_output(self, tmp_path, fixtures_dir, caplog):
        out = tmp_path / "out"
        out.mkdir()
        path = write_config(tmp_path, fixtures_dir, voices=[])
        assert main(["--config", str(path), "--out", str(out), "rank", "--wake", "VA1"]) == 1
        assert "voice pool must hold exactly 4 standard and 6 wavenet voices" in caplog.text
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fields", BAD_WAKE_ENTRIES.values(), ids=BAD_WAKE_ENTRIES)
    def test_wake_word_entries_are_strict(self, tmp_path, fixtures_dir, fields):
        entry = {"id": "VA1", "text": "Alexa", "phones": ["AH", "L", "EH", "K", "S", "AH"],
                 "blocklist": [], **fields}
        wake = tmp_path / "wake.json"
        wake.write_text(json.dumps([entry]), encoding="utf-8")
        path = write_config(tmp_path, fixtures_dir, wake_words=str(wake))
        with pytest.raises(ConfigError, match="bad wake-word entry"):
            load_config(path).wake_words()
        argv = ["--config", str(path), "--out", str(tmp_path), "rank", "--wake", "VA1",
                "--model", "unweighted"]
        assert main(argv) == 1

    def test_wake_word_phones_are_read_like_dictionary_phones(self, tmp_path, fixtures_dir):
        # Stress digits stripped and symbols upper-cased, as a dictionary's.
        wakes = json.loads((fixtures_dir / "wake_words.json").read_text())
        wakes[0]["phones"] = ["AH0", "L", "EH1", "K", "S", "ah0"]
        wake = tmp_path / "wake.json"
        wake.write_text(json.dumps(wakes), encoding="utf-8")
        (tmp_path / "plain").mkdir()
        plain = write_config(tmp_path / "plain", fixtures_dir)
        stressed = write_config(tmp_path, fixtures_dir, wake_words=str(wake))
        assert load_config(stressed).wake_word("VA1").phones == ("AH", "L", "EH", "K", "S", "AH")
        args = ("rank", "--wake", "VA1", "--model", "unweighted")
        expected = run(str(plain), tmp_path / "expected", *args)
        got = run(str(stressed), tmp_path / "got", *args)
        names = sorted(p.name for p in expected.iterdir())
        assert names == sorted(p.name for p in got.iterdir()) and names
        for name in names:
            assert (got / name).read_bytes() == (expected / name).read_bytes()

    def test_wake_word_phones_outside_the_inventory_are_rejected(self, tmp_path, fixtures_dir):
        entry = {"id": "VA1", "text": "Alexa", "phones": ["AH", "QX"]}
        wake = tmp_path / "wake.json"
        wake.write_text(json.dumps([entry]), encoding="utf-8")
        path = write_config(tmp_path, fixtures_dir, wake_words=str(wake))
        with pytest.raises(ConfigError, match="bad wake-word entry.*QX"):
            load_config(path).wake_words()
        argv = ["--config", str(path), "--out", str(tmp_path), "rank", "--wake", "VA1",
                "--model", "unweighted"]
        assert main(argv) == 1

    def test_wake_words_share_the_configured_inventory(self, tmp_path, fixtures_dir):
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("AH vowel\nL consonant\n", encoding="utf-8")
        entry = {"id": "VA1", "text": "Alexa", "phones": ["AH", "L", "EH"]}
        wake = tmp_path / "wake.json"
        wake.write_text(json.dumps([entry]), encoding="utf-8")
        config = load_config(write_config(tmp_path, fixtures_dir, wake_words=str(wake),
                                          inventory=str(inventory)))
        with pytest.raises(ConfigError, match="'EH'"):
            config.wake_words()
        assert config.inventory() is config.inventory()

    def test_repr_leaves_out_loaded_resources(self, config_path):
        config = load_config(config_path)
        before = repr(config)
        config.vocabulary()
        config.wake_words()
        config.weight_table()
        assert repr(config) == before


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "rank" in capsys.readouterr().out

    def test_missing_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, config_path, capsys):
        assert main(["--config", config_path, "frobnicate"]) == 1

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["--config", str(tmp_path / "nope.json"), "blocklist", "--wake", "VA1"]
        )
        assert code == 1

    def test_unknown_wake_id(self, config_path, tmp_path):
        code = main(
            ["--config", config_path, "--out", str(tmp_path),
             "rank", "--wake", "VA99"]
        )
        assert code == 1

    def test_transcript_source_needs_file(self, config_path, tmp_path):
        code = main(
            ["--config", config_path, "--out", str(tmp_path),
             "rank", "--wake", "VA1", "--source", "transcripts"]
        )
        assert code == 1

    def test_bad_ngram_sizes(self, config_path, tmp_path, capsys):
        code = main(
            ["--config", config_path, "--out", str(tmp_path),
             "rank", "--wake", "VA1", "--ngram-sizes", "4"]
        )
        assert code == 1

    # Integer options are ASCII digits, as int() alone would not insist.
    @pytest.mark.parametrize("argv", [
        ["--seed", "1_0", "rank", "--wake", "VA1"],
        ["tune", "--triggers", "{fixtures}/triggers.tsv", "--filter-threshold", "5_0"],
        ["ngrams", "--transcripts", "{fixtures}/transcripts.txt", "--n", "\u0662"],
        ["probe-plan", "--phone", "B", "--n-words", "\u0663"],
        ["probe-plan", "--phone", "B", "--n-voices", "+2"],
        ["rank", "--wake", "VA1", "--source", "transcripts",
         "--transcripts", "{fixtures}/transcripts.txt", "--ngram-sizes", "1,\u0662"],
    ], ids=["seed", "filter-threshold", "n", "n-words", "n-voices", "ngram-sizes"])
    def test_integer_options_are_ascii_digits(self, config_path, tmp_path, fixtures_dir, argv):
        argv = [arg.format(fixtures=fixtures_dir) for arg in argv]
        assert main(["--config", config_path, "--out", str(tmp_path / "out"), *argv]) == 1
        assert not (tmp_path / "out").exists()

    def test_seed_may_be_negative(self, config_path, tmp_path):
        out = run(config_path, tmp_path, "--seed", "-3", "rank", "--wake", "VA1")
        assert " seed=-3 " in (out / "rank_VA1_dictionary.tsv").read_text()

    def test_malformed_trigger_file(self, config_path, tmp_path):
        bad = tmp_path / "triggers.tsv"
        bad.write_text("wake_id\ttrigger_label\ttimes_triggered\nVA1\n", encoding="utf-8")
        code = main(
            ["--config", config_path, "--out", str(tmp_path),
             "tune", "--triggers", str(bad)]
        )
        assert code == 2

    def test_missing_event_log(self, config_path, tmp_path, fixtures_dir):
        code = main(
            ["--config", config_path, "--out", str(tmp_path), "harness",
             "--events", str(tmp_path / "missing.jsonl"),
             "--verification", str(fixtures_dir / "verification.jsonl"),
             "--adjudication", str(fixtures_dir / "adjudication.jsonl")]
        )
        assert code == 2

    def test_malformed_event_log(self, config_path, tmp_path, fixtures_dir):
        bad = tmp_path / "events.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        code = main(
            ["--config", config_path, "--out", str(tmp_path), "harness",
             "--events", str(bad),
             "--verification", str(fixtures_dir / "verification.jsonl"),
             "--adjudication", str(fixtures_dir / "adjudication.jsonl")]
        )
        assert code == 2

    def test_malformed_inventory_class_line(self, tmp_path, fixtures_dir, caplog):
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("AH vowelish\n", encoding="utf-8")
        config = write_config(tmp_path, fixtures_dir, inventory=str(inventory))
        argv = ["--config", str(config), "--out", str(tmp_path / "out"),
                "blocklist", "--wake", "VA1"]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            assert main(argv) == 1
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
            "bad inventory file: line 1: unknown phone class 'vowelish'"
        ]
        assert not (tmp_path / "out").exists()

    def test_fractional_hits_in_verification_log(self, config_path, tmp_path, fixtures_dir):
        bad = tmp_path / "verification.jsonl"
        bad.write_text(
            '{"ts": "2019-10-01T12:00:36Z", "media": "m", "progress_s": 1.0,'
            ' "speaker": "VA1", "hits": 2.9}\n',
            encoding="utf-8",
        )
        code = main(
            ["--config", config_path, "--out", str(tmp_path), "harness",
             "--events", str(fixtures_dir / "events.jsonl"),
             "--verification", str(bad),
             "--adjudication", str(fixtures_dir / "adjudication.jsonl")]
        )
        assert code == 2


    @pytest.mark.parametrize("log_name,fields", [
        ("events", {"ts": "5"}),
        ("events", {"progress_s": "NaN"}),
        ("events", {"progress_s": '"12.5"'}),
        ("verification", {"replays": "20", "hits": "15"}),
    ], ids=["ts-number", "progress-nan", "progress-string", "replays-20"])
    def test_bad_harness_record_names_its_line(self, config_path, tmp_path, fixtures_dir,
                                               caplog, log_name, fields):
        fields = {"ts": '"2019-10-01T12:00:36Z"', "media": '"m"', "progress_s": "1.0",
                  "speaker": '"VA1"', "hits": "2", **fields}
        bad = tmp_path / f"{log_name}.jsonl"
        bad.write_text(
            "\n{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}\n",
            encoding="utf-8",
        )
        logs = {name: fixtures_dir / f"{name}.jsonl"
                for name in ("events", "verification", "adjudication")}
        logs[log_name] = bad
        argv = ["--config", config_path, "--out", str(tmp_path), "harness"]
        for name, path in logs.items():
            argv += [f"--{name}", str(path)]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            code = main(argv)
        assert code == 2
        assert [r.getMessage()[:7] for r in caplog.records if r.levelno == logging.ERROR] == [
            "line 2:"
        ]

    @pytest.mark.parametrize("log_name", ["events", "verification", "adjudication"])
    def test_deeply_nested_log_line_names_its_line(self, config_path, tmp_path, fixtures_dir,
                                                   caplog, log_name):
        bad = tmp_path / f"{log_name}.jsonl"
        bad.write_text("\n" + UNDECODABLE["deep-nesting"] + "\n", encoding="utf-8")
        logs = {name: fixtures_dir / f"{name}.jsonl"
                for name in ("events", "verification", "adjudication")}
        logs[log_name] = bad
        argv = ["--config", config_path, "--out", str(tmp_path), "harness"]
        for name, path in logs.items():
            argv += [f"--{name}", str(path)]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            code = main(argv)
        assert code == 2
        assert [r.getMessage()[:17] for r in caplog.records if r.levelno == logging.ERROR] == [
            "line 2: bad JSON:"
        ]


# How each input file reaches the CLI: the config entries that name it, the
# command line after --config ({bad} is its path), and the exit code.
HARNESS = ["harness", "--events", "{events}", "--verification", "{verification}",
           "--adjudication", "{adjudication}"]
INPUT_FILES = {
    "config": ([], ["--config", "{bad}", "blocklist", "--wake", "VA1"], 1),  # last --config wins
    "dictionary": (["dictionary"], ["blocklist", "--wake", "VA1"], 1),
    "wake-words": (["wake_words"], ["blocklist", "--wake", "VA1"], 1),
    "inventory": (["inventory"], ["blocklist", "--wake", "VA1"], 1),
    "transcripts": ([], ["rank", "--wake", "VA1", "--source", "transcripts",
                         "--transcripts", "{bad}"], 2),
    "ngram-transcripts": ([], ["ngrams", "--n", "1", "--transcripts", "{bad}"], 2),
    "trigger-labels": ([], ["tune", "--triggers", "{bad}"], 2),
    "probe-scores": ([], ["weights", "build", "--scores", "{bad}"], 2),
    "weight-table": (["weight_table"], ["rank", "--wake", "VA1", "--model", "advanced"], 1),
    "checked-weight-table": ([], ["weights", "check", "--table", "{bad}"], 2),
    "events": ([], HARNESS, 2),
    "verification": ([], HARNESS, 2),
    "adjudication": ([], HARNESS, 2),
}


class TestUndecodableInput:
    @pytest.mark.parametrize("kind", list(INPUT_FILES))
    def test_names_the_line_of_a_byte_that_is_not_utf8(self, tmp_path, fixtures_dir, caplog,
                                                       kind):
        # Lines every parser skips, long enough that the bad line sits past
        # the first chunk a text file decodes.
        blank = " " * 20 + "\n"
        bad = tmp_path / "bad.txt"
        bad.write_bytes((blank * 1499 + " \xff\n" + blank * 500).encode("latin-1"))
        entries, command, code = INPUT_FILES[kind]
        paths = {name: str(fixtures_dir / f"{name}.jsonl")
                 for name in ("events", "verification", "adjudication")}
        paths[kind] = paths["bad"] = str(bad)
        entries = {"weight_table": str(fixtures_dir / "weights.tsv"),
                   **{key: str(bad) for key in entries}}
        config = write_config(tmp_path, fixtures_dir, **entries)
        argv = ["--config", str(config), "--out", str(tmp_path / "out")]
        argv += [arg.format(**paths) for arg in command]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            assert main(argv) == code
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "line 1500: not UTF-8" in errors[0]

# Config strings holding a lone surrogate, which a ``\\ud800`` escape decodes
# to and UTF-8 cannot write: where each sits (in the wake-word entries or
# the voice pool), and a command that would write it out.
RANK_VA1 = ["rank", "--wake", "VA1"]
SURROGATE_STRINGS = {
    "wake-text": (lambda wakes, pool: wakes[0].update(text="\ud800"), RANK_VA1),
    "wake-id": (lambda wakes, pool: wakes[3].update(id="VA4\ud800"),
                ["tune", "--triggers", "{fixtures}/triggers.tsv", "--loocv"]),
    "blocklist-label": (lambda wakes, pool: wakes[0].update(blocklist=["x\ud800"]), RANK_VA1),
    "voice-id": (lambda wakes, pool: pool[0].update(id="v\ud800"), RANK_VA1),
}


class TestLoneSurrogate:
    @pytest.mark.parametrize("kind", list(SURROGATE_STRINGS))
    def test_config_string_is_refused_before_any_output(self, tmp_path, fixtures_dir, caplog,
                                                        kind):
        mutate, command = SURROGATE_STRINGS[kind]
        wakes = json.loads((fixtures_dir / "wake_words.json").read_text(encoding="utf-8"))
        pool = [{"id": v.id, "kind": v.kind, "gender": v.gender} for v in DEFAULT_VOICES]
        mutate(wakes, pool)
        wake = tmp_path / "wake.json"
        wake.write_text(json.dumps(wakes), encoding="utf-8")  # the surrogate as an escape
        config = write_config(tmp_path, fixtures_dir, wake_words=str(wake), voices=pool)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["--config", str(config), "--out", str(out)]
        argv += [arg.format(fixtures=fixtures_dir) for arg in command]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            assert main(argv) == 1
        assert "must be UTF-8 text" in caplog.text
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["media", "speaker"])
    @pytest.mark.parametrize("log_name", ["events", "verification", "adjudication"])
    def test_log_string_is_a_parse_error_on_its_line(self, config_path, tmp_path, fixtures_dir,
                                                      caplog, log_name, key):
        logs = {name: fixtures_dir / f"{name}.jsonl"
                for name in ("events", "verification", "adjudication")}
        lines = logs[log_name].read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record[key] += "\ud800"
        lines[1] = json.dumps(record)
        logs[log_name] = tmp_path / f"{log_name}.jsonl"
        logs[log_name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        argv = ["--config", config_path, "--out", str(out), "harness"]
        for name, path in logs.items():
            argv += [f"--{name}", str(path)]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith("line 2: bad event record:")
        assert f"{key} must be UTF-8 text" in errors[0]
        assert list(out.iterdir()) == []


def run(config_path, out_dir, *argv):
    code = main(["--config", config_path, "--no-timestamp", "--out", str(out_dir), *argv])
    assert code == 0
    return out_dir


class TestRankCommand:
    def test_dictionary_outputs(self, config_path, tmp_path):
        out = run(config_path, tmp_path / "out", "rank", "--wake", "VA1")
        ranked = (out / "rank_VA1_dictionary.tsv").read_text()
        lines = ranked.splitlines()
        assert lines[0].startswith("# model=simple s=1.46 d=1.3 i=0.24 k=10 seed=7")
        assert lines[1] == "# wake=VA1 text=Alexa"
        assert lines[2] == "rank\tlabel\tL\tS_n\tD_n\tI_n"
        data = lines[3:]
        assert len(data) == 10
        assert [row.split("\t")[0] for row in data] == [str(i) for i in range(1, 11)]
        distances = [float(row.split("\t")[2]) for row in data]
        assert distances == sorted(distances)
        manifest = (out / "manifest_VA1_dictionary.tsv").read_text().splitlines()
        assert manifest[0] == "label\tvoice\tkind\tgender\tfile"
        assert len(manifest) == 1 + 10 * 10  # ten items, ten voices

    def test_blocked_labels_absent(self, config_path, tmp_path, mini_dictionary, wake_by_id):
        out = run(config_path, tmp_path / "out", "rank", "--wake", "VA1")
        lines = (out / "rank_VA1_dictionary.tsv").read_text().splitlines()[3:]
        labels = {row.split("\t")[1] for row in lines}
        assert labels.isdisjoint(build_blocklist(wake_by_id["VA1"], mini_dictionary))
        assert "alexa" not in labels

    def test_reruns_are_byte_identical(self, config_path, tmp_path):
        first = run(config_path, tmp_path / "a", "rank", "--wake", "VA3")
        second = run(config_path, tmp_path / "b", "rank", "--wake", "VA3")
        for name in ("rank_VA3_dictionary.tsv", "manifest_VA3_dictionary.tsv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_timestamp_header_present_by_default(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", config_path, "--out", str(out),
                     "rank", "--wake", "VA1"]) == 0
        first = (out / "rank_VA1_dictionary.tsv").read_text().splitlines()[0]
        assert first.startswith("# generated ")

    def test_advanced_model(self, config_path, tmp_path):
        out = run(config_path, tmp_path / "out", "rank", "--wake", "VA1",
                  "--model", "advanced")
        header = (out / "rank_VA1_dictionary.tsv").read_text().splitlines()[0]
        assert header.startswith("# model=advanced")

    def test_batches_of_one_do_not_change_output(self, config_path, tmp_path, monkeypatch):
        bulk = run(config_path, tmp_path / "a", "rank", "--wake", "VA1")
        monkeypatch.setattr(CostContext, "score", one_at_a_time(CostContext.score))
        single = run(config_path, tmp_path / "b", "rank", "--wake", "VA1")
        for name in ("rank_VA1_dictionary.tsv", "manifest_VA1_dictionary.tsv"):
            assert (bulk / name).read_bytes() == (single / name).read_bytes()

    def test_one_loaded_config_builds_the_vocabulary_once(self, config_path, tmp_path,
                                                          monkeypatch):
        wakes = ("VA1", "VA2", "VA3", "VA4")
        for wake in wakes:
            run(config_path, tmp_path / "fresh", "rank", "--wake", wake, "--model", "advanced")
        builds = []

        from_dictionary = Vocabulary.from_dictionary

        def counted(dictionary):
            builds.append(dictionary)
            return from_dictionary(dictionary)

        monkeypatch.setattr(Vocabulary, "from_dictionary", counted)
        config = load_config(config_path)
        for wake in wakes:
            # As the command line runs a job, on the one loaded config.
            args = workbench.build_parser().parse_args(
                ["--config", config_path, "rank", "--wake", wake, "--model", "advanced"])
            assert args.func(config, args, workbench.OutputWriter(tmp_path / "reused", False)) == 0
        assert len(builds) == 1
        for path in sorted((tmp_path / "fresh").iterdir()):
            assert (tmp_path / "reused" / path.name).read_bytes() == path.read_bytes()
        assert len(list((tmp_path / "reused").iterdir())) == 2 * len(wakes)

    def test_transcript_source(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "rank", "--wake", "VA1",
                  "--source", "transcripts",
                  "--transcripts", str(fixtures_dir / "transcripts.txt"))
        for n in (1, 2, 3):
            assert (out / f"rank_VA1_{n}-gram.tsv").exists()
            assert (out / f"manifest_VA1_{n}-gram.tsv").exists()

    def test_transcript_ngram_size_subset(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "rank", "--wake", "VA1",
                  "--source", "transcripts", "--ngram-sizes", "2",
                  "--transcripts", str(fixtures_dir / "transcripts.txt"))
        assert (out / "rank_VA1_2-gram.tsv").exists()
        assert not (out / "rank_VA1_1-gram.tsv").exists()


class TestTuneCommand:
    def test_report_contents(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "tune",
                  "--triggers", str(fixtures_dir / "triggers.tsv"))
        report = (out / "tuning_report.tsv").read_text()
        assert "grid_points_evaluated\t125" in report
        assert "best_scales\ts=" in report
        assert "objective\t" in report
        assert "[per_wake_worst_rank]" in report
        assert "kept\t4\tof\t4" in report
        assert "[cross_validation_hits]" not in report

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_threshold_below_one_is_a_usage_error(self, config_path, tmp_path, fixtures_dir,
                                                  threshold):
        code = main(["--config", config_path, "--out", str(tmp_path), "tune",
                     "--triggers", str(fixtures_dir / "triggers.tsv"),
                     "--filter-threshold", threshold])
        assert code == 1
        assert not (tmp_path / "tuning_report.tsv").exists()

    def test_loocv_section(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "tune",
                  "--triggers", str(fixtures_dir / "triggers.tsv"), "--loocv")
        report = (out / "tuning_report.tsv").read_text()
        assert "[cross_validation_hits]" in report
        # The wake word with no observed triggers scores zero hits.
        assert "VA4\t0" in report

    def test_phrase_trigger_survives_filter(self, config_path, tmp_path, fixtures_dir):
        # "a lesson" is not a dictionary word; it must enter the vocabulary
        # as a phrase candidate instead of crashing or being dropped.
        out = run(config_path, tmp_path / "out", "tune",
                  "--triggers", str(fixtures_dir / "triggers.tsv"))
        report = (out / "tuning_report.tsv").read_text()
        assert "kept\t4\tof\t4" in report

    @pytest.mark.parametrize("label", [" ", ""], ids=["blank", "empty"])
    def test_empty_trigger_label_is_a_data_error(self, config_path, tmp_path, caplog, label):
        triggers = tmp_path / "triggers.tsv"
        triggers.write_text(f"wake_id\ttrigger_label\ttimes_triggered\nVA1\t{label}\t3\n",
                            encoding="utf-8")
        code = main(["--config", config_path, "--out", str(tmp_path), "tune",
                     "--triggers", str(triggers)])
        assert code == 2
        assert "line 2: empty trigger label" in caplog.text
        assert "Traceback" not in caplog.text

    def test_unknown_trigger_word_is_a_data_error(self, config_path, tmp_path, caplog):
        triggers = tmp_path / "triggers.tsv"
        triggers.write_text("wake_id\ttrigger_label\ttimes_triggered\nVA1\ta Xylophone\t3\n",
                            encoding="utf-8")
        code = main(["--config", config_path, "--out", str(tmp_path), "tune",
                     "--triggers", str(triggers)])
        assert code == 2
        assert "'xylophone' in phrase 'a xylophone'" in caplog.text

    def test_blocked_trigger_is_a_data_error(self, config_path, tmp_path, caplog):
        # "computed" is a dictionary word on VA2's configured blocklist.
        triggers = tmp_path / "triggers.tsv"
        triggers.write_text("wake_id\ttrigger_label\ttimes_triggered\nVA2\tcomputed\t3\n",
                            encoding="utf-8")
        code = main(["--config", config_path, "--out", str(tmp_path), "tune",
                     "--triggers", str(triggers)])
        assert code == 2
        assert "labels blocked for 'VA2': ['computed']" in caplog.text
        assert not (tmp_path / "tuning_report.tsv").exists()

    def test_advanced_loocv_report_matches_golden(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "tune",
                  "--triggers", str(fixtures_dir / "triggers.tsv"),
                  "--variant", "advanced", "--loocv")
        golden = fixtures_dir / "golden" / "tuning_report_advanced.tsv"
        assert (out / "tuning_report.tsv").read_bytes() == golden.read_bytes()

    def test_one_rank_pass_per_wake(self, config_path, tmp_path, fixtures_dir, monkeypatch,
                                    mini_dictionary, wake_by_id):
        # [wake phones, candidates priced, lattice priced yet] per rank pass: the
        # targets are priced by _grid_cost before the lattice, which prices every
        # other kept candidate; live lanes priced after it are not counted again.
        passes = []
        rank_pass, grid_cost, live_tiles = (tuning.TriggerRanks._rank_pass, tuning._grid_cost,
                                            tuning._live_tiles)

        def counting_pass(self, wake):
            passes.append([wake.phones, 0, False])
            return rank_pass(self, wake)

        def counting_cost(*args):
            passes[-1][1] += not passes[-1][2]
            return grid_cost(*args)

        def counting_lattice(codes, others, *args):
            passes[-1][1] += len(others)
            passes[-1][2] = True
            return live_tiles(codes, others, *args)

        monkeypatch.setattr(tuning.TriggerRanks, "_rank_pass", counting_pass)
        monkeypatch.setattr(tuning, "_grid_cost", counting_cost)
        monkeypatch.setattr(tuning, "_live_tiles", counting_lattice)
        run(config_path, tmp_path / "out", "tune",
            "--triggers", str(fixtures_dir / "triggers.tsv"), "--loocv")
        # The phrase trigger "a lesson" joins the dictionary words as a
        # candidate; VA4 has no triggers, so it gets no pass.
        labels = [c.label for c in dictionary_candidates(mini_dictionary)] + ["a lesson"]
        expected = {}
        for wake_id in ("VA1", "VA2", "VA3"):
            wake = wake_by_id[wake_id]
            blocked = build_blocklist(wake, mini_dictionary)
            expected[wake.phones] = sum(1 for label in labels if label not in blocked)
        assert len(passes) == 3
        assert {phones: priced for phones, priced, _ in passes} == expected

    def test_missing_weight_warned_once_per_run(self, tmp_path, fixtures_dir, caplog):
        # Insertion weights for AH and EH only: every other inserted phone
        # falls back, in the shared rank pass and again in each fold.
        lines = (fixtures_dir / "weights.tsv").read_text(encoding="utf-8").splitlines()
        start, end = lines.index("[insertion]"), lines.index("[substitution]")
        (tmp_path / "weights.tsv").write_text(
            "\n".join(lines[: start + 1] + ["AH\t1", "EH\t1"] + lines[end:]) + "\n",
            encoding="utf-8")
        # The bundled config, its relative weight_table now naming the cut table.
        config = json.loads((fixtures_dir / "config.json").read_text(encoding="utf-8"))
        del config["dictionary"], config["wake_words"]
        path = write_config(tmp_path, fixtures_dir, **config)
        with caplog.at_level(logging.WARNING, logger="triggercraft.distance"):
            run(str(path), tmp_path / "out", "tune",
                "--triggers", str(fixtures_dir / "triggers.tsv"), "--variant", "advanced",
                "--loocv")
        fallbacks = [m for m in caplog.messages if "falling back" in m]
        assert fallbacks and all(m.startswith("no insertion weight") for m in fallbacks)
        assert len(fallbacks) == len(set(fallbacks))

    def test_reruns_are_byte_identical(self, config_path, tmp_path, fixtures_dir):
        first = run(config_path, tmp_path / "a", "tune",
                    "--triggers", str(fixtures_dir / "triggers.tsv"), "--loocv")
        second = run(config_path, tmp_path / "b", "tune",
                     "--triggers", str(fixtures_dir / "triggers.tsv"), "--loocv")
        assert (
            (first / "tuning_report.tsv").read_bytes()
            == (second / "tuning_report.tsv").read_bytes()
        )


class TestNgramsCommand:
    def test_extraction(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "ngrams", "--n", "2",
                  "--transcripts", str(fixtures_dir / "transcripts.txt"))
        lines = (out / "ngrams_2.tsv").read_text().splitlines()
        assert lines[0] == "label\tcount\tpronunciations"
        labels = {row.split("\t")[0] for row in lines[1:]}
        assert "fresh parmesan" in labels
        for row in lines[1:]:
            label, count, prons = row.split("\t")
            assert int(count) >= 1
            assert prons  # every kept n-gram is fully in-dictionary


class TestBlocklistCommand:
    def test_prints_sorted(self, config_path, capsys, mini_dictionary, wake_by_id):
        assert main(["--config", config_path, "blocklist", "--wake", "VA4"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == sorted(build_blocklist(wake_by_id["VA4"], mini_dictionary))
        assert "hay" in printed


class TestWeightsCommand:
    def test_build_matches_bundled_table(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "weights", "build",
                  "--scores", str(fixtures_dir / "probe_scores.tsv"))
        built = (out / "weights.tsv").read_bytes()
        assert built == (fixtures_dir / "weights.tsv").read_bytes()

    def test_build_custom_name(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", "weights", "build",
                  "--scores", str(fixtures_dir / "probe_scores.tsv"),
                  "--table-name", "custom.tsv")
        assert (out / "custom.tsv").exists()

    def test_check_reports_shape(self, config_path, tmp_path, fixtures_dir, capsys):
        code = main(["--config", config_path, "--out", str(tmp_path), "weights",
                     "check", "--table", str(fixtures_dir / "weights.tsv")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: 14 deletion, 39 insertion, 532 substitution")

    def test_check_rejects_garbage(self, config_path, tmp_path):
        bad = tmp_path / "weights.tsv"
        bad.write_text("not a table\n", encoding="utf-8")
        code = main(["--config", config_path, "--out", str(tmp_path), "weights",
                     "check", "--table", str(bad)])
        assert code == 2

    def test_action_required(self, config_path):
        assert main(["--config", config_path, "weights"]) == 1


class TestProbePlanCommand:
    def test_plan_shape(self, config_path, tmp_path):
        out = run(config_path, tmp_path / "out", "probe-plan",
                  "--phone", "B", "--n-words", "2", "--n-voices", "3")
        lines = (out / "probe_plan.tsv").read_text().splitlines()
        assert lines[0] == "phone\tedit\ttarget\tword\tvoice"
        # two words x three voices x (delete + insert + 38 substitution targets)
        assert len(lines) - 1 == 2 * 3 * 40
        assert lines[1].startswith("B\tdelete\t-\t")

    def test_short_word_supply_still_succeeds(self, config_path, tmp_path, caplog):
        code = main(["--config", config_path, "--no-timestamp",
                     "--out", str(tmp_path),
                     "probe-plan", "--phone", "B", "--n-words", "50"])
        assert code == 0
        assert "only 2 of 50" in caplog.text

    def test_unsatisfiable_phone_fails_cleanly(self, config_path, tmp_path):
        code = main(["--config", config_path, "--out", str(tmp_path),
                     "probe-plan", "--phone", "OY", "--n-words", "2"])
        assert code == 2

    def test_phones_read_as_wake_word_phones(self, config_path, tmp_path):
        plans = [(run(config_path, tmp_path / phone, "probe-plan", "--phone", phone,
                      "--n-words", "2") / "probe_plan.tsv").read_bytes()
                 for phone in ("AH", "AH0", "ah")]
        assert plans[0] == plans[1] == plans[2]
        assert plans[0].splitlines()[1].startswith(b"AH\tdelete\t")
        code = main(["--config", config_path, "--out", str(tmp_path),
                     "probe-plan", "--phone", "QX", "--n-words", "2"])
        assert code == 1  # not in the inventory

    def test_repeated_phone_planned_once(self, config_path, tmp_path):
        once = run(config_path, tmp_path / "once", "probe-plan", "--phone", "B",
                   "--phone", "AH", "--n-words", "2") / "probe_plan.tsv"
        repeated = run(config_path, tmp_path / "repeated", "probe-plan", "--phone", "B",
                       "--phone", "b1", "--phone", "AH", "--phone", "B",
                       "--n-words", "2") / "probe_plan.tsv"
        rows = repeated.read_text().splitlines()
        assert len(set(rows)) == len(rows)
        assert repeated.read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_word_count_below_one_is_a_usage_error(self, config_path, tmp_path, count):
        code = main(["--config", config_path, "--out", str(tmp_path),
                     "probe-plan", "--phone", "B", "--n-words", count])
        assert code == 1
        assert not (tmp_path / "probe_plan.tsv").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_voice_count_below_one_is_a_usage_error(self, config_path, tmp_path, count):
        code = main(["--config", config_path, "--out", str(tmp_path),
                     "probe-plan", "--phone", "B", "--n-voices", count])
        assert code == 1
        assert not (tmp_path / "probe_plan.tsv").exists()


class TestHarnessCommand:
    def harness_args(self, fixtures_dir):
        return [
            "harness",
            "--events", str(fixtures_dir / "events.jsonl"),
            "--verification", str(fixtures_dir / "verification.jsonl"),
            "--adjudication", str(fixtures_dir / "adjudication.jsonl"),
        ]

    def test_summary_output(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", *self.harness_args(fixtures_dir))
        body = (out / "harness_summary.tsv").read_text()
        assert body.startswith("[counts]\n")
        assert "cohens_kappa\t0.800000" in body
        assert "[windows]" in body
        window_rows = body.split("[windows]\n", 1)[1].splitlines()
        assert window_rows[0] == "media\tspeaker\tprogress_s\tstart_s\tend_s"
        assert len(window_rows) == 1 + 100

    def test_missing_media_length_warned_once_per_media(self, tmp_path, fixtures_dir, caplog):
        config = write_config(tmp_path, fixtures_dir, media_lengths={"show_a_e01": 1320.0})
        with caplog.at_level(logging.WARNING, logger="triggercraft.harness"):
            out = run(str(config), tmp_path / "out", *self.harness_args(fixtures_dir))
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "triggercraft.harness" and r.levelno == logging.WARNING]
        assert warnings == ["no media length configured for 'news_b_e02' (34 events)"]
        rows = (out / "harness_summary.tsv").read_text().split("[windows]\n", 1)[1].splitlines()
        assert len(rows) == 1 + 66
        assert all(row.startswith("show_a_e01\t") for row in rows[1:])

    def test_window_numbers_written_to_twelve_digits(self, tmp_path, fixtures_dir):
        fields = '"ts": "2019-10-01T12:00:00Z", "media": "m", "speaker": "VA1"'
        logs = {}
        for name, extra in [("events", ""), ("verification", ', "hits": 1'),
                            ("adjudication", ', "reviewer_a": "accidental", '
                                             '"reviewer_b": "accidental"')]:
            logs[name] = tmp_path / f"{name}.jsonl"
            logs[name].write_text(
                "".join(f'{{{fields}, "progress_s": {p}{extra}}}\n'
                        for p in (3.14159265358979, 100.123456789012)),
                encoding="utf-8",
            )
        config = write_config(tmp_path, fixtures_dir, media_lengths={"m": 101.0000000000004})
        argv = ["harness"]
        for name, path in logs.items():
            argv += [f"--{name}", str(path)]
        out = run(str(config), tmp_path / "out", *argv)
        rows = (out / "harness_summary.tsv").read_text().split("[windows]\n", 1)[1].splitlines()
        assert rows[1:] == [
            "m\tVA1\t3.14159265359\t0\t6.14159265359",
            "m\tVA1\t100.123456789\t93.123456789\t101",
        ]

    def test_event_past_media_end_names_its_record(self, tmp_path, fixtures_dir, caplog):
        # The first event, VA1 at 381.4 s of news_b_e02, lies past a 300 s end.
        config = write_config(tmp_path, fixtures_dir,
                              media_lengths={"show_a_e01": 1320.0, "news_b_e02": 300.0})
        argv = ["--config", str(config), "--out", str(tmp_path / "out"),
                *self.harness_args(fixtures_dir)]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        assert "'VA1'" in errors[0] and "'news_b_e02'" in errors[0]
        assert "past media end (300.0s)" in errors[0]
        assert not (tmp_path / "out" / "harness_summary.tsv").exists()

    def test_windows_skipped_without_media_lengths(self, tmp_path, fixtures_dir):
        config = write_config(tmp_path, fixtures_dir)
        out = run(str(config), tmp_path / "out", *self.harness_args(fixtures_dir))
        assert "[windows]" not in (out / "harness_summary.tsv").read_text()

    def test_window_bounds_respect_media_length(self, config_path, tmp_path, fixtures_dir):
        out = run(config_path, tmp_path / "out", *self.harness_args(fixtures_dir))
        body = (out / "harness_summary.tsv").read_text()
        lengths = {"show_a_e01": 1320.0, "news_b_e02": 1800.0}
        rows = body.split("[windows]\n", 1)[1].splitlines()[1:]
        for row in rows:
            media, _speaker, progress, start, end = row.split("\t")
            assert 0.0 <= float(start) < float(end) <= lengths[media]
            assert float(start) >= float(progress) - 7.0 - 1e-9


# Hostile JSON values, as the text written in place of one value of one log
# line: a NaN, the infinities, a number past the largest double, the
# smallest subnormal, the other JSON types, an integer past the 4,300-digit
# conversion limit, nesting past the recursion limit and a lone surrogate.
HOSTILE_VALUES = ["NaN", "Infinity", "-Infinity", "1e309", "5e-324", "true", "false", "null",
                  '""', "1" * 5000, "[" * 100_000 + "]" * 100_000, '"\\ud800"']
FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_LOGS = {name: (FIXTURES / f"{name}.jsonl").read_text(encoding="utf-8")
                .splitlines(keepends=True) for name in ("events", "verification", "adjudication")}


@st.composite
def hostile_logs(draw):
    """The fixture logs with one line changed: one of its values replaced by
    a hostile one, or the line duplicated or dropped."""
    logs = {name: list(lines) for name, lines in FIXTURE_LOGS.items()}
    lines = logs[draw(st.sampled_from(sorted(logs)))]
    index = draw(st.integers(0, len(lines) - 1))
    change = draw(st.sampled_from(["replace", "duplicate", "drop"]))
    if change == "duplicate":
        lines.insert(index, lines[index])
    elif change == "drop":
        del lines[index]
    else:
        record = json.loads(lines[index])
        key = draw(st.sampled_from(sorted(record)))
        value = draw(st.sampled_from(HOSTILE_VALUES))
        lines[index] = "{" + ", ".join(
            f"{json.dumps(k)}: {value if k == key else json.dumps(v)}" for k, v in record.items()
        ) + "}\n"
    return logs


@settings(max_examples=60, deadline=None)
@given(logs=hostile_logs())
def test_harness_on_hostile_log_lines(logs):
    # Exit 0 with the same bytes on a second run, or exit 2 with no summary.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = ["--config", str(FIXTURES / "config.json"), "--no-timestamp", "harness"]
        for name, lines in logs.items():
            (root / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
            argv += [f"--{name}", str(root / f"{name}.jsonl")]
        summaries = []
        for run_dir in ("first", "second"):
            code = main(["--out", str(root / run_dir), *argv])
            summary = root / run_dir / "harness_summary.tsv"
            assert code in (0, 2)
            if code:
                assert not summary.exists()
                return
            summaries.append(summary.read_bytes())
        assert summaries[0] == summaries[1]


# Probe-score lines that `weights build` must reject rather than turn into a
# table that `weights check` refuses or that reads back different symbols.
MALFORMED_PROBE_LINES = {
    "nan-delta": "K\tinsert\t-\tZZWORD\t1\tnan",
    "inf-delta": "K\tinsert\t-\tZZWORD\t1\tinf",
    "minus-inf-delta": "K\tinsert\t-\tZZWORD\t1\t-inf",
    "empty-phone": "\tinsert\t-\tZZWORD\t1\t0.5",
    "padded-phone": " S\tinsert\t-\tZZWORD\t1\t0.5",
    "empty-target": "S\tsubstitute\t\tZZWORD\t1\t0.5",
    "padded-target": "S\tsubstitute\tZ \tZZWORD\t1\t0.5",
    # A weight table reads a line that begins with "#" as a comment.
    "hash-phone": "#X\tinsert\t-\tZZWORD\t1\t0.5",
    "hash-target": "S\tsubstitute\t#Z\tZZWORD\t1\t0.5",
    # The fixture's first data line again, scored a second time.
    "duplicate-cell": "AH\tdelete\t-\tABOUT\t1\t0.25",
}


class TestMalformedProbeScores:
    @pytest.mark.parametrize("kind", list(MALFORMED_PROBE_LINES))
    def test_weights_build_names_the_line(self, config_path, tmp_path, fixtures_dir, caplog,
                                          kind):
        lines = (fixtures_dir / "probe_scores.tsv").read_text(encoding="utf-8").splitlines()
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join(lines + [MALFORMED_PROBE_LINES[kind]]) + "\n",
                          encoding="utf-8")
        argv = ["--config", config_path, "--out", str(tmp_path / "out"),
                "weights", "build", "--scores", str(scores)]
        with caplog.at_level(logging.ERROR, logger="triggercraft.workbench"):
            assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and f"line {len(lines) + 1}:" in errors[0]
        assert not (tmp_path / "out" / "weights.tsv").exists()
