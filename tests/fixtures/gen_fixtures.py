"""Regenerate the committed probe-score and measurement-log fixtures.

Run from the repository root::

    python3 tests/fixtures/gen_fixtures.py [OUT_DIR]

The files are written to ``OUT_DIR``, by default this script's own
directory.  Everything is seeded, so reruns reproduce the committed files
byte for byte; ``tests/test_fixtures.py`` checks that they do.
"""

from __future__ import annotations

import json
import random
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

HERE = Path(__file__).parent

VOWELS = [
    "AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER", "EY", "IH", "IY",
    "OW", "OY", "UH", "UW",
]
CONSONANTS = [
    "B", "CH", "D", "DH", "F", "G", "HH", "JH", "K", "L", "M", "N",
    "NG", "P", "R", "S", "SH", "T", "TH", "V", "W", "Y", "Z", "ZH",
]
INVENTORY = VOWELS + CONSONANTS

# Union of the phones used by the fixture wake words (see wake_words.json).
WAKE_PHONES = [
    "AH", "EH", "ER", "EY", "HH", "K", "L", "M", "OW", "P", "S", "T", "UW", "Y",
]

PROBE_WORDS = ["ABOUT", "CAMERA"]
N_VOICES = 2


def gen_probe_scores(out: Path = HERE) -> None:
    rng = random.Random(20250818)
    lines = ["phone\tedit\ttarget\tword\tvoice\tscore_delta"]
    for phone in WAKE_PHONES:
        for word in PROBE_WORDS:
            for voice in range(1, N_VOICES + 1):
                delta = rng.uniform(0.05, 1.5)
                lines.append(f"{phone}\tdelete\t-\t{word}\t{voice}\t{delta!r}")
    for phone in INVENTORY:
        for word in PROBE_WORDS:
            for voice in range(1, N_VOICES + 1):
                delta = rng.uniform(0.05, 1.5)
                lines.append(f"{phone}\tinsert\t-\t{word}\t{voice}\t{delta!r}")
    for phone in WAKE_PHONES:
        for target in INVENTORY:
            if target == phone:
                continue
            for word in PROBE_WORDS:
                for voice in range(1, N_VOICES + 1):
                    delta = rng.uniform(0.05, 1.5)
                    lines.append(
                        f"{phone}\tsubstitute\t{target}\t{word}\t{voice}\t{delta!r}"
                    )
    (out / "probe_scores.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def gen_measurement_logs(out: Path = HERE) -> None:
    rng = random.Random(31415926)
    speakers = ["VA1", "VA3"]
    medias = {"show_a_e01": 1320.0, "news_b_e02": 1800.0}
    # Reviewer-label layout chosen for a clean agreement figure:
    # 45 both-accidental, 5 + 5 disagreements, 45 both-wake-word.
    labels = (
        [("accidental", "accidental")] * 45
        + [("accidental", "wake-word-present")] * 5
        + [("wake-word-present", "accidental")] * 5
        + [("wake-word-present", "wake-word-present")] * 45
    )
    rng.shuffle(labels)
    events, verifications, adjudications = [], [], []
    t0 = 0
    for idx, (label_a, label_b) in enumerate(labels):
        speaker = speakers[idx % 2]
        media = "show_a_e01" if idx % 3 else "news_b_e02"
        length = medias[media]
        progress = round(rng.uniform(5.0, length - 5.0), 1)
        t0 += rng.randint(20, 90)
        ts = (
            datetime(2019, 10, 1, 12, 0, 0, tzinfo=timezone.utc) + timedelta(seconds=t0)
        ).strftime("%Y-%m-%dT%H:%M:%SZ")
        base = {
            "ts": ts,
            "media": media,
            "progress_s": progress,
            "speaker": speaker,
        }
        events.append(dict(base))
        hits = rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        led = rng.choice([0.5, 1.0, 1.99, 2.0, 2.5, 3.5])
        verifications.append(
            dict(
                base,
                replays=10,
                hits=hits,
                led_on_s=led,
                voice_response=rng.random() < 0.1,
                cloud_pattern=False,
            )
        )
        adjudications.append(dict(base, reviewer_a=label_a, reviewer_b=label_b))
    for name, records in (
        ("events.jsonl", events),
        ("verification.jsonl", verifications),
        ("adjudication.jsonl", adjudications),
    ):
        body = "\n".join(json.dumps(r) for r in records) + "\n"
        (out / name).write_text(body, encoding="utf-8")


# The files the two generators write.
GENERATED = ("probe_scores.tsv", "events.jsonl", "verification.jsonl", "adjudication.jsonl")


def main(out: Path = HERE) -> None:
    gen_probe_scores(out)
    gen_measurement_logs(out)


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
    print("fixtures regenerated")
