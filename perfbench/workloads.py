"""The benchmark's workloads and the reports pinned for them.

Each workload is a fixed list of `rckit` CLI invocations run in order from
one process, one closed loop: the next invocation starts when the previous
one has returned.  `--jobs` never exceeds 2, the CPU count of the machine the
baseline was measured on.

A report is correct when the CLI exits 0, its verdict is `verified`, its
`casesRun` equals the pinned count and the SHA-256 of its canonical JSON
(keys sorted, no whitespace, `wallTime` removed) equals the pinned digest.
For the seeded suites the digest is taken with `suite.seed` removed as well,
after checking that it equals the benchmark's seed: a verified report's
content apart from that field does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED = "{seed}"


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    cases: int
    digest: str

    @property
    def seeded(self) -> bool:
        return SEED in self.argv

    def args(self, seed: int) -> list[str]:
        return [str(seed) if a == SEED else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    """A named, fixed list of CLI invocations; METRICS.md gives the reason for each."""

    name: str
    fields: tuple[str, ...]  # field labels built during set-up
    invocations: tuple[Invocation, ...]


def _verify(*args: str) -> tuple[str, ...]:
    return ("verify", "--suite") + args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sym4-f2",
            ("2",),
            (
                Invocation(
                    _verify("sym-main", "--field", "2", "--n", "4", "--codim", "1", "--jobs", "1"),
                    1024,
                    "cf63e662b0adcdb56deccbe54d5b229b3af686ca713a2212b477b0372f411cea",
                ),
            ),
        ),
        # not listed in BENCHMARK.json; METRICS.md says why
        Workload(
            "sym3-f3",
            ("3",),
            (
                Invocation(
                    _verify("sym-main", "--field", "3", "--n", "3", "--jobs", "1"),
                    365,
                    "d16880ad5d3e17d34d3c4a90a38275e820f5976ebc1f7b0c095efcf0e060d75c",
                ),
            ),
        ),
        Workload(
            "lemmas-j2",
            ("3", "2", "2^2"),
            (
                Invocation(
                    _verify("rank1-gaps", "--field", "3", "--jobs", "2"),
                    56631,
                    "60155daad43abfb6dfac6224d27567eae340b4de5c0c5bbaf1a2363f14e127a1",
                ),
                Invocation(
                    _verify("good-functionals", "--field", "2", "--jobs", "2"),
                    576,
                    "997db2615c4fdb65e030c1c973f843bfeedcaf40672e1ff63f23c42d292bfdf0",
                ),
                Invocation(
                    _verify("quotient-lemma", "--trials", "1000", "--seed", SEED, "--jobs", "2"),
                    1000,
                    "b2b725c71289693513e793a233469733ce455cd9d83d69c950e06dbcb8ffecd3",
                ),
                Invocation(
                    _verify("splitting-lemma", "--trials", "1000", "--seed", SEED, "--jobs", "2"),
                    1000,
                    "b7bf98fdd0ea1065fec81c00ea373ab2c8e07ea739e9c269f198ed013556e8ee",
                ),
            ),
        ),
    )
}

# tiny variants for --selftest: the same code paths in a few seconds
SELFTEST = (
    Workload(
        "selftest-sym",
        ("2",),
        (
            Invocation(
                _verify("sym-main", "--field", "2", "--n", "3", "--codim", "1", "--jobs", "1"),
                64,
                "f3ae4392cd14311a8d1d7c3d931cf6bb735996ced4be32c4219cedbe019612d6",
            ),
        ),
    ),
    Workload(
        "selftest-rank1",
        ("2",),
        (
            Invocation(
                _verify("rank1-gaps", "--field", "2", "--jobs", "2"),
                2824,
                "05bfd342a1ee38a94aedc51fcea3bddbf179ef6e41c15d943734d7d684689299",
            ),
        ),
    ),
)
