"""The benchmark's workloads and the expected values they are checked against.

Every expected value is carried here rather than asked of the package: the
small Schroeder numbers, 3n-4, and the rank and class-count closed forms
evaluated with ``math.comb``.  Nothing here calls ``schroeder_small`` or a
``formula_*`` function.  On top of the verdicts, each invocation's
deterministic stdout data fields (``runtime_ms`` stripped) must match a
SHA-256 digest recorded at the seed commit; ``run.py --digests`` prints the
digests of the current code for recording a new invocation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import comb

# |SS'(n)| = s_n, the small Schroeder numbers (OEIS A001003).
SMALL_SCHROEDER = {
    1: 1, 2: 3, 3: 11, 4: 45, 5: 197, 6: 903, 7: 4279, 8: 20793,
    9: 103049, 10: 518859, 11: 2646723,
}

# Number of classical L-classes (equal to the D- and J-classes) of SS'(n),
# recorded at the seed commit; the paper gives no closed form for it.
L_CLASSES = {4: 28, 6: 297}

# SHA-256 of each invocation's stdout data fields, recorded at the seed commit.
DIGESTS = {
    "invariants-n8": "2453c048ed3154aa43e9222a69971319884c3ee0de50f7d1d66b9f0d58470b39",
    "enumerate-n9": "640c8d01379ad8b344a9a33ce8ec57d5043057edd5bff18f07d78611398398e4",
    "green-R-n6": "72cbc6658178277548226401ba83c6f0125f29fd9aa615d863ff2bd3707b3b8c",
    "green-L-n6": "9f6c857b78186cffc035fb5d40ab0bdd90d15bee0802d4f7dc501d304235b55f",
    "green-H-n6": "72cbc6658178277548226401ba83c6f0125f29fd9aa615d863ff2bd3707b3b8c",
    "green-D-n6": "9f6c857b78186cffc035fb5d40ab0bdd90d15bee0802d4f7dc501d304235b55f",
    "green-J-n6": "9f6c857b78186cffc035fb5d40ab0bdd90d15bee0802d4f7dc501d304235b55f",
    "green-Lstar-def-n5": "b666a20323e06424e626ec0ddf17e747cdb3aaff75564e9a128eff24a8d22463",
    "rank-quotient-n7-p3": "410655a4f6f3a17ace5aa4cd9f10cc3ff8e05055f4a9de8044312eeb7b93b9b7",
    "rank-quotient-n7-p4": "16c80b06c5fab09778c0facbffa57d60580bcaa714056824b2f08e8453458ed9",
    "rank-ideal-n7-p2": "0c53b7fc7d184b3840d53ac02c9a09665472ad25e799e930f0bcf100fe145844",
    "rank-n6": "0974c55eccb222ad41378b1810a2a5246cef2293fcd864f9aaa04161dbbb2d66",
    "generate-n8": "aee3416b37367b1a147af8cbb6efc3dc2bc3ebe8fba7f89767593b7787d04f1f",
    "invariants-n4": "53b34f2f9034bf446cf6e9cf07c7dbbefd4084748fb6a504bc439643363fcaf5",
    "enumerate-n4": "1bc7036c35221253a098222292b4dbe4e5c8a9ebbb64ab3b06cc5f24778bbc6e",
    "green-R-n4": "dc9d18b106f593b6c2deeaa6506123a188b146f1f6414c964341fbd63f41c706",
    "green-L-n4": "43c564fca6fc46c3de7b31d65b532991e885e951b6132b33aefead25b98931b8",
    "green-H-n4": "dc9d18b106f593b6c2deeaa6506123a188b146f1f6414c964341fbd63f41c706",
    "green-D-n4": "43c564fca6fc46c3de7b31d65b532991e885e951b6132b33aefead25b98931b8",
    "green-J-n4": "43c564fca6fc46c3de7b31d65b532991e885e951b6132b33aefead25b98931b8",
    "green-Lstar-def-n4": "2d13a5a00a97af8b25451eb379bdaa014983dba8d92be2fa206c52d52bd63734",
    "rank-quotient-n4-p2": "da603ba35115b1f9005418c839226a1b8a3311bf28261c907b04d0625d6d9ad1",
    "rank-quotient-n4-p3": "9be38a803bc004655e7d571d57c818a31b3a8433d27079bc732da3b625e8cd7a",
    "rank-ideal-n4-p2": "4bb88ebc438e711fbe62a0324d8c03efbb954ad52ea01e07467a233c08a9199e",
    "rank-n4": "6ab581aff32bcaeda4c4a9ae749f15f914520eafa75911dccfcf6cccc8e859ad",
    "generate-n4": "87235f5def96322f274eaf3d4cf75fce03f15d5674046bbd439f7c7fc6ca14b1",
}


def idempotents(n: int) -> int:
    return (3 ** (n - 1) + 1) // 2


def rstar_classes(n: int, p: int) -> int:
    """Kernels among height-p members: sum_{r=p}^{n-1} C(n-1,r) C(r-1,p-1),
    where the p = 0 term is the empty map's single kernel."""
    if p == 0:
        return 1
    return sum(comb(n - 1, r) * comb(r - 1, p - 1) for r in range(p, n))


def quotient_rank(n: int, p: int) -> int:
    """Rank of the Rees quotient at height p, and of the ideal K(n,p) for
    p <= n-2: C(n-1,p-1) + sum_{r=p}^{n-1} C(n-1,r) C(r-1,p-1)."""
    return comb(n - 1, p - 1) + rstar_classes(n, p)


def data_fields(command: str, stdout: str) -> str:
    """The deterministic part of an invocation's stdout."""
    if command != "invariants":
        return stdout
    doc = json.loads(stdout)
    for row in doc["rows"]:
        del row["runtime_ms"]
    return json.dumps(doc, sort_keys=True)


def _check_invariants(doc: dict, exp: dict) -> str | None:
    got = [(r["name"], r["formula_value"], r["oracle_value"], r["status"]) for r in doc["rows"]]
    want = [(name, value, value, "PASS") for name, value in exp["rows"]]
    if doc["n"] != exp["n"] or got != want:
        return f"rows {got} != expected {want}"
    return None


def _check_enumerate(doc: dict, exp: dict) -> str | None:
    size = len(doc["elements"])
    if (doc["family"], doc["n"], size) != ("ss-prime", exp["n"], exp["size"]):
        return f"{doc['family']} n={doc['n']} has {size} elements, expected {exp['size']}"
    return None


def _check_rank(doc: dict, exp: dict) -> str | None:
    got = (doc["target"], doc["n"], doc["p"], doc["rank"], doc["formula"],
           doc["certified"], doc["status"], len(doc["generating_set"]))
    want = (exp["target"], exp["n"], exp["p"], exp["rank"], exp["rank"], True, "PASS", exp["rank"])
    return None if got == want else f"rank verdict {got} != expected {want}"


def _check_generate(doc: dict, exp: dict) -> str | None:
    got = (doc["generators"], doc["closure_size"], doc["theorem_hq"])
    want = (exp["generators"], exp["size"], True)
    return None if got == want else f"generate verdict {got} != expected {want}"


_JSON_CHECKS = {
    "invariants": _check_invariants,
    "enumerate": _check_enumerate,
    "rank": _check_rank,
    "generate": _check_generate,
}


@dataclass(frozen=True)
class Invocation:
    """One child process: a CLI command (``kind == "cli"``) or the library
    workload in ``child.py generate`` (``kind == "generate"``)."""

    label: str
    kind: str
    argv: tuple[str, ...]
    expected: dict = field(compare=False)

    @property
    def command(self) -> str:
        return "generate" if self.kind == "generate" else self.argv[0]

    def digest(self, stdout: str) -> str:
        return hashlib.sha256(data_fields(self.command, stdout).encode()).hexdigest()

    def check(self, stdout: str) -> str | None:
        """None when the verdicts and the data digest are as expected,
        else a description of the first mismatch."""
        try:
            if self.command == "green":
                if stdout != self.expected["text"]:
                    return f"output {stdout!r} != expected {self.expected['text']!r}"
            else:
                problem = _JSON_CHECKS[self.command](json.loads(stdout), self.expected)
                if problem:
                    return problem
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        want = self.expected.get("digest", DIGESTS.get(self.label))
        got = self.digest(stdout)
        if want != got:
            return f"data digest {got} != recorded {want}"
        return None


def _invariants(n: int) -> Invocation:
    rows = [("|SS'|", SMALL_SCHROEDER[n]), ("idempotents", idempotents(n))]
    rows += [(f"Rstar-classes p={p}", rstar_classes(n, p)) for p in range(n)]
    rows += [(f"Lstar-classes p={p}", comb(n, p)) for p in range(1, n)]
    rows.append(("class-count identity", idempotents(n)))
    return Invocation(f"invariants-n{n}", "cli", ("invariants", "--n", str(n), "--format", "json"),
                      {"n": n, "rows": rows})


def _enumerate(n: int) -> Invocation:
    return Invocation(f"enumerate-n{n}", "cli",
                      ("enumerate", "--family", "ss-prime", "--n", str(n), "--format", "json"),
                      {"n": n, "size": SMALL_SCHROEDER[n]})


def _green(relation: str, n: int) -> Invocation:
    # R-trivial, and H = R: every class is a singleton
    classes = SMALL_SCHROEDER[n] if relation in ("R", "H") else L_CLASSES[n]
    suffix = " (all singletons)" if classes == SMALL_SCHROEDER[n] else ""
    return Invocation(f"green-{relation}-n{n}", "cli", ("green", "--relation", relation, "--n", str(n)),
                      {"text": f"classes: {classes}{suffix}\n"})


def _lstar_definitional(n: int) -> Invocation:
    # L*-classes are the images: C(n,p) of each height p >= 1, plus the empty map
    return Invocation(f"green-Lstar-def-n{n}", "cli",
                      ("green", "--relation", "Lstar", "--mode", "definitional", "--n", str(n)),
                      {"text": f"agreement with characterized: True\nclasses: {2 ** n - 1}\n"})


def _rank(target: str, n: int, p: int | None = None) -> Invocation:
    argv = ("rank", "--n", str(n), "--format", "json")
    if target == "ss-prime":
        return Invocation(f"rank-n{n}", "cli", argv,
                          {"target": target, "n": n, "p": None, "rank": 3 * n - 4})
    return Invocation(f"rank-{target}-n{n}-p{p}", "cli", ("rank", "--target", target, "--p", str(p), *argv[1:]),
                      {"target": target, "n": n, "p": p, "rank": quotient_rank(n, p)})


def _generate(n: int, hq_n: int) -> Invocation:
    return Invocation(f"generate-n{n}", "generate", (str(n), str(hq_n)),
                      {"generators": 3 * n - 4, "size": SMALL_SCHROEDER[n]})


def workloads(tiny: bool = False) -> dict[str, list[Invocation]]:
    """The four workloads; ``tiny`` gives the same shapes at n <= 4."""
    if tiny:
        return {
            "census": [_invariants(4), _enumerate(4)],
            "cayley": [*(_green(r, 4) for r in "RLHDJ"), _lstar_definitional(4)],
            "rank": [_rank("quotient", 4, 2), _rank("quotient", 4, 3), _rank("ideal", 4, 2), _rank("ss-prime", 4)],
            "generate": [_generate(4, 3)],
        }
    return {
        "census": [_invariants(8), _enumerate(9)],
        "cayley": [*(_green(r, 6) for r in "RLHDJ"), _lstar_definitional(5)],
        "rank": [_rank("quotient", 7, 3), _rank("quotient", 7, 4), _rank("ideal", 7, 2), _rank("ss-prime", 6)],
        "generate": [_generate(8, 6)],
    }
