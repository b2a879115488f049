import csv
import hashlib
import importlib
import io
import json
from pathlib import Path

import pytest

import schroeder.cli
import schroeder.families
import schroeder.pmap
from schroeder import ZERO, EqPartition, Family, PartialMap
from schroeder.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "ss-prime", "--n", "2")
    assert code == 0
    assert out == "-\n2:1\n2:2\n"


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--family", "requisite", "--n", "4", "--p", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["p"] == 2
    assert len(doc["elements"]) == 3  # C(3,1)


def test_enumerate_csv(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--family", "ss-prime", "--n", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["element", "height"]
    assert len(rows) == 12  # header + 11 elements


def test_enumerate_n1_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "ss-prime", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


def enumerate_reference(kind, n, p, fmt):
    """What ``enumerate`` printed when it held the family: print per map,
    one json.dumps of the document, or csv rows of code and height."""
    elements = schroeder.families.enumerate_family(schroeder.families.FamilySpec(kind, n, p))
    out = io.StringIO()
    if fmt == "text":
        for a in elements:
            print(a.encode(), file=out)
    elif fmt == "json":
        print(json.dumps({"family": kind.value, "n": n, "p": p,
                          "elements": [a.encode() for a in elements]}), file=out)
    else:
        writer = csv.writer(out)
        writer.writerow(["element", "height"])
        for a in elements:
            writer.writerow([a.encode(), a.height()])
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enumerate_streams_the_held_listing(capsys, fmt):
    """Every family at n <= 6, each height where one is taken: the streamed
    output is byte for byte the listing printed whole."""
    for kind, n, p in _enumerate_cases():
        argv = ["enumerate", "--family", kind.value, "--n", str(n), "--format", fmt]
        code, out, _ = run(capsys, *argv, *(["--p", str(p)] if p is not None else []))
        assert code == 0
        assert out == enumerate_reference(kind, n, p, fmt), (kind, n, p)


def _enumerate_cases():
    """Every family at n <= 6, each height where one is taken."""
    for n in range(2, 7):
        for kind in Family:
            heights = [None] if kind not in schroeder.families._NEEDS_P else []
            if kind in schroeder.families._NEEDS_P or kind is Family.IDEMPOTENTS:
                heights += range(n)
            for p in heights:
                yield kind, n, p


def test_enumerate_csv_builds_no_map(capsys, monkeypatch):
    """The csv height is counted off the scanned byte vector: the output
    equals the listing printed whole, with no map built.  The requisites
    are left out: ``family_blocks`` makes them as maps to sort them."""
    cases = [(case, enumerate_reference(*case, "csv"))
             for case in _enumerate_cases() if case[0] is not Family.REQUISITE]

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a PartialMap")

    monkeypatch.setattr(PartialMap, "__init__", refuse)
    monkeypatch.setattr(schroeder.pmap, "_wrap", refuse)
    monkeypatch.setattr(schroeder.families, "_wrap", refuse)
    for (kind, n, p), want in cases:
        argv = ["enumerate", "--family", kind.value, "--n", str(n), "--format", "csv"]
        code, out, _ = run(capsys, *argv, *(["--p", str(p)] if p is not None else []))
        assert code == 0
        assert out == want, (kind, n, p)


def test_enumerate_holds_no_family(capsys, monkeypatch):
    # enumerate writes the blocks of family_blocks as they come, and asks
    # for vectors only in csv, the one format that reads them
    walked = []
    real_blocks = schroeder.families.family_blocks

    def blocks(spec, vectors):
        walked.append((spec.kind, vectors))
        return real_blocks(spec, vectors)

    def refuse(spec):
        raise AssertionError("enumerate listed the family")

    monkeypatch.setattr(schroeder.cli, "family_blocks", blocks)
    monkeypatch.setattr(schroeder.families, "enumerate_family", refuse)
    for fmt in ("text", "json", "csv"):
        code, out, _ = run(capsys, "enumerate", "--family", "ss-prime", "--n", "7",
                           "--format", fmt)
        assert code == 0 and out
    assert walked == [(Family.SS_PRIME, False), (Family.SS_PRIME, False), (Family.SS_PRIME, True)]


ENUMERATE_GOLDEN = (Path(__file__).parent / "golden" / "enumerate_sha256.jsonl").read_text().splitlines()


@pytest.mark.parametrize(
    "line", ENUMERATE_GOLDEN,
    ids=[f"{d['family']}-n{d['n']}-p{d['p']}-{d['format']}" for d in map(json.loads, ENUMERATE_GOLDEN)],
)
def test_enumerate_matches_golden(capsys, line):
    """``enumerate`` of every family in every format at n = 2, 5 and 9, at
    heights p = 1 and n-2 where the family needs one, prints exactly the
    output whose SHA-256 digest was recorded: block joins, separators and
    the empty blocks the ``ss`` and ``idempotents`` filters leave."""
    doc = json.loads(line)
    argv = ["enumerate", "--family", doc["family"], "--n", str(doc["n"]), "--format", doc["format"]]
    code, out, _ = run(capsys, *argv, *(["--p", str(doc["p"])] if doc["p"] is not None else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == doc["sha256"]


def test_enumerate_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "ss-prime", "--n", "14")
    assert code == 3
    assert "--max-n" in err


@pytest.mark.parametrize("family", ["ss-prime", "ss", "ls"])
def test_enumerate_height_on_a_family_without_one_is_usage_error(capsys, family):
    code, out, err = run(capsys, "enumerate", "--family", family, "--n", "4", "--p", "2")
    assert code == 2
    assert out == ""
    assert "takes no height" in err


def test_enumerate_bad_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "enumerate", "--family", "nope", "--n", "3")
    assert exc.value.code == 2


def test_invariants_pass(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_name = {r["name"]: r for r in doc["rows"]}
    assert by_name["|SS'|"]["formula_value"] == 45
    assert by_name["idempotents"]["oracle_value"] == 14
    assert by_name["Rstar-classes p=2"]["formula_value"] == 5
    assert all(r["status"] == "PASS" for r in doc["rows"])


def test_invariants_enumerates_once(capsys, monkeypatch):
    # the census and count_idempotents read prefix and suffix keys: neither
    # walks SS'(n) through family_blocks nor lists a family
    walked, listed = [], []
    real_blocks = schroeder.families.family_blocks
    real_enumerate = schroeder.families.enumerate_family

    def iterating(spec):
        walked.append(spec.kind)
        return real_blocks(spec)

    def listing(spec):
        listed.append(spec.kind)
        return real_enumerate(spec)

    monkeypatch.setattr(schroeder.cli, "family_blocks", iterating)
    monkeypatch.setattr(schroeder.families, "enumerate_family", listing)
    code, _, _ = run(capsys, "invariants", "--n", "5")
    assert code == 0
    assert walked == []
    assert listed == []


def test_invariants_builds_no_map(capsys, monkeypatch):
    # the census and the idempotent count read the scan's byte vectors
    def refuse(*args, **kwargs):
        raise AssertionError("invariants built a PartialMap")

    monkeypatch.setattr(PartialMap, "__init__", refuse)
    monkeypatch.setattr(schroeder.pmap, "_wrap", refuse)
    monkeypatch.setattr(schroeder.families, "_wrap", refuse)
    with pytest.raises(AssertionError):
        PartialMap.from_vector(bytes(3))
    code, out, _ = run(capsys, "invariants", "--n", "6")
    assert code == 0
    assert out.count("PASS") == 14


def test_invariants_csv_matches_json(capsys):
    _, text, _ = run(capsys, "invariants", "--n", "4", "--format", "csv")
    _, doc, _ = run(capsys, "invariants", "--n", "4", "--format", "json")
    header, *rows = csv.reader(io.StringIO(text))
    assert header[-1] == "runtime_ms"
    assert [row[:-1] for row in rows] == [
        [str(r[k]) for k in header[:-1]] for r in json.loads(doc)["rows"]
    ]


def test_package_all_is_the_contract():
    assert sorted(schroeder.__all__) == sorted([
        "Family", "FamilySpec", "binom", "count_idempotents", "count_lstar_classes",
        "count_rstar_classes", "enumerate_family", "formula_idempotents",
        "formula_rstar_classes", "schroeder_small", "verify_identity_corollary",
        "ZERO", "AbundanceReport", "EqPartition", "NotClosedError",
        "SemigroupTable", "Zero", "abundance_report", "build_table",
        "green", "starred_characterized", "starred_definitional",
        "PartialMap", "alpha_i", "alpha_ik", "compose", "eps_1k", "is_requisite",
        "left_identity", "member_ss_prime", "parse", "pseudo_inverse", "requisite",
        "requisite_from_image", "shift_embed",
        "RankResult", "closure", "closure_indices", "essential_elements",
        "factor_via_requisite", "formula_rank_ideal", "formula_rank_quotient",
        "generating_set_G", "lift_requisite", "rank_layered", "rank_oracle",
        "ss_prime_minimal_generators", "verify_ss1_witnesses", "verify_theorem_hq",
    ])
    for name in schroeder.__all__:
        assert getattr(schroeder, name) is not None
    namespace = {}
    exec("from schroeder import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(schroeder.__all__)


def test_green_classical(capsys):
    code, out, _ = run(capsys, "green", "--n", "3", "--relation", "R")
    assert code == 0
    assert "classes: 11 (all singletons)" in out


def test_green_classical_n7(capsys, ss):
    # L-classes are the maps sharing the image and the block minima
    keys = {(a.image(), tuple(map(a.vector.index, a.image()))) for a in ss(7)}
    code, out, _ = run(capsys, "green", "--n", "7", "--relation", "L")
    assert code == 0
    assert out == f"classes: {len(keys)}\n"


def test_green_dstar(capsys):
    code, out, _ = run(capsys, "green", "--n", "4", "--relation", "Dstar")
    assert code == 0
    assert "classes: 4" in out


def test_green_definitional_agreement(capsys):
    code, out, _ = run(
        capsys, "green", "--n", "4", "--relation", "Lstar", "--mode", "definitional"
    )
    assert code == 0
    assert "agreement with characterized: True" in out


def test_green_definitional_disagreement_fails(capsys, monkeypatch):
    # keyed by image alone, the characterized L* of RSS'_3(2) would split
    # the class of the maps whose image holds 1, which the definition merges
    def by_image(table, which):
        return EqPartition.from_keys([a if a is ZERO else a.image() for a in table.elements])

    # cmd_green imports its layer when it runs, so the patch goes on green
    monkeypatch.setattr(importlib.import_module("schroeder.green"), "starred_characterized", by_image)
    code, out, _ = run(
        capsys, "green", "--target", "quotient", "--n", "3", "--p", "2",
        "--relation", "Lstar", "--mode", "definitional",
    )
    assert code == 1
    assert out == "agreement with characterized: False\nclasses: 3\n"


def test_green_definitional_guard(capsys):
    # the definitional mode takes 11 s and 254 MB at n = 7, so n = 8 stops
    code, _, err = run(
        capsys, "green", "--n", "8", "--relation", "Lstar", "--mode", "definitional"
    )
    assert code == 3
    assert "characterized" in err


def test_green_has_no_format_flag(capsys):
    # green prints text (and --verbose JSON) only, so --format is refused
    with pytest.raises(SystemExit) as exc:
        main(["green", "--relation", "R", "--n", "3", "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_green_characterized_starred_guard(capsys):
    # the characterized mode enumerates SS'(n): at n = 11 the L* classes
    # take 58 s and 830 MB
    code, out, err = run(capsys, "green", "--relation", "Lstar", "--n", "11")
    assert code == 3
    assert out == ""
    assert "characterized mode guarded at n=10" in err


@pytest.mark.parametrize("target", ["ss-prime", "ideal", "quotient"])
def test_green_classical_guard(capsys, target):
    # ideals and quotients seed their Cayley graphs with G(n,p), so their
    # default stops lower
    if target == "ss-prime":
        n, height = schroeder.cli.GREEN_GUARD, ()
    else:
        n, height = schroeder.cli.GREEN_IDEAL_GUARD, ("--p", "3")
    code, out, err = run(capsys, "green", "--target", target, *height,
                         "--relation", "L", "--n", str(n + 1))
    assert code == 3
    assert out == ""
    assert f"classical relations guarded at n={n}: their Cayley graphs" in err


def test_green_definitional_guard_override(capsys):
    code, out, _ = run(
        capsys, "green", "--n", "6", "--relation", "Rstar", "--mode", "definitional",
        "--max-n", "6",
    )
    assert code == 0
    assert "agreement with characterized: True" in out


@pytest.mark.parametrize("mode, out", [
    ("characterized", "classes: 3\n"),
    ("definitional", "agreement with characterized: True\nclasses: 3\n"),
])
def test_green_quotient_lstar(capsys, mode, out):
    code, got, _ = run(capsys, "green", "--target", "quotient", "--n", "3", "--p", "2",
                       "--relation", "Lstar", "--mode", mode)
    assert code == 0
    assert got == out


def test_green_quotient_needs_p(capsys):
    code, _, err = run(capsys, "green", "--n", "4", "--relation", "Lstar",
                       "--target", "quotient")
    assert code == 2
    assert "--p" in err


@pytest.mark.parametrize("argv", [
    ("rank", "--target", "ideal", "--n", "4", "--p", "9"),
    ("rank", "--target", "ideal", "--n", "4", "--p", "0"),
    ("rank", "--target", "quotient", "--n", "4", "--p", "4"),
    ("green", "--target", "quotient", "--n", "4", "--p", "7", "--relation", "R"),
])
def test_height_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "1 <= p <= n-1" in err


@pytest.mark.parametrize("argv", [
    ("rank", "--n", "5", "--p", "2"),
    ("rank", "--n", "5", "--p", "2", "--format", "json"),
    ("green", "--relation", "L", "--n", "5", "--p", "3"),
])
def test_height_on_ss_prime_is_usage_error(capsys, argv):
    """SS'(n) takes no height: --p was silently ignored there, so rank
    printed SS'(5)'s rank under "p": 2 and green its classes."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "takes no height p (--p)" in err and f"p={argv[argv.index('--p') + 1]}" in err


def test_green_verbose_classes(capsys):
    code, out, _ = run(capsys, "green", "--n", "2", "--relation", "Lstar",
                       "--verbose")
    assert code == 0
    doc = json.loads(out.splitlines()[-1])
    assert doc["relation"] == "Lstar"
    assert sorted(map(sorted, doc["classes"])) == [["-"], ["2:1"], ["2:2"]]


def test_rank_semigroup(capsys):
    code, out, _ = run(capsys, "rank", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == doc["formula"] == 8
    assert doc["certified"] is True
    assert doc["status"] == "PASS"


def test_rank_quotient(capsys):
    code, out, _ = run(capsys, "rank", "--target", "quotient", "--n", "5",
                       "--p", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 21 and doc["status"] == "PASS"


@pytest.mark.parametrize("n", [1, 0, -2])
def test_rank_below_n2_is_usage_error(capsys, n):
    """3n-4 is the rank of SS'(n) for n >= 2 only: SS'(1) is the empty map
    alone, of rank 1, so n=1 is a usage error, not a failed verification."""
    code, out, err = run(capsys, "rank", "--n", str(n))
    assert code == 2
    assert out == ""
    assert f"n={n}" in err and "n >= 2" in err


@pytest.mark.parametrize("n", [0, -2])
def test_green_without_points_is_usage_error(capsys, n):
    code, out, err = run(capsys, "green", "--relation", "L", "--n", str(n))
    assert code == 2
    assert out == ""
    assert f"n={n}" in err


def test_green_n1_is_the_trivial_semigroup(capsys):
    code, out, _ = run(capsys, "green", "--relation", "L", "--n", "1")
    assert code == 0
    assert out == "classes: 1 (all singletons)\n"


@pytest.mark.parametrize("command", [
    ["rank", "--n", "4"],
    ["green", "--relation", "L", "--n", "3"],
    ["enumerate", "--family", "ss-prime", "--n", "3"],
    ["invariants", "--n", "3"],
])
@pytest.mark.parametrize("max_n", ["-1", "0"])
def test_max_n_below_1_is_usage_error(capsys, command, max_n):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--max-n", max_n])
    assert exc.value.code == 2
    assert f"--max-n: must be at least 1, got {max_n}" in capsys.readouterr().err


def test_rank_guard(capsys):
    code, _, err = run(capsys, "rank", "--n", "12")
    assert code == 3
    assert "--max-n" in err


def test_rank_guard_table_size(capsys):
    # SS'(12) has 13,648,869 maps, about 5 times as many as SS'(11), whose
    # closure takes most of the 11-17 s and 325 MB of rank --n 11
    code, out, err = run(capsys, "rank", "--n", "12")
    assert code == 3
    assert out == ""
    assert "13,648,869" in err and "--max-n" in err


def test_rank_ideal_guard(capsys):
    # ideals and quotients run the oracle on the quotient at height p, which
    # takes up to 24 s and 640 MB at n = 10, so both stop at n = 11; the whole
    # SS'(9) as an ideal runs within the guard
    for target in ("ideal", "quotient"):
        code, out, err = run(capsys, "rank", "--target", target, "--n", "11", "--p", "4")
        assert code == 3
        assert out == ""
        assert "guarded at n=10" in err and "2,646,723" in err and "--max-n" in err
    code, out, _ = run(capsys, "rank", "--target", "ideal", "--n", "9", "--p", "8")
    assert code == 0
    assert out.startswith("rank: 23 (formula 23) PASS")


def test_rank_quotient_builds_only_its_height(capsys, monkeypatch):
    """The quotient at height 2 of SS'(6) is made from the 363 vectors of
    height 2 that one scan yields, and from no other vector of SS'(6)."""
    green_module = importlib.import_module("schroeder.green")
    height_blocks = green_module._height_blocks
    scanned = []

    def counted(n, lo, hi):
        for codes, vecs in height_blocks(n, lo, hi):
            scanned.extend(vecs)
            yield codes, vecs

    monkeypatch.setattr(green_module, "_height_blocks", counted)
    code, _, _ = run(capsys, "rank", "--target", "quotient", "--n", "6", "--p", "2")
    assert code == 0
    assert len(scanned) == 363
    assert all(len(set(v)) - 1 == 2 for v in scanned)


@pytest.mark.long
def test_rank_n8(capsys):
    code, out, _ = run(capsys, "rank", "--n", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == doc["formula"] == 20
    assert doc["certified"] is True
    assert doc["status"] == "PASS"


def test_rank_of_non_closed_set_is_verification_failure(capsys, monkeypatch):
    """A table built without its closure check fails when a product is
    missing: exit 1, a verification failure, not exit 2, a usage error.
    The height-3 slice of SS'(4) does not generate SS'(4), so ``rank``
    steps down to the layer table of heights 2 and 3, which here misses
    {2:1,3:2,4:4} squared, {3:1,4:4}."""
    green_module = importlib.import_module("schroeder.green")
    height_blocks = green_module._height_blocks
    square = schroeder.pmap.parse("3:1,4:4", 4).vector

    def without_a_square(n, lo, hi):
        for codes, vecs in height_blocks(n, lo, hi):
            yield codes, [v for v in vecs if v != square]

    monkeypatch.setattr(green_module, "_height_blocks", without_a_square)
    code, out, err = run(capsys, "rank", "--n", "4")
    assert code == 1
    assert out == ""
    assert "not closed under composition" in err


@pytest.mark.parametrize("target, p", [("quotient", 3), ("ideal", 3)])
def test_rank_json_wraps_only_its_generating_set(capsys, monkeypatch, target, p):
    """``rank`` wraps in a map only the generators it prints (and closes),
    not the table's elements."""
    green_module = importlib.import_module("schroeder.green")
    wrap, wrapped = green_module._wrap, []

    def recorded(v):
        wrapped.append(v)
        return wrap(v)

    monkeypatch.setattr(green_module, "_wrap", recorded)
    code, out, _ = run(capsys, "rank", "--target", target, "--n", "6", "--p", str(p),
                       "--format", "json")
    assert code == 0
    gens = {schroeder.pmap.parse(a, 6).vector for a in json.loads(out)["generating_set"]}
    assert set(wrapped) == gens


def test_rank_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "rank", "--n", "4", "--format", "json")
    _, out2, _ = run(capsys, "rank", "--n", "4", "--format", "json")
    assert out1 == out2


RANK_GOLDEN = (Path(__file__).parent / "golden" / "rank_json_n5.jsonl").read_text().splitlines()


@pytest.mark.parametrize(
    "line", RANK_GOLDEN,
    ids=[f"{d['target']}-p{d['p']}" for d in map(json.loads, RANK_GOLDEN)],
)
def test_rank_json_matches_golden(capsys, line):
    """``rank --format json`` on every quotient and ideal of SS'(5) prints
    exactly the recorded line, generating set and notes included."""
    doc = json.loads(line)
    code, out, _ = run(capsys, "rank", "--target", doc["target"], "--n", "5",
                       "--p", str(doc["p"]), "--format", "json")
    assert code == 0
    assert out == line + "\n"


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--n-max", "4")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--n-max", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert all(r["status"] in ("PASS", "SKIPPED") for r in doc["rows"])


def test_verify_all_runs_green_structure_past_rank_limit(capsys):
    code, out, _ = run(capsys, "verify-all", "--n-max", "7")
    assert code == 0
    statuses = dict(line.rsplit(None, 1) for line in out.splitlines()[:-1])
    assert statuses["green structure n=7"] == "PASS"
    for row in ("quotient ranks", "ideal ranks", "semigroup rank",
                "idempotent+requisite generation"):
        assert statuses[f"{row} n=7"] == "PASS"


def test_verify_all_checks_abundance_of_ideals_and_quotients(capsys):
    code, out, _ = run(capsys, "verify-all", "--n-max", "5")
    assert code == 0
    statuses = dict(line.rsplit(None, 1) for line in out.splitlines()[:-1])
    for n in range(2, 6):
        assert statuses[f"ideal abundance n={n}"] == "PASS"
        assert statuses[f"quotient abundance n={n}"] == "PASS"


@pytest.mark.parametrize("command, n", [
    (("enumerate", "--family", "ss-prime"), 14),
    (("invariants",), 20),
])
def test_enumeration_guard_stops_past_the_measured_frontier(capsys, command, n):
    # enumerate writes the scan's blocks of codes and takes 12-14 s at
    # n = 13; invariants counts from prefix and suffix keys and takes
    # 25-30 s at n = 19; the n below each stays allowed
    code, out, err = run(capsys, *command, "--n", str(n))
    assert code == 3
    assert out == ""
    assert "--max-n" in err
