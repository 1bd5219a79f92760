import json
import multiprocessing
import os
import random
import re
import select
import subprocess
import sys

import pytest

import pivotlex
from pivotlex import cli, pipeline
from pivotlex.cli import main
from pivotlex.pipeline import induce_on_transgraphs


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ab.tsv").write_text(
        "a1\tb1\na1\tb2\na2\tb3\n", encoding="utf-8"
    )
    (tmp_path / "cb.tsv").write_text(
        "c1\tb1\nc1\tb2\nc2\tb3\nc3\tb3\n", encoding="utf-8"
    )
    (tmp_path / "bc.tsv").write_text(
        "b1\tc1\nb2\tc1\nb3\tc2\nb3\tc3\n", encoding="utf-8"
    )
    (tmp_path / "gold.tsv").write_text("a1\tc1\na2\tc2\n", encoding="utf-8")
    return tmp_path


FIELDS_2_GOT_1 = "line 2: expected 2 tab-separated fields, got 1"


def dict_flags(d, cb="cb.tsv"):
    return [
        "--dict-ab", str(d / "ab.tsv"),
        "--dict-cb", str(d / cb),
        "--lang-a", "aaa", "--lang-b", "ppp", "--lang-c", "ccc",
    ]


class TestInduce:
    def test_writes_sorted_result(self, workdir):
        out = workdir / "out.tsv"
        code = main(
            ["induce", *dict_flags(workdir), "--method", "1:C:H1", "-o", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == sorted(lines)
        assert all(len(l.split("\t")) == 4 for l in lines)

    def test_inverted_cb_equivalent(self, workdir):
        out1, out2 = workdir / "o1.tsv", workdir / "o2.tsv"
        assert main(["induce", *dict_flags(workdir), "--method", "1:M:H1", "-o", str(out1)]) == 0
        assert (
            main(
                [
                    "induce",
                    *dict_flags(workdir, cb="bc.tsv"),
                    "--invert-cb",
                    "--method",
                    "1:M:H1",
                    "-o",
                    str(out2),
                ]
            )
            == 0
        )
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_written(self, workdir):
        out, rep = workdir / "out.tsv", workdir / "rep.txt"
        main(
            [
                "induce", *dict_flags(workdir),
                "--method", "1:S:H14",
                "-o", str(out), "--report", str(rep),
            ]
        )
        assert "transgraph 0" in rep.read_text(encoding="utf-8")

    def test_jobs_bit_identical(self, workdir):
        outs = []
        for jobs in ("1", "8"):
            path = workdir / f"out{jobs}.tsv"
            code = main(
                [
                    "induce", *dict_flags(workdir),
                    "--method", "2:S:H14",
                    "--jobs", jobs,
                    "-o", str(path),
                ]
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("start_method", multiprocessing.get_all_start_methods())
    def test_jobs_bit_identical_under_every_start_method(self, tmp_path, start_method):
        # children are forked directly, whatever start method is set; a
        # fresh interpreter sets it before anything forks
        rng = random.Random(5)
        ab, cb = [], []
        for g in range(12):
            ab += [f"a{g}_0\tb{g}_0\n", f"a{g}_1\tb{g}_{rng.randrange(3)}\n"]
            cb += [f"c{g}_0\tb{g}_0\n", f"c{g}_1\tb{g}_{rng.randrange(3)}\n"]
            ab += [f"a{g}_{i}\tb{g}_{j}\n" for i in range(3) for j in range(3) if rng.random() < 0.4]
            cb += [f"c{g}_{i}\tb{g}_{j}\n" for i in range(3) for j in range(3) if rng.random() < 0.4]
        (tmp_path / "ab.tsv").write_text("".join(sorted(set(ab))), encoding="utf-8")
        (tmp_path / "cb.tsv").write_text("".join(sorted(set(cb))), encoding="utf-8")

        def induce(jobs):
            return [
                "induce", *dict_flags(tmp_path),
                "--method", "2:S:H14",
                "--jobs", jobs,
                "-o", str(tmp_path / f"out{jobs}.tsv"),
                "--report", str(tmp_path / f"report{jobs}.txt"),
            ]

        code = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "from pivotlex.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        src = os.path.dirname(os.path.dirname(pivotlex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        pooled = subprocess.run(
            [sys.executable, "-c", code, start_method, *induce("2")],
            env=env, capture_output=True, text=True,
        )
        assert (pooled.returncode, pooled.stderr) == (main(induce("1")), "")
        for name in ("out{}.tsv", "report{}.txt"):
            assert (tmp_path / name.format(2)).read_bytes() == (tmp_path / name.format(1)).read_bytes()
        # a run forks only with more than one graph
        assert (tmp_path / "report1.txt").read_text(encoding="utf-8").count("transgraph ") > 2

    def test_forked_run_imports_no_pool(self, workdir):
        code = (
            "import sys\n"
            "from pivotlex.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
            "sys.exit(status)\n"
        )
        report = workdir / "report.txt"
        argv = [
            "induce", *dict_flags(workdir),
            "--method", "2:S:H14",
            "--jobs", "2",
            "-o", str(workdir / "out.tsv"),
            "--report", str(report),
        ]
        src = os.path.dirname(os.path.dirname(pivotlex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
        # two transgraphs, so the run forked a child
        assert report.read_text(encoding="utf-8").count("transgraph ") == 2

    def test_killed_worker_is_one_error_line(self, workdir, capsys, monkeypatch):
        caller = os.getpid()
        started_r, started_w = os.pipe()
        induce_one = pipeline._induce_one

        def dying(tg, descriptor, hp):
            if os.getpid() != caller:
                os.write(started_w, b".")
                os._exit(1)
            # so that the child takes the other graph before this process does
            select.select([started_r], [], [], 10)
            return induce_one(tg, descriptor, hp)

        monkeypatch.setattr(pipeline, "_induce_one", dying)
        try:
            code = main(
                [
                    "induce", *dict_flags(workdir),
                    "--method", "2:S:H14",
                    "--jobs", "2",
                    "-o", str(workdir / "out.tsv"),
                ]
            )
        finally:
            os.close(started_r)
            os.close(started_w)
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"error: worker process \d+ exited without a result\n", err)
        with pytest.raises(ChildProcessError):  # no child is left unreaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_default_jobs_is_usable_cpus(self, workdir, monkeypatch, affinity):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        asked = []

        def induce(tset, method, hp, jobs):
            asked.append(jobs)
            return induce_on_transgraphs(tset, method, hp, jobs=1)

        monkeypatch.setattr(cli, "induce_on_transgraphs", induce)
        out = workdir / "out.tsv"
        assert main(["induce", *dict_flags(workdir), "--method", "1:C:H1", "-o", str(out)]) == 0
        assert asked == [3 if affinity else 6]

    def test_bad_method_is_usage_error(self, workdir):
        code = main(
            ["induce", *dict_flags(workdir), "--method", "0:C:H1", "-o", "x.tsv"]
        )
        assert code == 1

    def test_bad_threshold_is_usage_error(self, workdir):
        code = main(
            [
                "induce", *dict_flags(workdir),
                "--method", "1:C:H1",
                "--synonym-threshold", "1.5",
                "-o", "x.tsv",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("method", ["1:C:H1", "1:M:H1"])
    def test_synonym_threshold_without_method_s_warns(self, workdir, capsys, method):
        outs = []
        for extra in ([], ["--synonym-threshold", "0.5"]):
            path = workdir / f"out{len(extra)}.tsv"
            argv = ["induce", *dict_flags(workdir), "--method", method, *extra, "-o", str(path)]
            assert main(argv) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert capsys.readouterr().err == (
            "warning: --synonym-threshold has no effect without method S\n"
        )

    def test_synonym_threshold_with_method_s_is_silent(self, workdir, capsys):
        out = workdir / "out.tsv"
        argv = ["induce", *dict_flags(workdir), "--method", "1:S:H1", "--synonym-threshold", "0.5"]
        assert main([*argv, "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_is_usage_error(self, workdir, capsys, jobs):
        out = workdir / "out.tsv"
        code = main(
            [
                "induce", *dict_flags(workdir),
                "--method", "1:C:H1",
                "--jobs", jobs,
                "-o", str(out),
            ]
        )
        assert code == 1
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--cognate-threshold", "--synonym-threshold"])
    def test_nan_threshold_is_usage_error(self, workdir, capsys, flag):
        out = workdir / "out.tsv"
        code = main(
            [
                "induce", *dict_flags(workdir),
                "--method", "1:S:H14",
                flag, "nan",
                "-o", str(out),
            ]
        )
        assert code == 1
        assert "threshold must be" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_is_stripped_from_dictionaries(self, workdir):
        (workdir / "ab.tsv").write_text("\ufeffa1\tb1\na1\tb2\na2\tb3\n", encoding="utf-8")
        (workdir / "cb.tsv").write_text("\ufeffc1\tb1\nc1\tb2\nc2\tb3\nc3\tb3\n", encoding="utf-8")
        out = workdir / "out.tsv"
        code = main(
            ["induce", *dict_flags(workdir), "--method", "1:C:H1", "-o", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert "a1\tc1\tcognate\t0.000000" in lines
        assert "\ufeff" not in "".join(lines)

    def test_missing_file_is_data_error(self, workdir):
        code = main(
            [
                "induce",
                "--dict-ab", str(workdir / "absent.tsv"),
                "--dict-cb", str(workdir / "cb.tsv"),
                "--method", "1:C:H1",
                "-o", str(workdir / "out.tsv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "name, content, message",
        [
            pytest.param("ab.tsv", b"a1\tb1\na2\n", FIELDS_2_GOT_1, id="dict-ab"),
            pytest.param("cb.tsv", b"c1\tb1\nc2\n", FIELDS_2_GOT_1, id="dict-cb"),
            pytest.param("bc.tsv", b"b1\tc1\nb2\n", FIELDS_2_GOT_1, id="dict-cb inverted"),
            pytest.param("ab.tsv", b"# a comment\n\n", "dictionary has no entries", id="empty"),
            pytest.param(
                "cb.tsv",
                b"c1\tb1\nc\xff\tb2\n",
                "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte",
                id="not utf-8",
            ),
        ],
    )
    def test_bad_dictionary_is_data_error_naming_the_file(
        self, workdir, capsys, name, content, message
    ):
        (workdir / name).write_bytes(content)
        invert = ["--invert-cb"] if name == "bc.tsv" else []
        code = main(
            [
                "induce", *dict_flags(workdir, cb="bc.tsv" if invert else "cb.tsv"), *invert,
                "--method", "1:C:H1", "-o", str(workdir / "out.tsv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {workdir / name}: {message}\n"
        assert not (workdir / "out.tsv").exists()

    def test_missing_required_flag_is_usage_error(self):
        assert main(["induce", "--method", "1:C:H1"]) == 1


class TestBaselineCommand:
    def test_cp_within(self, workdir, capsys):
        out = workdir / "cp.tsv"
        assert main(["baseline", "cp", *dict_flags(workdir), "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert "a1\tc1" in lines and "a2\tc2" in lines
        assert "a1\tc2" not in lines  # different component

    def test_ic(self, workdir):
        out = workdir / "ic.tsv"
        assert main(
            ["baseline", "ic", *dict_flags(workdir), "--delta", "2", "-o", str(out)]
        ) == 0
        assert out.read_text(encoding="utf-8") == "a1\tc1\n"


class TestEval:
    def test_scores_result_file(self, workdir, capsys):
        out = workdir / "out.tsv"
        main(["induce", *dict_flags(workdir), "--method", "1:C:H1", "-o", str(out)])
        code = main(
            [
                "eval",
                "--result", str(out),
                "--gold", str(workdir / "gold.tsv"),
                "--lang-a", "aaa", "--lang-c", "ccc",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "precision\t" in text and "f_score\t" in text


    @pytest.mark.parametrize("marked", ["res.tsv", "gold.tsv"])
    def test_byte_order_mark_is_not_part_of_a_word(self, workdir, capsys, marked):
        (workdir / "res.tsv").write_text(
            "a1\tc1\tcognate\t0.000000\na2\tc2\tcognate\t0.000000\n", encoding="utf-8"
        )
        path = workdir / marked
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        code = main(
            [
                "eval",
                "--result", str(workdir / "res.tsv"),
                "--gold", str(workdir / "gold.tsv"),
                "--lang-a", "aaa", "--lang-c", "ccc",
            ]
        )
        assert code == 0
        assert "precision\t1.000000\nrecall\t1.000000\n" in capsys.readouterr().out

    @pytest.mark.parametrize("spoiled", ["res.tsv", "gold.tsv"])
    def test_malformed_file_is_data_error_naming_it(self, workdir, capsys, spoiled):
        (workdir / "res.tsv").write_text("a1\tc1\tcognate\t0.000000\n", encoding="utf-8")
        path = workdir / spoiled
        with open(path, "a", encoding="utf-8") as f:
            f.write("a2\tc2\tcognate\n")
        code = main(
            [
                "eval",
                "--result", str(workdir / "res.tsv"),
                "--gold", str(workdir / "gold.tsv"),
                "--lang-a", "aaa", "--lang-c", "ccc",
            ]
        )
        assert code == 2
        line = 2 if spoiled == "res.tsv" else 3
        expected = f"error: {path}: line {line}: expected 2 tab-separated fields, got 3\n"
        assert capsys.readouterr().err == expected


MAX_EDGES_COMMANDS = [
    ["induce", "--method", "1:C:H1", "-o", "out.tsv"],
    ["baseline", "cp", "-o", "cp.tsv"],
    ["grid-search", "--gold", "gold.tsv", "--method", "1:C:H1"],
    ["cv", "--gold", "gold.tsv", "--method", "1:C:H1"],
    ["stats"],
    ["export-wcnf", "--method", "1:C:H1", "--out-dir", "wcnf"],
]


@pytest.mark.parametrize("command", MAX_EDGES_COMMANDS, ids=lambda c: c[0])
def test_non_positive_max_edges_is_usage_error(workdir, capsys, monkeypatch, command):
    monkeypatch.chdir(workdir)
    code = main([*command, *dict_flags(workdir), "--max-edges", "0"])
    assert code == 1
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", MAX_EDGES_COMMANDS, ids=lambda c: c[0])
def test_skipped_components_are_reported(workdir, capsys, monkeypatch, command):
    # a third component keeps two of the three, so cv --folds 2 still runs
    with open(workdir / "ab.tsv", "a", encoding="utf-8") as f:
        f.write("a4\tb4\n")
    with open(workdir / "cb.tsv", "a", encoding="utf-8") as f:
        f.write("c4\tb4\n")
    (workdir / "gold.tsv").write_text("a1\tc1\na2\tc2\na4\tc4\n", encoding="utf-8")
    monkeypatch.chdir(workdir)
    extra = ["--folds", "2"] if command[0] == "cv" else []
    code = main([*command, *dict_flags(workdir), *extra, "--max-edges", "3"])
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: --max-edges 3 skipped 1 transgraph(s), the largest with 4 edges\n"
    )


def test_nothing_skipped_means_no_warning(workdir, capsys):
    out = workdir / "out.tsv"
    assert main(["induce", *dict_flags(workdir), "--method", "1:C:H1", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_everything_skipped_still_exits_zero(workdir, capsys):
    out = workdir / "out.tsv"
    code = main(
        ["induce", *dict_flags(workdir), "--method", "1:C:H1", "--max-edges", "1", "-o", str(out)]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == ""
    assert "skipped 2 transgraph(s), the largest with 4 edges" in capsys.readouterr().err


def _eval_command(d):
    return [
        "eval", "--result", str(d / "gold.tsv"), "--gold", str(d / "gold.tsv"),
        "--lang-a", "aaa", "--lang-c", "ccc",
    ]


SCORING_COMMANDS = {
    "eval": _eval_command,
    "grid-search": lambda d: [
        "grid-search", *dict_flags(d), "--gold", str(d / "gold.tsv"), "--method", "1:C:H1"
    ],
    "cv": lambda d: [
        "cv", *dict_flags(d), "--gold", str(d / "gold.tsv"), "--method", "1:C:H1"
    ],
}


@pytest.mark.parametrize("beta", ["nan", "0", "-1", "inf"])
@pytest.mark.parametrize("command", sorted(SCORING_COMMANDS))
def test_bad_beta_is_usage_error(workdir, capsys, command, beta):
    code = main([*SCORING_COMMANDS[command](workdir), "--beta", beta])
    assert code == 1
    captured = capsys.readouterr()
    assert "beta must be positive and finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["grid-search", "cv"])
def test_exact_flag_is_gone(workdir, command):
    assert main([*SCORING_COMMANDS[command](workdir), "--exact"]) == 1


@pytest.mark.parametrize("command", ["grid-search", "cv"])
def test_malformed_gold_is_data_error_naming_the_file(workdir, capsys, command):
    gold = workdir / "gold.tsv"
    gold.write_text("a1\tc1\na2\n", encoding="utf-8")
    assert main(SCORING_COMMANDS[command](workdir)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {gold}: {FIELDS_2_GOT_1}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", sorted(SCORING_COMMANDS))
def test_empty_gold_is_data_error_naming_the_file(workdir, capsys, command):
    gold = workdir / "gold.tsv"
    gold.write_text("", encoding="utf-8")
    assert main(SCORING_COMMANDS[command](workdir)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {gold}: gold standard is empty\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["cv", "--folds", "1"],
        ["cv", "--folds", "0"],
        ["baseline", "ic", "--delta", "0"],
        ["baseline", "ic", "--delta", "-1"],
        ["polysemy", "--n-max", "0"],
        ["polysemy", "--n-max", "21"],
    ],
    ids=" ".join,
)
def test_out_of_range_option_is_usage_error(workdir, capsys, argv):
    if argv[0] == "cv":
        argv = [*SCORING_COMMANDS["cv"](workdir), *argv[1:]]
    elif argv[0] == "baseline":
        argv = [*argv, *dict_flags(workdir), "-o", str(workdir / "ic.tsv")]
    assert main(argv) == 1
    assert "must be" in capsys.readouterr().err


LANG_CASES = [
    pytest.param(command, flag, id=" ".join([*(w for w in command[:2] if w[0] != "-"), flag]))
    for command in [*MAX_EDGES_COMMANDS, ["baseline", "ic", "-o", "ic.tsv"]]
    for flag in ("--lang-a", "--lang-b", "--lang-c")
] + [pytest.param(["eval"], flag, id=f"eval {flag}") for flag in ("--lang-a", "--lang-c")]


@pytest.mark.parametrize("value", ["MIN", ""])
@pytest.mark.parametrize("command, flag", LANG_CASES)
def test_malformed_language_tag_is_usage_error(workdir, capsys, monkeypatch, command, flag, value):
    monkeypatch.chdir(workdir)
    argv = _eval_command(workdir) if command == ["eval"] else [*command, *dict_flags(workdir)]
    assert main([*argv, flag, value]) == 1
    captured = capsys.readouterr()
    assert "invalid language tag" in captured.err
    assert captured.out == ""


def test_more_folds_than_graphs_is_data_error(workdir):
    assert main([*SCORING_COMMANDS["cv"](workdir), "--folds", "3"]) == 2


def test_import_leaves_numpy_and_scipy_unloaded():
    code = (
        "import sys, pivotlex, pivotlex.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(pivotlex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["pivotlex", "pivotlex.cli"])
def test_import_leaves_encoding_unloaded(module):
    # only export-wcnf needs the clause encoding; it imports it when it runs
    code = f"import sys, {module}; print('pivotlex.encoding' in sys.modules)"
    src = os.path.dirname(os.path.dirname(pivotlex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["pivotlex", "pivotlex.cli"])
def test_import_leaves_dataclasses_and_inspect_unloaded(module):
    # the records are NamedTuples, so start-up pays for neither module; one
    # that site already loaded is not the package's cost
    code = (
        "import sys; before = set(sys.modules)\n"
        f"import {module}\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(pivotlex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_export_wcnf_leaves_dataclasses_and_inspect_unloaded(workdir):
    # the writer uses plain ints and tuples; the clause records stay with the tests
    code = (
        "import sys; before = set(sys.modules)\n"
        "from pivotlex.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(status, sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    argv = ["export-wcnf", *dict_flags(workdir), "--method", "2:S:H14"]
    argv += ["--out-dir", str(workdir / "wcnf")]
    src = os.path.dirname(os.path.dirname(pivotlex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 []"
    assert sorted(os.listdir(workdir / "wcnf")) == ["tg0.wcnf", "tg1.wcnf"]


def test_public_api_resolves():
    # a name removed from the package but left in __all__ breaks star imports
    assert [name for name in pivotlex.__all__ if not hasattr(pivotlex, name)] == []
    namespace = {}
    exec("from pivotlex import *", namespace)
    assert set(pivotlex.__all__) <= set(namespace)


def test_no_command_needs_numpy_or_scipy(workdir):
    (workdir / "xs.txt").write_text("0.1\n0.2\n0.15\n", encoding="utf-8")
    (workdir / "ys.txt").write_text("0\n0\n0\n", encoding="utf-8")
    d, dicts = str(workdir), dict_flags(workdir)
    gold = ["--gold", str(workdir / "gold.tsv")]
    commands = [
        ["induce", *dicts, "--method", "2:S:H14", "-o", f"{d}/out.tsv"],
        ["baseline", "cp", *dicts, "-o", f"{d}/cp.tsv"],
        ["baseline", "ic", *dicts, "-o", f"{d}/ic.tsv"],
        _eval_command(workdir),
        ["grid-search", *dicts, *gold, "--method", "1:S:H1"],
        ["cv", *dicts, *gold, "--method", "1:C:H1", "--folds", "2"],
        ["ttest", f"{d}/xs.txt", f"{d}/ys.txt"],
        ["polysemy", "--n-max", "3"],
        ["stats", *dicts],
        ["export-wcnf", *dicts, "--method", "1:C:H1", "--out-dir", f"{d}/wcnf"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from pivotlex.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    src = os.path.dirname(os.path.dirname(pivotlex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    codes = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), [c[0] for c, rc in zip(commands, codes) if rc]


# command -> (argv given the input and output directories, files it writes there)
WRITERS = {
    "induce": (
        lambda d, o: [
            "induce", *dict_flags(d), "--method", "2:S:H14", "--jobs", "1",
            "-o", str(o / "out.tsv"), "--report", str(o / "report.txt"),
        ],
        ["out.tsv", "report.txt"],
    ),
    "baseline-cp": (
        lambda d, o: ["baseline", "cp", *dict_flags(d), "-o", str(o / "cp.tsv")],
        ["cp.tsv"],
    ),
    "baseline-ic": (
        lambda d, o: ["baseline", "ic", *dict_flags(d), "-o", str(o / "ic.tsv")],
        ["ic.tsv"],
    ),
    "polysemy": (
        lambda d, o: ["polysemy", "--n-max", "3", "-o", str(o / "sweep.csv")],
        ["sweep.csv"],
    ),
    "export-wcnf": (
        lambda d, o: ["export-wcnf", *dict_flags(d), "--method", "1:C:H1", "--out-dir", str(o)],
        ["tg0.wcnf", "tg1.wcnf"],
    ),
}


class TestOutputFiles:
    """Outputs are rewritten in place and cut to the written length."""

    @pytest.mark.parametrize(
        "old_size",
        [lambda n: n + 4096, lambda n: n, lambda n: n // 2],
        ids=["longer", "same", "shorter"],
    )
    @pytest.mark.parametrize("command", WRITERS)
    def test_rerun_over_old_file_gives_exactly_the_new_bytes(self, workdir, command, old_size):
        argv, written = WRITERS[command]
        fresh, reused = workdir / "fresh", workdir / "reused"
        fresh.mkdir()
        reused.mkdir()
        assert main(argv(workdir, fresh)) == 0
        want = {name: (fresh / name).read_bytes() for name in written}
        for name, data in want.items():
            (reused / name).write_bytes(b"\xff" * old_size(len(data)))
        assert main(argv(workdir, reused)) == 0
        assert {name: (reused / name).read_bytes() for name in written} == want

    def test_new_file_gets_the_permissions_of_a_plain_open(self, workdir):
        out = workdir / "out.tsv"
        assert main(["induce", *dict_flags(workdir), "--method", "1:C:H1", "-o", str(out)]) == 0
        with open(workdir / "plain.tsv", "w"):
            pass
        assert out.stat().st_mode == (workdir / "plain.tsv").stat().st_mode

    def test_induce_to_devnull(self, workdir, capsys):
        argv = ["induce", *dict_flags(workdir), "--method", "2:S:H14"]
        assert main([*argv, "-o", os.devnull, "--report", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    def test_symlink_writes_its_target_and_stays(self, workdir):
        target, link = workdir / "target.tsv", workdir / "link.tsv"
        target.write_bytes(b"\xff" * 4096)
        link.symlink_to(target)
        argv = ["induce", *dict_flags(workdir), "--method", "1:C:H1"]
        assert main([*argv, "-o", str(link)]) == 0
        assert main([*argv, "-o", str(workdir / "plain.tsv")]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (workdir / "plain.tsv").read_bytes()

    def test_directory_is_data_error(self, workdir, capsys):
        argv = ["induce", *dict_flags(workdir), "--method", "1:C:H1"]
        assert main([*argv, "-o", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_write_leaves_only_what_was_written(self, workdir, capsys, monkeypatch):
        def write_then_fail(pairs, f):
            f.write("a1\tc1\tcognate\t0.000000\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_result_pairs", write_then_fail)
        out = workdir / "out.tsv"
        out.write_bytes(b"\xff" * 4096)
        assert main(["induce", *dict_flags(workdir), "--method", "1:C:H1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert out.read_bytes() == b"a1\tc1\tcognate\t0.000000\n"

    def test_failed_flush_still_cuts_the_old_tail(self, workdir, capsys):
        # under a 64-byte file-size limit, the flush on close fails with EFBIG
        # after the first 64 bytes
        resource = pytest.importorskip("resource")
        out = workdir / "sweep.csv"
        assert main(["polysemy", "--n-max", "3", "-o", str(out)]) == 0
        want = out.read_bytes()
        assert len(want) > 64
        out.write_bytes(b"\xff" * 4096)
        code = (
            "import resource, sys\n"
            "from pivotlex.cli import main\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, (64, {resource.RLIM_INFINITY}))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(pivotlex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code, "polysemy", "--n-max", "3", "-o", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert (run.returncode, run.stderr) == (2, "error: [Errno 27] File too large\n")
        assert out.read_bytes() == want[:64]


class TestOtherCommands:
    def test_polysemy_csv(self, workdir, capsys):
        out = workdir / "sweep.csv"
        assert main(["polysemy", "--n-max", "2", "-o", str(out)]) == 0
        content = out.read_text(encoding="utf-8")
        assert content.startswith("n,m,precision\n")
        assert "2,2,0.388889" in content

    def test_stats(self, workdir, capsys):
        assert main(["stats", *dict_flags(workdir)]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "id\ta_words\tpivots\tc_words\tedges"

    def test_ttest(self, workdir, capsys):
        (workdir / "xs.txt").write_text("0.1\n0.2\n0.15\n", encoding="utf-8")
        (workdir / "ys.txt").write_text("0\n0\n0\n", encoding="utf-8")
        assert main(["ttest", str(workdir / "xs.txt"), str(workdir / "ys.txt")]) == 0
        text = capsys.readouterr().out
        assert "t\t5.1962" in text and "df\t2" in text

    def test_ttest_value_files_may_start_with_a_byte_order_mark(self, workdir, capsys):
        (workdir / "xs.txt").write_text("\ufeff0.1\n0.2\n0.15\n", encoding="utf-8")
        (workdir / "ys.txt").write_text("\ufeff0\n0\n0\n", encoding="utf-8")
        assert main(["ttest", str(workdir / "xs.txt"), str(workdir / "ys.txt")]) == 0
        assert "t\t5.1962" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "xs, ys, mean",
        [("1e-7\n2e-7\n0\n", "0\n0\n0\n", "1e-07"), ("1e154\n9e153\n", "0\n0\n", "9.5e+153")],
        ids=["tiny", "huge"],
    )
    def test_ttest_mean_diff_keeps_its_scale(self, workdir, capsys, xs, ys, mean):
        (workdir / "xs.txt").write_text(xs, encoding="utf-8")
        (workdir / "ys.txt").write_text(ys, encoding="utf-8")
        assert main(["ttest", str(workdir / "xs.txt"), str(workdir / "ys.txt")]) == 0
        assert f"mean_diff\t{mean}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "xs, ys",
        [("1e308\n1e308\n", "-1e308\n-1e308\n"), ("1e200\n-1e200\n", "0\n0\n")],
        ids=["mean", "variance"],
    )
    def test_ttest_overflowing_differences_are_data_error(self, workdir, capsys, xs, ys):
        (workdir / "xs.txt").write_text(xs, encoding="utf-8")
        (workdir / "ys.txt").write_text(ys, encoding="utf-8")
        assert main(["ttest", str(workdir / "xs.txt"), str(workdir / "ys.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_ttest_non_finite_value_is_data_error(self, workdir, capsys, value):
        (workdir / "xs.txt").write_text(f"0.1\n{value}\n0.15\n", encoding="utf-8")
        (workdir / "ys.txt").write_text("0\n0\n0\n", encoding="utf-8")
        assert main(["ttest", str(workdir / "xs.txt"), str(workdir / "ys.txt")]) == 2
        err = capsys.readouterr().err
        assert f"{workdir / 'xs.txt'}: line 2: not a finite number" in err

    def test_grid_search(self, workdir, capsys):
        code = main(
            [
                "grid-search", *dict_flags(workdir),
                "--gold", str(workdir / "gold.tsv"),
                "--method", "1:C:H1",
            ]
        )
        assert code == 0
        assert "cognate_threshold" in capsys.readouterr().out

    def test_cv(self, workdir, capsys):
        code = main(
            [
                "cv", *dict_flags(workdir),
                "--gold", str(workdir / "gold.tsv"),
                "--method", "1:C:H1",
                "--folds", "2",
            ]
        )
        assert code == 0
        assert "mean f_score" in capsys.readouterr().out

    def test_cv_fold_without_gold_is_named(self, workdir, capsys):
        (workdir / "ab.tsv").write_text("a1\tb1\na2\tb2\n", encoding="utf-8")
        (workdir / "cb.tsv").write_text("c1\tb1\nc2\tb2\n", encoding="utf-8")
        (workdir / "gold.tsv").write_text("a1\tc1\n", encoding="utf-8")
        assert main([*SCORING_COMMANDS["cv"](workdir), "--folds", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: fold 0 (test transgraphs 0-0): no gold pair in its training transgraphs\n"
        )

    def test_export_wcnf(self, workdir, capsys):
        out_dir = workdir / "wcnf"
        code = main(
            [
                "export-wcnf", *dict_flags(workdir),
                "--method", "1:C:H1",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        files = sorted(os.listdir(out_dir))
        assert files == ["tg0.wcnf", "tg1.wcnf"]
        first = (out_dir / "tg0.wcnf").read_text(encoding="utf-8")
        assert first.startswith("p wcnf ")

    def test_export_wcnf_warns_about_graphs_without_candidates(self, workdir, capsys):
        # a5-b5 is a component with no C-word, so it has no cognate candidate
        with open(workdir / "ab.tsv", "a", encoding="utf-8") as f:
            f.write("a5\tb5\n")
        out_dir = workdir / "wcnf"
        argv = ["export-wcnf", *dict_flags(workdir), "--method", "1:C:H1"]
        assert main([*argv, "--out-dir", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: no formula file for 1 transgraph(s) without cognate candidates\n"
        )
        assert captured.out == f"wrote 2 formula file(s) to {out_dir}\n"
        assert sorted(os.listdir(out_dir)) == ["tg0.wcnf", "tg1.wcnf"]

        assert main([*argv, "--out-dir", str(out_dir), "--transgraph-id", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: no formula file for 1 transgraph(s) without cognate candidates\n"
        )
        assert captured.out == f"wrote 0 formula file(s) to {out_dir}\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--transgraph-id", "999"], "error: no transgraph with id 999\n"),
            (
                ["--transgraph-id", "0", "--max-edges", "3"],
                "error: no transgraph with id 0 (--max-edges 3 skipped it, with 4 edges)\n",
            ),
        ],
        ids=["unknown", "skipped"],
    )
    def test_export_wcnf_missing_transgraph_is_data_error(self, workdir, capsys, extra, message):
        out_dir = workdir / "wcnf"
        argv = ["export-wcnf", *dict_flags(workdir), "--method", "1:C:H1"]
        code = main([*argv, "--out-dir", str(out_dir), *extra])
        assert code == 2
        assert capsys.readouterr().err.endswith(message)
        assert not out_dir.exists()

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
