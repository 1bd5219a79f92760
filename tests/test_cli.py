import os
import subprocess
import sys

import pytest

import pivotlex
from pivotlex.cli import main


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
        files = sorted(os.listdir(out_dir))
        assert files == ["tg0.wcnf", "tg1.wcnf"]
        first = (out_dir / "tg0.wcnf").read_text(encoding="utf-8")
        assert first.startswith("p wcnf ")

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
