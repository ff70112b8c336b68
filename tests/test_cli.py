"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lwec import LabelMatrix, make_gaussian_blobs, parse_label_matrix, read_labels, write_label_matrix
from lwec.cli import main
from lwec.harness import write_features
from lwec.ensemble import write_labels

from conftest import random_label_array

GOLDEN = Path(__file__).with_name("golden")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    x, y = make_gaussian_blobs(40, [[0, 0], [7, 7], [14, 0]], spread=0.7, seed=12)
    write_features(x, str(root / "features.csv"))
    write_labels(y, str(root / "truth.txt"))
    return root


def run_cli(args) -> int:
    return main([str(a) for a in args])


class TestPoolCommand:
    def test_writes_parseable_pool(self, data_dir, tmp_path):
        out = tmp_path / "pool.csv"
        code = run_cli(
            ["pool", "--features", data_dir / "features.csv", "--pool-size", 12,
             "--seed", 3, "--out", out]
        )
        assert code == 0
        matrix = parse_label_matrix(out.read_text())
        assert matrix.n_objects == 40
        assert matrix.n_clusterings == 12

    def test_missing_file_fails_with_diagnostic(self, tmp_path, capsys):
        code = run_cli(["pool", "--features", tmp_path / "nope.csv", "--out", tmp_path / "o"])
        assert code != 0
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pool_file(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pool") / "pool.csv"
    run_cli(["pool", "--features", data_dir / "features.csv", "--pool-size", 10,
             "--seed", 5, "--out", out])
    return out


class TestConsensusCommand:
    @pytest.mark.parametrize("method", ["lwea", "lwgp", "eac"])
    def test_each_method_writes_labels(self, pool_file, tmp_path, method):
        out = tmp_path / f"{method}.txt"
        code = run_cli(
            ["consensus", "--labels", pool_file, "--method", method, "--k", 3,
             "--theta", 0.4, "--seed", 1, "--out", out]
        )
        assert code == 0
        labels = read_labels(out.read_text())
        assert labels.size == 40
        assert labels.min() >= 0 and labels.max() < 3

    def test_bad_k_fails(self, pool_file, tmp_path, capsys):
        code = run_cli(
            ["consensus", "--labels", pool_file, "--method", "lwea", "--k", 0,
             "--out", tmp_path / "x.txt"]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("method", ["lwea", "lwgp"])
    def test_theta_underflowing_every_weight_fails(self, tmp_path, capsys, method):
        # random labels leave no cluster with zero uncertainty, so at this
        # theta every weight underflows to 0
        noisy = tmp_path / "noisy.csv"
        arr = random_label_array(np.random.default_rng(71), 30, 5)
        write_label_matrix(LabelMatrix.from_array(arr), str(noisy))
        code = run_cli(
            ["consensus", "--labels", noisy, "--method", method, "--k", 3,
             "--theta", "1e-300", "--out", tmp_path / "x.txt"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "theta=1e-300" in err


    @pytest.mark.parametrize("method", ["lwea", "lwgp"])
    def test_nan_theta_fails(self, pool_file, tmp_path, capsys, method):
        code = run_cli(
            ["consensus", "--labels", pool_file, "--method", method, "--k", 3,
             "--theta", "nan", "--out", tmp_path / "x.txt"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: theta must be positive, got nan\n"

    @pytest.mark.parametrize("method", ["lwea", "lwgp"])
    def test_infinite_theta_gives_unit_weights(self, pool_file, tmp_path, method):
        out = {}
        for theta in ("inf", "1e300"):
            out[theta] = tmp_path / f"{theta}.txt"
            code = run_cli(
                ["consensus", "--labels", pool_file, "--method", method, "--k", 3,
                 "--theta", theta, "--out", out[theta]]
            )
            assert code == 0
        assert out["inf"].read_bytes() == out["1e300"].read_bytes()


class TestEvalCommand:
    def test_prints_four_decimal_nmi(self, data_dir, tmp_path, capsys):
        code = run_cli(["eval", "--pred", data_dir / "truth.txt", "--truth", data_dir / "truth.txt"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_coassoc_dump(self, data_dir, tmp_path, capsys):
        pool = tmp_path / "pool.csv"
        run_cli(["pool", "--features", data_dir / "features.csv", "--pool-size", 5,
                 "--seed", 2, "--out", pool])
        dump = tmp_path / "ca.csv"
        code = run_cli(
            ["eval", "--pred", data_dir / "truth.txt", "--truth", data_dir / "truth.txt",
             "--labels", pool, "--dump-coassoc", dump]
        )
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert len(lines) == 40
        assert [len(l.split(",")) for l in lines] == list(range(1, 41))

    @pytest.mark.parametrize("theta, golden", [(None, "coassoc_ca.csv"), (0.4, "coassoc_lwca.csv")])
    def test_coassoc_dump_golden(self, tmp_path, capsys, theta, golden):
        # 24 objects in 18 distinct label rows; the golden files were written
        # by the N x N implementation
        labels = tmp_path / "labels.csv"
        rows = np.random.default_rng(77).integers(0, 3, size=(24, 3))
        write_label_matrix(LabelMatrix.from_array(rows), str(labels))
        truth = tmp_path / "truth.txt"
        write_labels(np.zeros(5, dtype=int), str(truth))
        dump = tmp_path / "dump.csv"
        args = ["eval", "--pred", truth, "--truth", truth, "--labels", labels, "--dump-coassoc", dump]
        assert run_cli(args + ([] if theta is None else ["--theta", theta])) == 0
        assert dump.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_dump_without_labels_fails(self, data_dir, tmp_path, capsys):
        code = run_cli(
            ["eval", "--pred", data_dir / "truth.txt", "--truth", data_dir / "truth.txt",
             "--dump-coassoc", tmp_path / "ca.csv"]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err


class TestMalformedFiles:
    """A malformed input file exits 1 with one `error:` line naming its fault."""

    def fails_with(self, capsys, args, message):
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1 and re.match(f"error: {message}", err), err

    @pytest.mark.parametrize("rows, message", [
        (("# late", "0"), "line 3: unexpected '#' row"),
        (("-1",), "line 3: negative cluster label"),
        (("1,1",), r"line 3: ragged rows \(2 cells, expected 1\)"),
        (("99999999999999999999",), "line 3: cluster label too large for int64"),
    ])
    def test_eval_pred_row(self, data_dir, tmp_path, capsys, rows, message):
        # the faulty rows replace line 3 of a prediction as long as the truth
        truth = (data_dir / "truth.txt").read_text().splitlines()
        pred = tmp_path / "pred.txt"
        pred.write_text("\n".join(truth[:2] + list(rows) + truth[3:]) + "\n")
        self.fails_with(capsys, ["eval", "--pred", pred, "--truth", data_dir / "truth.txt"], message)

    def test_consensus_label_past_int64(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("1,2\n99999999999999999999,3\n")
        args = ["consensus", "--labels", labels, "--k", "2", "--out", tmp_path / "out.txt"]
        self.fails_with(capsys, args, "line 2: cluster label too large for int64")

    def test_eval_header_only_pred(self, data_dir, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("# labels\n")
        self.fails_with(capsys, ["eval", "--pred", pred, "--truth", data_dir / "truth.txt"], "empty label file")

    @pytest.mark.parametrize("text, message", [
        ("{0}\n{1}\n# late\n{2}\n", "line 3: unexpected '#' row"),
        ("# x,y\n", "empty feature file"),
    ])
    def test_pool_features(self, data_dir, tmp_path, capsys, text, message):
        rows = (data_dir / "features.csv").read_text().splitlines()
        features = tmp_path / "features.csv"
        features.write_text(text.format(*rows[:2], "\n".join(rows[2:])))
        self.fails_with(capsys, ["pool", "--features", features, "--out", tmp_path / "pool.csv"], message)


class TestSweepCommand:
    def test_report_structure(self, data_dir, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            ["sweep", "--features", data_dir / "features.csv", "--truth", data_dir / "truth.txt",
             "--pool-size", 8, "--m", 4, "--runs", 2, "--seed", 9,
             "--theta-grid", 0.2, 0.8, "--m-grid", 2, 4, "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,parameter,value,runs,mean_nmi,std_nmi"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"lwea", "lwgp", "eac", "base"}
        # 4 headline rows + 2 methods x 2 thetas + 4 methods x 2 Ms
        assert len(lines) == 1 + 4 + 4 + 8


class TestDeterminism:
    """Every subcommand run twice with one seed produces byte-identical outputs."""

    def invoke(self, args):
        result = subprocess.run(
            [sys.executable, "-m", "lwec", *[str(a) for a in args]],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_all_subcommands_byte_identical(self, data_dir, tmp_path):
        features = data_dir / "features.csv"
        truth = data_dir / "truth.txt"
        outputs = {}
        for tag in ("a", "b"):
            pool = tmp_path / f"pool_{tag}.csv"
            self.invoke(["pool", "--features", features, "--pool-size", 8, "--seed", 4, "--out", pool])
            labels = tmp_path / f"labels_{tag}.txt"
            self.invoke(
                ["consensus", "--labels", pool, "--method", "lwgp", "--k", 3, "--seed", 7, "--out", labels]
            )
            stdout = self.invoke(["eval", "--pred", labels, "--truth", truth])
            report = tmp_path / f"report_{tag}.csv"
            self.invoke(
                ["sweep", "--features", features, "--truth", truth, "--pool-size", 6,
                 "--m", 3, "--runs", 2, "--seed", 13, "--theta-grid", 0.2, 0.6, "--out", report]
            )
            outputs[tag] = (
                pool.read_bytes(),
                labels.read_bytes(),
                stdout,
                report.read_bytes(),
            )
        assert outputs["a"] == outputs["b"]
