"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import math
import re
import shutil
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sdiqrng import cli, detector, dsp, entropy
from sdiqrng.calibration import append_log, read_log
from sdiqrng.cli import build_parser, main
from sdiqrng.config import load_config

SEED = 11

CFG_TEMPLATE = """\
[run]
rng_seed = {seed}
timestamp = 1786752000.0

[dsp]
notch_taps = 801
modulation_freq = 24.5e6
notch_cutoff = 24.495e6
autocorr_max_lag = 50
autocorr_samples = 2000

[simulate]
pulses = 20000
blocks = 2

[calibration]
samples_per_point = 50000

[stats]
string_bits = 5000

[attack]
rounds = 20000

[verify]
fock_n_max = 5
deltas = 0.1 0.5
equivalence_states = 5
equivalence_dim_max = 5
"""


def write_cfg(dirpath, name="cli.cfg", seed=SEED, extra=""):
    path = dirpath / name
    path.write_text(CFG_TEMPLATE.format(seed=seed) + extra)
    return str(path)


def run_pipeline(cfg_path, out_dir, commands=("simulate", "calibrate", "extract")):
    for command in commands:
        code = main([command, "--config", cfg_path, "--out", str(out_dir)])
        assert code == 0, f"{command} exited {code}"


def assert_reference_column(rows, total, cdf):
    """Third CSV column, ``total`` times the mass of each unit bin under
    ``cdf``, against an mpmath oracle: 1e-12 relative, except in the far
    tails, where a difference of two CDF values near 0 or 1 carries a few
    ulps of ``total`` whatever erf computes it."""
    with mpmath.workdps(40):
        for row in rows:
            k = int(row[0])
            exact = total * (cdf(k + mpmath.mpf(0.5)) - cdf(k - mpmath.mpf(0.5)))
            assert math.isclose(float(row[2]), float(exact), rel_tol=1e-12,
                                abs_tol=1e-15 * total), row


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate/calibrate/extract/test/attack/verify run."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = write_cfg(root)
    out = root / "artifacts"
    run_pipeline(cfg_path, out,
                 ("simulate", "calibrate", "extract", "test", "attack", "verify"))
    return root, cfg_path, out


def test_parser_structure():
    parser = build_parser()
    for name in ("simulate", "calibrate", "extract", "test", "attack", "verify"):
        args = parser.parse_args([name, "--rng-seed", "5", "--threads", "2"])
        assert args.command == name
        assert args.rng_seed == 5
        assert args.threads == 2
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--version"])
    assert exc.value.code == 0


def test_every_subcommand_help_prints_its_description(capsys):
    for name, fn in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        description = fn.__doc__
        assert description and description.strip()
        assert description in capsys.readouterr().out.split("\n\n")


def test_simulate_artifacts(pipeline):
    root, cfg_path, out = pipeline
    assert (out / "blocks" / "raw_0000.bin").exists()
    assert (out / "blocks" / "raw_0001.bin").exists()
    assert (out / "blocks" / "filtered_0000.bin").exists()
    assert (out / "blocks" / "filtered_0001.bin").exists()

    cfg = load_config(cfg_path)
    block = detector.read_block(out / "blocks" / "filtered_0000.bin", cfg.detector)
    assert block.codes.size == 20000
    assert block.run_id == f"{SEED:016x}"
    assert block.timestamp == "2026-08-15T00:00:00Z"

    ac = (out / "autocorrelation.csv").read_text().splitlines()
    assert ac[1].startswith("# n_samples=2000 ")   # dsp.autocorr_samples
    assert ac[2] == "lag,coefficient"
    assert len(ac) == 3 + 51  # lags 0..50
    assert ac[3].startswith("0,1.0")

    hist = (out / "histogram_raw_vs_vacuum.csv").read_text().splitlines()
    assert hist[2] == "code,count,gaussian_reference"
    rows = [line.split(",") for line in hist[3:]]
    assert len(rows) == 256
    assert int(rows[0][0]) == -128 and int(rows[-1][0]) == 127
    assert sum(int(r[1]) for r in rows) == 2 * 20000
    sigma = float(hist[1].split("sigma_codes=")[1])
    assert_reference_column(rows, 2 * 20000,
                            lambda x: mpmath.erf(x / (mpmath.sqrt(2) * sigma)) / 2)


def test_calibrate_artifacts(pipeline):
    root, cfg_path, out = pipeline
    entries = read_log(out / "calibration.csv")
    assert len(entries) == 1
    assert entries[0].h_min_bits > 5.4
    bound_text = (out / "entropy_bound.txt").read_text()
    for key in ("timestamp: 2026-08-15T00:00:00Z", "gradient: ", "intercept: ",
                "delta_conservative: ", "h_min_bits: ", "guessing_probability: "):
        assert key in bound_text
    line = (out / "calibration_line.csv").read_text().splitlines()
    assert line[2] == "power,variance,fit"
    assert len(line) == 3 + 5  # one row per sweep power


def test_extract_artifacts(pipeline):
    root, cfg_path, out = pipeline
    assert (out / "output.bits").stat().st_size > 0
    assert (out / "toeplitz.seed").stat().st_size > 0
    acc = (out / "accounting.txt").read_text()
    (entry,) = read_log(out / "calibration.csv")
    assert (f"certified_by: calibration 2026-08-15T00:00:00Z {entry.fingerprint}\n"
            in acc)
    assert "seed_provenance: test-prng-insecure" in acc
    assert "clipped_samples: " in acc
    effective = float(acc.split("bits_per_sample_effective: ")[1].splitlines()[0])
    assert effective >= 5.4
    rate = float(acc.split("equivalent_rate_bits_per_s: ")[1].splitlines()[0])
    assert rate >= 270e6
    residual = float(acc.split("fft_rounding_residual_max: ")[1].splitlines()[0])
    assert 0.0 <= residual < 1e-6


def test_battery_artifacts(pipeline):
    root, cfg_path, out = pipeline
    battery_text = (out / "battery.txt").read_text()
    assert battery_text.rstrip().endswith("overall: pass")
    csv = (out / "battery.csv").read_text().splitlines()
    assert csv[0] == "statistic,proportion,proportion_bound,uniformity_p,passed"
    assert len(csv) == 1 + 10
    for row in csv[1:]:
        assert len(row.split(",")) == 5


def test_attack_artifacts(pipeline):
    root, cfg_path, out = pipeline
    report = (out / "attack_report.txt").read_text()
    assert report.startswith("lo_mode: fixed")
    for key in ("r: 1.5", "measured_variance:", "eve_guess_rate:",
                "vacuum_guess_bound:"):
        assert key in report
    hist = (out / "attack_histogram.csv").read_text().splitlines()
    assert hist[2] == "bin,count,vacuum_expected"
    rows = [line.split(",") for line in hist[3:]]
    assert sum(int(r[1]) for r in rows) == 20000
    delta = float(re.search(r"delta=(\S+)", hist[1]).group(1))
    assert_reference_column(rows, 20000, lambda x: mpmath.erf(x * delta) / 2)


@pytest.mark.parametrize("lo_mode, r, report_sha256, histogram_sha256", [
    # Kolmogorov-Smirnov p-value from the Pelz-Good branch
    ("fixed", 1.5,
     "3c5db28e76ca7413279a5b35f206b82ccffa7b71bbce32ba4b94e6d933644dd0",
     "f8388670e91f4ef652bd85b231eee495f4be474fe23f311dae96f67685bbfcbf"),
    # ... and from 2 * smirnov(n, D), summed in numpy: mimicry_pvalue reads
    # 4.050819505442271e-19, where scipy.special.smirnov gave
    # 4.050819505442274e-19 (30-digit mpmath: 4.050819505442273349e-19)
    ("uniform", 0.3,
     "67383e043e8b7d0030da503be22507678a2348cccb77259d98845381fc29d865",
     "65c13ea1d1a6092fe1b6e51e1cad3d8f292dba3f9d64b818fc18bdd7257a0397"),
])
def test_attack_artifacts_keep_their_bytes(tmp_path, lo_mode, r, report_sha256,
                                           histogram_sha256):
    # the digests were written by commit b316176, whose p-value came from
    # scipy.stats.kstest and whose histogram re-binned the samples in the
    # CLI; the Smirnov row's report digest since moved with its p-value
    cfg = tmp_path / "attack.cfg"
    cfg.write_text(f"[run]\nrng_seed = 5\n\n[attack]\nrounds = 10000\n"
                   f"lo_mode = {lo_mode}\nr = {r}\n")
    out = tmp_path / "out"
    assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ("attack_report.txt", "attack_histogram.csv")}
    assert digest == {"attack_report.txt": report_sha256,
                      "attack_histogram.csv": histogram_sha256}


@pytest.mark.parametrize("extra, commands, digests", [
    ("", ("simulate", "calibrate", "extract"), {
        "entropy_bound.txt":
            "48594edff68270283a4a75a3a9bc9f98f4dfa2c2291befe93489678f47293ff0",
        "calibration.csv":
            "40de4b2f8cf9023000ea5e091def21048f1e15c245a23c6e9f4f6ebfae5dffcb",
        "accounting.txt":
            "ecf053bc6d1cfd18d2334a8d2c7657cdd7470fe05a5a55e5866e6c6456a440d4",
        "output.bits":
            "897fd063f9306c4269917a4f2802dbf13c1931be415fd026422a5b061275b956",
        "toeplitz.seed":
            "6051cca7dba2120a87f95f87e097bf23fb1867945d91c0f83954c0bd2e632d05"}),
    ("\n[extractor]\nh_min_override = 5.55\n", ("simulate", "extract"), {
        "accounting.txt":
            "61c71755f056bd2098d58cd0062552907a10f9c149d16d61161d823b4924101f",
        "output.bits":
            "a07fd5e23971f0e9a9cc7876cb3648e653ef01589b7911675268b63ffef651c2",
        "toeplitz.seed":
            "b25eb3c0f373f9eba9e187c282c15f22643dd8c340ac06ec298007a0af5227e2"}),
], ids=["calibrated", "h_min_override"])
def test_certificate_artifacts_keep_their_bytes(tmp_path, extra, commands, digests):
    # the digests were written by commit 3be15f4, whose h_min, epsilon and
    # provenance travelled as loose numbers through the plan and the report
    out = tmp_path / "out"
    run_pipeline(write_cfg(tmp_path, extra=extra), out, commands)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


@pytest.mark.parametrize("config_text, report_sha256", [
    ("",
     "c5b259dc0687bdb150596c9e68c265db0d39f11ad2755703388c4bab397ebc3e"),
    ("[run]\nrng_seed = 7\n\n[verify]\nfock_n_max = 80\ndeltas = 0.02 0.3 2.0\n",
     "52cea183ccada892f38333da6b6bcbd4e29fdb9098654cd1817ebc178a989bd3"),
])
def test_verify_report_keeps_its_bytes(tmp_path, config_text, report_sha256):
    # the rows after the photon-number bound's match those of commit 5482483,
    # whose path II built a full bin projector per phase
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "verify_report.txt").read_bytes()).hexdigest()
    assert digest == report_sha256


def test_verify_artifacts(pipeline):
    root, cfg_path, out = pipeline
    lines = (out / "verify_report.txt").read_text().splitlines()
    assert lines, "verify report empty"
    assert all(line.startswith("ok") for line in lines)
    text = "\n".join(lines)
    for fragment in ("sup-bound", "bound-margin", "projector-order equivalence",
                     "leftover-hash", "infeasible-plan guard"):
        assert fragment in text


def test_seed_file_flag_reproduces_output(pipeline, tmp_path):
    root, cfg_path, shared = pipeline
    # a copy: extracting with a seed file rewrites accounting.txt's provenance
    out = tmp_path / "artifacts"
    shutil.copytree(shared, out)
    expected = (out / "output.bits").read_bytes()
    seed_path = out / "toeplitz.seed"
    code = main(["extract", "--config", cfg_path, "--out", str(out),
                 "--seed-file", str(seed_path)])
    assert code == 0
    assert (out / "output.bits").read_bytes() == expected

    short = tmp_path / "short.seed"
    short.write_bytes(b"\x00" * 10)
    code = main(["extract", "--config", cfg_path, "--out", str(out),
                 "--seed-file", str(short)])
    assert code == 2
    assert (out / "output.bits").read_bytes() == expected  # nothing clobbered


def _tree_digests(root):
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_threads_flag_does_not_change_output(tmp_path):
    # simulate's blocks, extract's batches and the battery's strings run on
    # the workers, calibrate ignores them: every artifact keeps its bytes
    cfg_path = write_cfg(tmp_path)
    trees = []
    for threads in ("1", "3"):
        out = tmp_path / f"threads-{threads}"
        for command in ("simulate", "calibrate", "extract", "test"):
            assert main([command, "--config", cfg_path, "--out", str(out),
                         "--threads", threads]) == 0
        trees.append(_tree_digests(out))
    assert trees[0] == trees[1]
    assert len(trees[0]) == 14   # 4 blocks, 2 CSVs, 3 calibration, 3 extract, 2 battery


def test_histogram_width_is_the_exact_std_of_the_raw_codes(pipeline):
    root, cfg_path, out = pipeline
    cfg = load_config(cfg_path)
    codes = np.concatenate([
        detector.read_block(out / "blocks" / f"raw_{b:04d}.bin", cfg.detector).codes
        for b in range(2)]).astype(np.int64)
    n, s1, s2 = codes.size, int(codes.sum()), int((codes * codes).sum())
    exact = math.sqrt(Fraction(n * s2 - s1 * s1, n * n))   # one rounding, then sqrt
    hist = (out / "histogram_raw_vs_vacuum.csv").read_text().splitlines()
    assert hist[1] == f"# n_samples={n} sigma_codes={exact!r}"
    assert math.isclose(exact, float(np.std(codes.astype(float))), rel_tol=1e-14)


def test_simulate_memory_does_not_grow_with_the_blocks(tmp_path):
    # the histogram is summed block by block from code counts: simulate holds
    # no raw code of earlier blocks (the autocorrelation input is fixed here)
    def peak(blocks):
        cfg_path = tmp_path / f"mem-{blocks}.cfg"
        cfg_path.write_text("[dsp]\nenabled = false\nautocorr_samples = 20000\n"
                            "autocorr_max_lag = 50\n"
                            f"[simulate]\nblocks = {blocks}\npulses = 50000\n")
        cfg = load_config(str(cfg_path),
                          overrides={"run.out_dir": str(tmp_path / f"mem-{blocks}")})
        tracemalloc.start()
        try:
            cli.cmd_simulate(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)   # warm the caches
    # holding the raw codes of the six more blocks alone would add 300 kB
    assert peak(8) - peak(2) < 256 << 10


def test_reproducible_runs_and_seed_sensitivity(pipeline, tmp_path):
    root, cfg_path, out = pipeline
    twin = tmp_path / "twin"
    run_pipeline(cfg_path, twin)
    assert (twin / "output.bits").read_bytes() == (out / "output.bits").read_bytes()
    assert (twin / "toeplitz.seed").read_bytes() == (out / "toeplitz.seed").read_bytes()
    assert (twin / "accounting.txt").read_bytes() == (out / "accounting.txt").read_bytes()
    for name in ("raw_0000.bin", "raw_0001.bin", "filtered_0000.bin",
                 "filtered_0001.bin"):
        assert ((twin / "blocks" / name).read_bytes()
                == (out / "blocks" / name).read_bytes())

    other = tmp_path / "other"
    for command in ("simulate", "calibrate", "extract"):
        assert main([command, "--config", cfg_path, "--out", str(other),
                     "--rng-seed", "12"]) == 0
    assert (other / "output.bits").read_bytes() != (out / "output.bits").read_bytes()


def test_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nbanana = 1\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_extract_without_blocks_is_config_error(tmp_path):
    cfg_path = write_cfg(tmp_path)
    assert main(["extract", "--config", cfg_path, "--out", str(tmp_path / "e")]) == 2


def test_test_without_bits_is_config_error(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "t"
    out.mkdir()
    assert main(["test", "--config", cfg_path, "--out", str(out)]) == 2


def test_block_from_another_detector_config_exits_2(tmp_path, capsys):
    body = """\
[dsp]
enabled = false

[simulate]
pulses = 20000
blocks = 1

[extractor]
h_min_override = 5.55
"""
    out = tmp_path / "o"
    (tmp_path / "a.cfg").write_text(f"[detector]\nadc_full_scale = 160\n\n{body}")
    (tmp_path / "b.cfg").write_text(f"[detector]\nadc_full_scale = 200\n\n{body}")
    run_pipeline(str(tmp_path / "a.cfg"), out, ("simulate",))
    capsys.readouterr()
    assert main(["extract", "--config", str(tmp_path / "b.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config hash mismatch" in err
    assert "raw_0000.bin" in err


EXTRACT_ARTIFACTS = ("output.bits", "accounting.txt", "toeplitz.seed")


def _truncate(path):
    """Cut the last five payload bytes off a block file."""
    path.write_bytes(path.read_bytes()[:-5])


def test_truncated_block_exits_2_before_the_calibration_is_read(tmp_path, capsys):
    # no calibration.csv would exit 3; every block file is checked first
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "o"
    run_pipeline(cfg_path, out, ("simulate",))
    _truncate(out / "blocks" / "filtered_0001.bin")
    capsys.readouterr()
    assert main(["extract", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "filtered_0001.bin" in err and "payload" in err
    assert not any((out / name).exists() for name in EXTRACT_ARTIFACTS)


def test_block_truncated_between_check_and_read_exits_2(tmp_path, capsys, monkeypatch):
    cfg_path = write_cfg(tmp_path, extra="\n[extractor]\nh_min_override = 5.55\n")
    out = tmp_path / "o"
    run_pipeline(cfg_path, out, ("simulate",))
    check_block = detector.check_block

    def check_then_truncate(path, config):
        count = check_block(path, config)
        if path.name == "filtered_0001.bin":
            _truncate(path)
        return count

    monkeypatch.setattr(detector, "check_block", check_then_truncate)
    capsys.readouterr()
    assert main(["extract", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error (config): sample block" in err and "filtered_0001.bin" in err
    assert not any((out / name).exists() for name in EXTRACT_ARTIFACTS)


def stale_cfg(dirpath, name, *, enabled, blocks, pulses=20000):
    path = dirpath / name
    path.write_text(f"""\
[run]
rng_seed = 17
timestamp = 1786752000.0

[dsp]
enabled = {"true" if enabled else "false"}
notch_taps = 801
modulation_freq = 24.5e6
notch_cutoff = 24.495e6
autocorr_max_lag = 50
autocorr_samples = 2000

[simulate]
pulses = {pulses}
blocks = {blocks}

[extractor]
h_min_override = 5.5
""")
    return str(path)


def test_extract_reads_only_the_blocks_of_its_config(tmp_path, capsys):
    # a 3-block run, then a 1-block run into the same directory: extract
    # hashes the one block the second run wrote, not the two stale ones
    out = tmp_path / "o"
    run_pipeline(stale_cfg(tmp_path, "three.cfg", enabled=False, blocks=3), out,
                 ("simulate",))
    one = stale_cfg(tmp_path, "one.cfg", enabled=False, blocks=1)
    run_pipeline(one, out, ("simulate", "extract"))
    assert "samples_in: 20000" in (out / "accounting.txt").read_text().splitlines()

    fresh = tmp_path / "fresh"
    run_pipeline(one, fresh, ("simulate", "extract"))
    assert (out / "output.bits").read_bytes() == (fresh / "output.bits").read_bytes()

    # a missing block of this config is a config error that names it
    capsys.readouterr()
    assert main(["extract", "--config",
                 stale_cfg(tmp_path, "four.cfg", enabled=False, blocks=4),
                 "--out", str(out)]) == 2
    assert "raw_0003.bin" in capsys.readouterr().err


def test_chain_off_extract_ignores_stale_filtered_blocks(tmp_path, capsys):
    # a chain-on run leaves filtered blocks; a chain-off run into the same
    # directory must hash its own raw blocks, as a fresh chain-off run does
    out = tmp_path / "o"
    on = stale_cfg(tmp_path, "on.cfg", enabled=True, blocks=1)
    run_pipeline(on, out, ("simulate",))
    off = stale_cfg(tmp_path, "off.cfg", enabled=False, blocks=1)
    run_pipeline(off, out, ("simulate", "extract"))
    fresh = tmp_path / "fresh"
    run_pipeline(off, fresh, ("simulate", "extract"))
    assert (out / "output.bits").read_bytes() == (fresh / "output.bits").read_bytes()

    # and a chain-on extract does not fall back to raw blocks
    capsys.readouterr()
    assert main(["extract", "--config", on, "--out", str(fresh)]) == 2
    assert "filtered_0000.bin" in capsys.readouterr().err


def test_skipped_autocorrelation_leaves_no_stale_csv(tmp_path, capsys):
    out = tmp_path / "o"
    run_pipeline(stale_cfg(tmp_path, "long.cfg", enabled=False, blocks=1), out,
                 ("simulate",))
    assert (out / "autocorrelation.csv").exists()
    capsys.readouterr()
    run_pipeline(stale_cfg(tmp_path, "short.cfg", enabled=False, blocks=1, pulses=300),
                 out, ("simulate",))
    assert "skipping the 50-lag autocorrelation" in capsys.readouterr().out
    assert not (out / "autocorrelation.csv").exists()


def test_extract_without_calibration_exits_3(pipeline, tmp_path):
    root, cfg_path, out = pipeline
    fresh = tmp_path / "nocal"
    fresh.mkdir()
    shutil.copytree(out / "blocks", fresh / "blocks")
    assert main(["extract", "--config", cfg_path, "--out", str(fresh)]) == 3


def test_stale_calibration_exits_3(pipeline, tmp_path):
    root, cfg_path, out = pipeline
    stale_dir = tmp_path / "stale"
    stale_dir.mkdir()
    shutil.copytree(out / "blocks", stale_dir / "blocks")
    shutil.copy(out / "calibration.csv", stale_dir / "calibration.csv")
    # calibration entry is stamped 1786752000; ask for extraction 700 s later
    # with a 600 s recalibration interval
    late_cfg = write_cfg(tmp_path, name="late.cfg")
    text = (tmp_path / "late.cfg").read_text().replace(
        "timestamp = 1786752000.0", "timestamp = 1786752700.0")
    (tmp_path / "late.cfg").write_text(text)
    assert main(["extract", "--config", late_cfg, "--out", str(stale_dir)]) == 3


def test_malformed_calibration_log_exits_3(pipeline, tmp_path, capsys):
    root, cfg_path, out = pipeline
    bad_dir = tmp_path / "badlog"
    bad_dir.mkdir()
    shutil.copytree(out / "blocks", bad_dir / "blocks")
    version, row = (out / "calibration.csv").read_text().splitlines()
    fields = row.split(",")
    fields[1] = "1.2.3"
    (bad_dir / "calibration.csv").write_text(version + "\n" + ",".join(fields) + "\n")
    assert main(["extract", "--config", cfg_path, "--out", str(bad_dir)]) == 3
    assert "calibration.csv:2: malformed log line" in capsys.readouterr().err


def test_unversioned_calibration_log_exits_3(pipeline, tmp_path, capsys):
    root, cfg_path, out = pipeline
    old_dir = tmp_path / "v1log"
    old_dir.mkdir()
    shutil.copytree(out / "blocks", old_dir / "blocks")
    (entry,) = read_log(out / "calibration.csv")
    # the version-1 layout: no version line, no r_squared
    v1 = ",".join(["2026-08-15T00:00:00Z"] + [repr(getattr(entry, f)) for f in (
        "gradient", "intercept", "gradient_stderr", "intercept_stderr", "delta",
        "delta_conservative", "h_min_bits", "operating_power", "adc_step",
        "timestamp")]) + "\n"
    (old_dir / "calibration.csv").write_text(v1)
    capsys.readouterr()
    assert main(["extract", "--config", cfg_path, "--out", str(old_dir)]) == 3
    assert "calibration.csv:1: not a version-3 calibration log" in capsys.readouterr().err
    assert not (old_dir / "output.bits").exists()
    # calibrate refuses to append a version-3 row below version-1 rows
    assert main(["calibrate", "--config", cfg_path, "--out", str(old_dir)]) == 3
    assert (old_dir / "calibration.csv").read_text() == v1
    # a version-2 log names no settings fingerprint: it certifies nothing either
    version, row = (out / "calibration.csv").read_text().splitlines()
    v2 = (version.replace(" v3: ", " v2: ").removesuffix(",fingerprint") + "\n"
          + row.rsplit(",", 1)[0] + "\n")
    (old_dir / "calibration.csv").write_text(v2)
    capsys.readouterr()
    assert main(["extract", "--config", cfg_path, "--out", str(old_dir)]) == 3
    assert "calibration.csv:1: not a version-3 calibration log" in capsys.readouterr().err
    assert not (old_dir / "output.bits").exists()


def test_drift_alarm_exits_3(pipeline, tmp_path, capsys):
    root, cfg_path, out = pipeline
    alarm_dir = tmp_path / "alarm"
    alarm_dir.mkdir()
    shutil.copytree(out / "blocks", alarm_dir / "blocks")
    shutil.copy(out / "calibration.csv", alarm_dir / "calibration.csv")
    (entry,) = read_log(out / "calibration.csv")
    # an earlier fit whose h_min is 10% lower: the two newest fits disagree
    append_log(alarm_dir / "calibration.csv",
               replace(entry, h_min_bits=0.9 * entry.h_min_bits,
                       timestamp=entry.timestamp - 1.0))
    capsys.readouterr()
    assert main(["extract", "--config", cfg_path, "--out", str(alarm_dir)]) == 3
    assert "alarm" in capsys.readouterr().err
    assert not (alarm_dir / "output.bits").exists()


HANDOFF_CONFIG = """\
[run]
timestamp = {timestamp}

[detector]
adc_full_scale = {full_scale}

[dsp]
enabled = false

[simulate]
pulses = 20000

[calibration]
samples_per_point = 20000

[extractor]
target_bits_per_sample = {target}
"""


def handoff_cfg(dirpath, timestamp, full_scale=160, target=5.4):
    path = dirpath / f"t{timestamp}_fs{full_scale}.cfg"
    path.write_text(HANDOFF_CONFIG.format(timestamp=timestamp, full_scale=full_scale,
                                          target=target))
    return str(path)


def accounting_h_min(out):
    text = (out / "accounting.txt").read_text()
    return float(re.search(r"^h_min_per_sample: (.*)$", text, re.M).group(1))


def test_out_of_order_log_certifies_with_the_newest_entry(tmp_path):
    out = tmp_path / "o"
    run_pipeline(handoff_cfg(tmp_path, 1000), out, ("simulate", "calibrate"))
    assert main(["calibrate", "--config", handoff_cfg(tmp_path, 500), "--out", str(out),
                 "--rng-seed", "99"]) == 0
    entries = read_log(out / "calibration.csv")
    assert [e.timestamp for e in entries] == [1000.0, 500.0]
    assert entries[0].h_min_bits != entries[1].h_min_bits
    # the t=500 entry, last in the file, is 600 s old at t=1100: it must not
    # certify; the t=1000 entry is the newest and is fresh
    run_pipeline(handoff_cfg(tmp_path, 1100), out, ("extract",))
    assert accounting_h_min(out) == entries[0].h_min_bits


def test_extract_before_the_calibration_time_exits_3(tmp_path, capsys):
    out = tmp_path / "o"
    run_pipeline(handoff_cfg(tmp_path, 1000), out, ("simulate", "calibrate"))
    capsys.readouterr()
    assert main(["extract", "--config", handoff_cfg(tmp_path, 500), "--out", str(out)]) == 3
    assert "precedes the calibration" in capsys.readouterr().err
    assert not (out / "output.bits").exists()


def test_calibration_from_another_adc_range_does_not_certify(tmp_path, capsys):
    out = tmp_path / "o"
    run_pipeline(handoff_cfg(tmp_path, 1000), out, ("calibrate",))
    wide = handoff_cfg(tmp_path, 1100, full_scale=400, target=4.0)
    run_pipeline(wide, out, ("simulate",))
    capsys.readouterr()
    assert main(["extract", "--config", wide, "--out", str(out)]) == 3
    assert "no calibration at adc_step 1.5625" in capsys.readouterr().err
    assert not (out / "output.bits").exists()
    # once calibrated at 400, that entry certifies, and the 160 entry's
    # higher h_min raises no drift alarm against it
    run_pipeline(wide, out, ("calibrate", "extract"))
    narrow, wide_entry = read_log(out / "calibration.csv")
    assert narrow.h_min_bits > wide_entry.h_min_bits + 1.0
    assert accounting_h_min(out) == wide_entry.h_min_bits


@pytest.mark.parametrize("change", [
    lambda text: text + "\n[detector]\nconversion_gain = 30\n",
    lambda text: text.replace("[dsp]\n", "[dsp]\nlowpass_cutoff = 40e6\n"),
], ids=["conversion_gain", "lowpass_cutoff"])
def test_calibration_at_other_settings_does_not_certify(tmp_path, capsys, change):
    # a fit at the default gain and cutoff certifies more entropy than a fit
    # at gain 30 or a 40 MHz cutoff would: it must not certify such a run
    out = tmp_path / "o"
    run_pipeline(write_cfg(tmp_path), out, ("calibrate",))
    other = tmp_path / "other.cfg"
    other.write_text(change(CFG_TEMPLATE.format(seed=SEED)))
    run_pipeline(str(other), out, ("simulate",))
    capsys.readouterr()
    assert main(["extract", "--config", str(other), "--out", str(out)]) == 3
    assert "no calibration at adc_step 0.625" in capsys.readouterr().err
    assert not (out / "output.bits").exists()


def test_verify_beyond_the_supported_fock_index_exits_2(tmp_path, capsys):
    # psi_0 underflows beyond |q| ~ 38.6, which Fock 769 reaches: at 800 the
    # sup bound's grid would miss mass the wavefunctions had lost
    cfg_path = tmp_path / "verify.cfg"
    for n, delta in ((5000, 1.0), (800, 0.1)):
        cfg_path.write_text(f"[verify]\nfock_n_max = {n}\ndeltas = {delta}\n"
                            "equivalence_states = 1\n")
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 2
        assert "fock_n_max must lie in [1, 512]" in capsys.readouterr().err


def test_notch_cutoff_at_or_above_modulation_freq_exits_2(tmp_path, capsys):
    for modulation_freq, cutoff in (("20e6", "24e6"), ("24.5e6", "24.5e6")):
        cfg_path = tmp_path / "notch.cfg"
        cfg_path.write_text(CFG_TEMPLATE.format(seed=SEED).replace(
            "modulation_freq = 24.5e6\nnotch_cutoff = 24.495e6",
            f"modulation_freq = {modulation_freq}\nnotch_cutoff = {cutoff}"))
        capsys.readouterr()
        assert main(["calibrate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "dsp.notch_cutoff" in err and "dsp.modulation_freq" in err


def test_negative_phase_width_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, extra=(
        "\n[detector]\nlo_phase_policy = wrapped\nlo_phase_width = -0.1\n"))
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "detector: lo_phase_width cannot be negative" in capsys.readouterr().err


def test_unusable_artifact_directory_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for out in (not_a_dir, not_a_dir / "sub"):
        capsys.readouterr()
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"artifact directory {out}" in capsys.readouterr().err


def test_blocks_path_taken_by_a_file_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "blocks").touch()
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"artifact directory {out / 'blocks'}" in capsys.readouterr().err


def test_calibrate_on_an_adc_too_coarse_for_the_vacuum_exits_3(tmp_path, capsys):
    # every vacuum sample quantizes to code 0: no variance to fit
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text("[detector]\nadc_bits = 2\nadc_full_scale = 1000\n\n"
                        "[dsp]\nenabled = false\n\n"
                        "[calibration]\nsamples_per_point = 10000\n")
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "vacuum sweep at lo_power 0.25: variance" in capsys.readouterr().err
    assert not (out / "calibration.csv").exists()


def test_extract_too_short_for_one_hash_block_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("[dsp]\nenabled = false\n\n[simulate]\npulses = 1000\n\n"
                        "[extractor]\nh_min_override = 5.55\n")
    out = tmp_path / "out"
    run_pipeline(str(cfg_path), out, ("simulate",))
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "1000 samples cannot fill one block of 1335" in capsys.readouterr().err
    assert not (out / "output.bits").exists()
    assert not (out / "accounting.txt").exists()


def test_oversize_plan_exits_2_before_the_seed_is_made(tmp_path, capsys):
    # 2000 samples against blocks of N = 20000: the 267999-bit seed and its
    # float64 spectrum, over 4 MB, must not be made before the refusal
    cfg_path = tmp_path / "oversize.cfg"
    cfg_path.write_text("[dsp]\nenabled = false\n\n[simulate]\npulses = 2000\n\n"
                        "[extractor]\nh_min_override = 5.41\n")
    out = tmp_path / "out"
    run_pipeline(str(cfg_path), out, ("simulate",))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["extract", "--config", str(cfg_path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert ("error (config): extractor: 2000 samples cannot fill one block of 20000"
            in capsys.readouterr().err)
    assert peak < 1 << 20
    assert not any((out / name).exists() for name in EXTRACT_ARTIFACTS)


@pytest.mark.parametrize("extractor_keys, code", [
    ("h_min_override = 0", 2),
    ("h_min_override = -1", 2),
    ("h_min_override = 9", 2),                       # above the 8-bit samples
    ("h_min_override = 5.55\nepsilon_log2 = -0.5", 2),  # epsilon 0.707
    ("h_min_override = 5.55\nepsilon_log2 = -2000", 2),  # epsilon underflows to 0.0
    ("h_min_override = 5.55\ntarget_bits_per_sample = 5.55", 4),
    ("h_min_override = 5.55\ntarget_bits_per_sample = 6", 4),
], ids=["h_zero", "h_negative", "h_above_bits", "epsilon_above_half",
        "epsilon_underflow", "target_at_h", "target_above_h"])
def test_certificate_inputs_exit_codes(tmp_path, capsys, extractor_keys, code):
    # a certificate extract could never issue is refused at load, so the
    # first stage fails before it writes a block; only the plan's
    # feasibility waits for extract
    cfg_path = tmp_path / "cert.cfg"
    cfg_path.write_text("[dsp]\nenabled = false\n\n[simulate]\npulses = 2000\n\n"
                        f"[extractor]\n{extractor_keys}\n")
    out = tmp_path / "out"
    for command in ("simulate", "extract"):
        expected = 2 if code == 2 else {"simulate": 0, "extract": code}[command]
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == expected
        err = capsys.readouterr().err
        if expected:
            assert ("error (config): extractor: " if code == 2
                    else "error (infeasible plan)") in err
    assert (out / "blocks").exists() == (code != 2)
    assert not any((out / name).exists() for name in EXTRACT_ARTIFACTS)


def test_failed_extract_writes_no_seed_file(tmp_path, capsys):
    # the seed file is written only beside the output bits it hashed
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("[dsp]\nenabled = false\n\n[simulate]\npulses = 1000\n\n"
                        "[extractor]\nh_min_override = 5.55\n")
    out = tmp_path / "out"
    run_pipeline(str(cfg_path), out, ("simulate",))
    assert main(["extract", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not (out / "toeplitz.seed").exists()


def test_chain_without_a_noise_factor_exits_2(tmp_path, capsys, monkeypatch):
    # no accepted [dsp] setting was found whose noise spectrum vanishes, so
    # the factor's spectrum is reported as not positive
    cfg_path = write_cfg(tmp_path)
    dsp.pulse_rate_filters.cache_clear()
    monkeypatch.setattr(dsp, "_min_phase_factor", lambda r, size: None)
    try:
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    finally:
        monkeypatch.undo()
        dsp.pulse_rate_filters.cache_clear()
    err = capsys.readouterr().err
    assert "error (config): dsp:" in err and "dsp.oversample" in err


def test_unwritable_artifact_path_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    (out / "calibration.csv").mkdir(parents=True)
    assert main(["calibrate", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{out / 'calibration.csv'}: Is a directory" in capsys.readouterr().err


def _margin_below_zero(n_max):
    # below the vacuum's peak 1/sqrt(pi) = 0.56419, above erf(delta/2) / delta
    # at both of the config's widths (0.56372 at 0.1, 0.55265 at 0.5)
    return 0.564


def _violation(n_max):
    # a bound that is no number proves nothing
    return math.nan


@pytest.mark.parametrize("check", [_margin_below_zero, _violation])
def test_failing_verify_check_is_one_fail_row_and_exits_5(tmp_path, capsys,
                                                          monkeypatch, check):
    monkeypatch.setattr(entropy, "sdi_bound_check", check)
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 5
    lines = (out / "verify_report.txt").read_text().splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    margins = [line for line in failed if line.startswith("FAIL bound-margin delta=")]
    assert len(margins) == 2
    assert set(failed) - set(margins) == (
        set() if check is _margin_below_zero
        else {line for line in lines if line.startswith("FAIL sup-bound")})
    assert all(line.startswith("ok   ") for line in lines if line not in failed)
    assert capsys.readouterr().err == f"error (verification): {'; '.join(failed)}\n"


@pytest.mark.parametrize("delta, code", [("2.1", 5), ("2.0", 0)])
def test_verify_fails_above_the_widest_certified_delta(tmp_path, capsys, delta, code):
    # delta * S meets erf(delta/2) at delta* ~ 2.049
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text(f"[verify]\ndeltas = {delta}\nequivalence_states = 1\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == code
    row = [line for line in (out / "verify_report.txt").read_text().splitlines()
           if "bound-margin" in line]
    assert len(row) == 1 and row[0].startswith("FAIL" if code else "ok  ")


def test_verify_with_a_subnormal_delta_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text("[verify]\ndeltas = 0.1 5e-324\n")
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 2
    assert "deltas down to 5e-324 are subnormal" in capsys.readouterr().err


def test_infeasible_plan_exits_4(pipeline, tmp_path):
    root, cfg_path, out = pipeline
    cfg2 = write_cfg(tmp_path, name="infeasible.cfg", extra=(
        "\n[extractor]\nh_min_override = 5.0\ntarget_bits_per_sample = 5.0\n"))
    assert main(["extract", "--config", cfg2, "--out", str(out)]) == 4


def test_failing_battery_exits_5(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "zeros"
    out.mkdir()
    (out / "output.bits").write_bytes(b"\x00" * 6250)  # 50000 zero bits
    (out / "accounting.txt").write_text("output_bits: 50000\n")
    assert main(["test", "--config", cfg_path, "--out", str(out)]) == 5
    assert "overall: FAIL" in (out / "battery.txt").read_text()


def test_battery_tests_only_the_accounted_bits(tmp_path):
    # 11 strings of 5000 bits less 3: the zero padding of the last byte
    # would complete an eleventh string of which three bits are not data
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "short"
    out.mkdir()
    n_bits = 11 * 5000 - 3
    bits = np.random.default_rng(3).integers(0, 2, n_bits, dtype=np.uint8)
    (out / "output.bits").write_bytes(np.packbits(bits).tobytes())
    (out / "accounting.txt").write_text(f"blocks: 1\noutput_bits: {n_bits}\n")
    assert main(["test", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "battery.txt").read_text().startswith("strings: 10 x 5000 bits")


@pytest.mark.parametrize("accounting", [
    None,                                   # missing
    "output_bits 50000\n",                  # no "key: value" separator
    "output_bits: 50000\noutput_bits: 50000\n",
    "blocks: 1\n",                          # no output_bits
    "output_bits: -8\n",
    "output_bits: 5e4\n",
    "output_bits: 49992\n",                 # output.bits holds one byte more
    "output_bits: 50001\n",                 # output.bits holds one byte less
])
def test_test_without_matching_accounting_exits_2(tmp_path, accounting):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "bits"
    out.mkdir()
    (out / "output.bits").write_bytes(b"\x5a" * 6250)
    if accounting is not None:
        (out / "accounting.txt").write_text(accounting)
    assert main(["test", "--config", cfg_path, "--out", str(out)]) == 2
    assert not (out / "battery.txt").exists()


def test_chain_disabled_pipeline(tmp_path):
    (tmp_path / "nodsp.cfg").write_text("""\
[run]
rng_seed = 13
timestamp = 1786752000.0

[dsp]
enabled = false
autocorr_max_lag = 50
autocorr_samples = 2000

[simulate]
pulses = 30000
blocks = 1

[calibration]
samples_per_point = 50000

[stats]
string_bits = 5000
""")
    out = tmp_path / "nodsp"
    run_pipeline(str(tmp_path / "nodsp.cfg"), out,
                 ("simulate", "calibrate", "extract", "test"))
    assert (out / "blocks" / "raw_0000.bin").exists()
    assert not (out / "blocks" / "filtered_0000.bin").exists()
    assert (out / "output.bits").stat().st_size > 0


def test_output_bits_look_balanced(pipeline):
    root, cfg_path, out = pipeline
    raw = np.frombuffer((out / "output.bits").read_bytes(), np.uint8)
    bits = np.unpackbits(raw)
    # mean of n fair bits is 0.5 within 5 binomial sigmas
    assert abs(bits.mean() - 0.5) < 5 * 0.5 / np.sqrt(bits.size)


def test_accounting_reports_the_clip_count_of_simulate(tmp_path, capsys):
    # a narrow ADC range clips the Fock-1 half of the mixture
    (tmp_path / "clip.cfg").write_text("""\
[source]
kind = mixture
mixture = 0.5:0 0.5:1

[detector]
adc_full_scale = 60

[dsp]
enabled = false

[simulate]
pulses = 200000
blocks = 2

[extractor]
h_min_override = 5.55
""")
    out = tmp_path / "clip"
    run_pipeline(str(tmp_path / "clip.cfg"), out, ("simulate", "extract"))
    printed = capsys.readouterr().out
    clipped = int(re.search(r"simulate: (\d+) of 400000 samples clipped",
                            printed).group(1))
    assert clipped > 0
    assert f"clipped_samples: {clipped}\n" in (out / "accounting.txt").read_text()


def test_extract_prints_measured_throughput_beside_equivalent_rate(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, extra=(
        "\n[extractor]\nh_min_override = 5.55\n"))
    out = tmp_path / "rate"
    run_pipeline(cfg_path, out, ("simulate", "extract"))
    lines = capsys.readouterr().out.splitlines()
    rate = next(i for i, line in enumerate(lines)
                if line.startswith("extract: equivalent rate "))
    measured = re.fullmatch(r"extract: measured hashing throughput (\d+\.\d\d) Mbit/s "
                            r"\((\d+\.\d{3}) s on 1 thread\(s\)\)", lines[rate + 1])
    assert measured and float(measured.group(1)) > 0
    # a wall-clock figure would break reproducible artifacts
    assert "throughput" not in (out / "accounting.txt").read_text()
