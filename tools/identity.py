"""Byte identity of every CLI output between the working tree and a revision.

    python tools/identity.py --parent <rev> [--work DIR]

Runs one fixed matrix of `minircnn` commands twice: once with the package
sources of the working tree, once with those of `<rev>` (exported with `git
archive`, so the repository gains no worktree entry). Under the TINY config
below, which tests/test_cli.py also runs, the matrix makes train and test
data, runs the four trainings (the one-stage one also at a `detector.fg_iou`
of 1, where no window is foreground), `propose` and `eval-recall` on every
checkpoint that holds an RPN, `detect` and `eval-map` on every detector
checkpoint, `propose` and `detect` at NMS thresholds so small that NMS prunes
by overlap alone, `bench`, all five `ablate` modes and a set of rejected
inputs. Among the rejected inputs are a manifest that lists one image twice,
`eval-map` at fewer classes than the data hold, list keys with an empty
entry, a checkpoint entry that declares far more data than its file holds, a
byte that is not UTF-8 in a `--config` file, in a manifest line after a test
image's and in a proposals CSV row, and a manifest image name holding a
comma. Accepted besides are one order of `--set`s, a `train-rpn` run that
reads the first one's `config.txt` as its `--config`, and `train-joint` and
`train-onestage` on one image without objects. `run_side` writes those
files, the manifests that repeat an image and that hold one image without
objects, and a detections CSV with no rows before the matrix runs.
Under the default config at 96 px it makes data, runs `train-joint`, and runs
`propose` (also at a lower NMS threshold), `detect`, `eval-map` and `ablate
--mode no-cls` on its checkpoint. Under TINY at 50 px, where the feature maps
have odd sides, it makes data, runs `train-joint`, `propose` and `detect` on
its checkpoint, and `detect` with the 48 px one-stage checkpoint. At the
default 128 px it makes crowded data, up to 16 objects a scene.

Every file written is compared byte for byte, except `timing.csv`, whose
figures are wall-clock times and which is compared by its row names. Exit
codes, stdout and stderr are compared with the output directory masked. The
report names the numpy and BLAS build, the line count of `src/minircnn` on
each side, each difference, and ends in one verdict line. A text file that
differs is shown by its first differing lines, a checkpoint by each entry
that differs, with how many of its values differ and the largest difference
in float32 units in the last place. Exit status 0 means identical, 1
different, 2 unusable (a revision that does not export, or a `--work`
directory that is not empty).
"""
from __future__ import annotations

import argparse
import io
import os
import platform
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
from minircnn.nn import load_checkpoint  # noqa: E402

# the small config of the matrix, which tests/test_cli.py runs too
TINY = [
    "--set", "data.image_size", "48",
    "--set", "data.max_objects", "2",
    "--set", "backbone.channels", "4,8,8,8",
    "--set", "anchors.scales", "8,16",
    "--set", "anchors.ratios", "1,2",
    "--set", "rpn.head_dim", "8",
    "--set", "detector.rois_per_image", "8",
    "--set", "proposals.pre_nms_top", "100",
    "--set", "proposals.post_nms_top_train", "50",
    "--set", "proposals.post_nms_top_test", "20",
]
SEED = ["--seed", "11"]
# one thread everywhere, so a BLAS call sums in the same order on both sides
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def one_entry_checkpoint(name: str, shape) -> bytes:
    """A checkpoint of one entry `name` that declares `shape` and holds no data."""
    raw = name.encode()
    return (b"FRPN" + struct.pack("<IIH", 1, 1, len(raw)) + raw
            + struct.pack(f"<B{len(shape)}I", len(shape), *shape))


@dataclass(frozen=True)
class Case:
    """One `minircnn` command; `{root}` in `argv` is the side's output root,
    and the command writes under `{root}/<name>`."""
    name: str
    argv: tuple[str, ...]


def matrix() -> list[Case]:
    cases = []

    def add(name, command, *args, out=True):
        argv = [command, *(["--out", f"{{root}}/{name}"] if out else []), *args]
        cases.append(Case(name, tuple(argv)))

    train, test = "{root}/train", "{root}/test"
    manifest = f"{test}/manifest.jsonl"
    ckpt = {"rpn": "{root}/train-rpn/rpn.frpn", "final": "{root}/train-alt/final.frpn",
            "joint": "{root}/train-joint/joint.frpn",
            "onestage": "{root}/train-onestage/onestage.frpn"}

    add("train", "gen-data", "--n", "4", *TINY, *SEED)
    add("test", "gen-data", "--n", "3", *TINY, "--seed", "12")
    add("train-rpn", "train-rpn", "--data", train, "--iters", "4", *TINY, *SEED)
    for command in ("train-alt", "train-joint", "train-onestage"):
        add(command, command, "--data", train, "--iters", "3", *TINY, *SEED)
    # no window of this data matches a gt box exactly, so at fg_iou 1 every
    # step samples no foreground and runs the loss's no-foreground branch
    add("train-onestage-fg-iou-1", "train-onestage", "--data", train, "--iters", "3",
        *TINY, *SEED, "--set", "detector.fg_iou", "1")
    for name in ("rpn", "final", "joint"):
        add(f"propose-{name}", "propose", "--ckpt", ckpt[name], "--data", test,
            "--n", "10", *TINY, *SEED)
        add(f"eval-recall-{name}", "eval-recall", "--proposals",
            f"{{root}}/propose-{name}/proposals.csv", "--manifest", manifest,
            "--n", "10", *TINY, *SEED)
    for name in ("final", "joint", "onestage"):
        add(f"detect-{name}", "detect", "--ckpt", ckpt[name], "--data", test,
            *TINY, *SEED)
        add(f"eval-map-{name}", "eval-map", "--detections",
            f"{{root}}/detect-{name}/detections.csv", "--manifest", manifest,
            *TINY, *SEED)
    # thresholds below ~1e-260: NMS prunes with tau = 0, by overlap alone
    add("propose-rpn-nms-1e-300", "propose", "--ckpt", ckpt["rpn"], "--data", test,
        *TINY, *SEED, "--set", "proposals.nms_iou", "1e-300")
    add("detect-final-nms-5e-324", "detect", "--ckpt", ckpt["final"], "--data", test,
        *TINY, *SEED, "--set", "detector.nms_iou", "5e-324")
    for name in ("final", "onestage"):
        add(f"bench-{name}", "bench", "--ckpt", ckpt[name], "--data", test,
            "--n-warmup", "0", "--n-timed", "2", *TINY, *SEED)
    ablate = ["--data", test, "--ckpt", ckpt["rpn"], *TINY, *SEED]
    add("ablate-no-reg", "ablate", "--mode", "no-reg", "--n", "10", *ablate)
    # above TINY's proposals.post_nms_top_test of 20, and far below it: the
    # recall of the top 2 differs from the top 20's, so the ranked count shows
    add("ablate-no-reg-n30", "ablate", "--mode", "no-reg", *ablate, "--n", "30")
    add("ablate-no-reg-n2", "ablate", "--mode", "no-reg", *ablate, "--n", "2")
    add("ablate-no-cls", "ablate", "--mode", "no-cls", "--n", "10", *ablate)
    add("ablate-n-sweep", "ablate", "--mode", "n-sweep", "--budgets", "5", "10",
        *ablate)
    add("ablate-anchor-settings", "ablate", "--mode", "anchor-settings", "--n", "10",
        "--iters", "2", *ablate)
    add("ablate-lambda-sweep", "ablate", "--mode", "lambda-sweep", "--n", "10",
        "--iters", "2", "--lambdas", "1", "10", *ablate)

    # the default config at 96 px: 1,296 anchors, the cap of 300 proposals
    # and 64-channel RoI pooling, which TINY's 48 px scenes never reach
    px96 = ["--set", "data.image_size", "96"]
    on96 = ["--ckpt", "{root}/train-joint-96/joint.frpn", "--data", "{root}/test-96",
            *px96, *SEED]
    add("train-96", "gen-data", "--n", "2", *px96, *SEED)
    add("test-96", "gen-data", "--n", "2", *px96, "--seed", "12")
    add("train-joint-96", "train-joint", "--data", "{root}/train-96", "--iters", "2",
        *px96, *SEED)
    add("propose-96", "propose", *on96)
    # at this threshold the first 600 proposals keep fewer than 300, so the
    # capped NMS call extends its prefix twice
    add("propose-96-nms-0.4", "propose", *on96, "--set", "proposals.nms_iou", "0.4")
    add("detect-96", "detect", *on96)
    add("eval-map-96", "eval-map", "--detections", "{root}/detect-96/detections.csv",
        "--manifest", "{root}/test-96/manifest.jsonl", *px96, *SEED)
    # its 64 px anchors overlap above proposals.nms_iou, so NMS would drop some
    add("ablate-no-cls-96", "ablate", "--mode", "no-cls", *on96)

    # crowded 128 px scenes: many placements rejected for overlap, and many
    # shapes of each class rasterised
    add("crowded", "gen-data", "--n", "8", "--set", "data.max_objects", "16", *SEED)

    # TINY at 50 px, whose maps go 50 -> 25 -> 13 -> 7: maxpool2x2 pads odd
    # maps with zeros and copies its backward's crop, and grid_size rounds up
    px50 = [*TINY, "--set", "data.image_size", "50"]
    on50 = ["--data", "{root}/test-50", *px50, *SEED]
    add("train-50", "gen-data", "--n", "4", *px50, *SEED)
    add("test-50", "gen-data", "--n", "3", *px50, "--seed", "12")
    add("train-joint-50", "train-joint", "--data", "{root}/train-50", "--iters", "2",
        *px50, *SEED)
    add("propose-50", "propose", "--ckpt", "{root}/train-joint-50/joint.frpn", *on50)
    add("detect-50", "detect", "--ckpt", "{root}/train-joint-50/joint.frpn", *on50)
    add("detect-onestage-50", "detect", "--ckpt", ckpt["onestage"], *on50)

    # rejected inputs; each `--set` comes after TINY's, so that it wins
    data = ["--data", train, *TINY, *SEED]
    add("reject-usage", "gen-data", out=False)
    add("reject-unknown-key", "gen-data", "--n", "1", "--set", "no.such.key", "1")
    add("reject-missing-data", "train-rpn", "--data", "{root}/nope", "--iters", "1")
    add("reject-iou-key", "train-joint", *data, "--iters", "2", "--set",
        "proposals.nms_iou", "1.5")
    add("reject-neg-above-pos", "train-rpn", *data, "--iters", "1", "--set",
        "rpn.neg_iou", "0.8")
    add("reject-max-pos", "train-alt", *data, "--iters", "1", "--set", "rpn.max_pos",
        "-1")
    add("reject-rois-per-image", "train-onestage", *data, "--iters", "1", "--set",
        "detector.rois_per_image", "0")
    add("reject-all-skipped", "train-rpn", *data, "--iters", "2", "--set",
        "anchors.scales", "64,128")
    add("reject-all-skipped-onestage", "train-onestage", *data, "--iters", "2", "--set",
        "anchors.scales", "64,128")
    add("reject-missing-head", "detect", "--ckpt", ckpt["rpn"], "--data", test,
        *TINY, *SEED)
    add("reject-no-ckpt", "ablate", "--mode", "no-reg", "--data", test)
    add("reject-n-timed", "bench", "--ckpt", ckpt["final"], "--data", test,
        "--n-timed", "0", *TINY)
    add("reject-bench-empty", "bench", "--ckpt", ckpt["final"], "--data",
        "{root}/empty", *TINY)
    add("reject-budgets", "ablate", "--mode", "n-sweep", *ablate)
    add("reject-iters", "train-rpn", *data, "--iters", "-3")
    add("reject-n-images", "gen-data", *TINY, "--n", "0")
    add("reject-min-size", "train-rpn", *data, "--iters", "1", "--set",
        "proposals.min_size", "-1")
    add("reject-momentum", "train-rpn", *data, "--iters", "1", "--set",
        "train.momentum", "1.5")
    add("reject-image-size", "gen-data", "--n", "1", *TINY, "--set",
        "data.image_size", "4")
    add("reject-max-objects", "gen-data", "--n", "1", *TINY, "--set",
        "data.max_objects", "101")
    add("reject-max-per-image", "detect", "--ckpt", ckpt["final"], "--data", test,
        *TINY, *SEED, "--set", "detector.max_per_image", "-1")
    add("reject-propose-n", "propose", "--ckpt", ckpt["rpn"], "--data", test,
        *TINY, *SEED, "--n", "0")
    add("reject-min-size-nan", "propose", "--ckpt", ckpt["rpn"], "--data", test,
        *TINY, *SEED, "--set", "proposals.min_size", "nan")
    add("reject-eval-recall-n", "eval-recall", "--proposals",
        "{root}/propose-rpn/proposals.csv", "--manifest", manifest, "--n", "-3",
        *TINY, *SEED)
    add("reject-lambdas", "ablate", "--mode", "lambda-sweep", "--lambdas", "0",
        *ablate)
    add("reject-n-warmup", "bench", "--ckpt", ckpt["final"], "--data", test,
        "--n-warmup", "-1", *TINY)
    add("reject-repeated-image", "detect", "--ckpt", ckpt["final"], "--data",
        "{root}/repeated", *TINY, *SEED)
    # the test data hold class 3, which a 2-class evaluation would drop
    add("reject-eval-map-classes", "eval-map", "--detections",
        "{root}/empty/detections.csv", "--manifest", manifest, *TINY, *SEED,
        "--set", "detector.n_classes", "2")
    # an empty list entry is an error, not a shorter list
    add("reject-empty-channel", "train-rpn", *data, "--iters", "1", "--set",
        "backbone.channels", "4,8,,8,8")
    add("reject-empty-scale", "propose", "--ckpt", ckpt["rpn"], "--data", test,
        *TINY, *SEED, "--set", "anchors.scales", "8,16,")
    # an entry of 2**62 floats in a file of 39 bytes
    add("reject-oversized-entry", "detect", "--ckpt", "{root}/oversized.frpn",
        "--data", test, *TINY, *SEED)
    # a byte that is not UTF-8, in each of the three text readers
    add("reject-config-not-utf8", "gen-data", "--n", "1", "--config",
        "{root}/not-utf8.cfg")
    add("reject-manifest-not-utf8", "detect", "--ckpt", ckpt["final"], "--data",
        "{root}/not-utf8", *TINY, *SEED)
    add("reject-proposals-not-utf8", "eval-recall", "--proposals",
        "{root}/not-utf8.csv", "--manifest", manifest, *TINY, *SEED)
    # an image name that a proposals or detections CSV row cannot carry back
    add("reject-manifest-comma", "detect", "--ckpt", ckpt["final"], "--data",
        "{root}/comma", *TINY, *SEED)
    # accepted: a run's config.txt read back as its --config file
    add("config-train-rpn", "train-rpn", "--data", train, "--config",
        "{root}/train-rpn/config.txt")
    # accepted: one training image without objects, so every anchor and
    # window is labelled against no ground truth
    for command in ("train-joint", "train-onestage"):
        add(f"{command}-no-objects", command, "--data", "{root}/no-objects", "--iters",
            "2", *TINY, *SEED)
    # accepted: the pairs of keys are checked once every `--set` is applied
    add("set-order", "train-rpn", *data, "--iters", "1", "--set", "rpn.neg_iou",
        "0.8", "--set", "rpn.pos_iou", "0.9")
    return cases


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str


def run_side(src: Path, root: Path, cases: list[Case]) -> dict[str, Outcome]:
    """`cases` with the package under `src`, writing under `root`."""
    root.mkdir(parents=True)
    (root / "empty").mkdir()
    (root / "empty" / "manifest.jsonl").write_text("")
    (root / "empty" / "detections.csv").write_text("image,class,score,x1,y1,x2,y2\n")
    (root / "repeated").mkdir()
    line = '{"image": "../test/images/000000.ppm", "width": 48, "height": 48, "objects": []}'
    (root / "repeated" / "manifest.jsonl").write_text(f"{line}\n{line}\n")
    (root / "no-objects").mkdir()
    (root / "no-objects" / "manifest.jsonl").write_text(
        line.replace("../test/", "../train/") + "\n")
    (root / "oversized.frpn").write_bytes(
        one_entry_checkpoint("backbone.conv1.w", (2**31, 2**31)))
    (root / "not-utf8.cfg").write_bytes(b"seed=\xff\n")
    (root / "not-utf8").mkdir()
    (root / "not-utf8" / "manifest.jsonl").write_bytes(
        f"{line}\n".encode() + b"\xff\n")
    (root / "comma").mkdir()
    (root / "comma" / "manifest.jsonl").write_text(
        line.replace("../test/images/000000.ppm", "images/a,b.ppm") + "\n")
    (root / "not-utf8.csv").write_bytes(
        b"image,rank,score,x1,y1,x2,y2\nimages/000000.ppm,0,0.5,1,1,\xff,5\n")
    env = dict(os.environ, PYTHONPATH=str(src), **ENV)
    outcomes = {}
    for case in cases:
        argv = [a.replace("{root}", str(root)) for a in case.argv]
        done = subprocess.run([sys.executable, "-m", "minircnn", *argv], env=env,
                              cwd=root, capture_output=True, text=True, timeout=600)
        stdout = done.stdout
        if case.argv[0] == "bench":     # bench echoes its timing.csv
            stdout = comparable("timing.csv", stdout.encode()).decode()
        outcomes[case.name] = Outcome(done.returncode,
                                      stdout.replace(str(root), "<out>"),
                                      done.stderr.replace(str(root), "<out>"))
    return outcomes


def export_src(rev: str, dest: Path) -> Path:
    """The `src/` tree of revision `rev`, written under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=REPO,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return dest / "src"


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def comparable(name: str, data: bytes) -> bytes:
    """A file as compared: `timing.csv` by the first field of each row."""
    if Path(name).name == "timing.csv":
        return b"\n".join(line.split(b",")[0] for line in data.splitlines())
    return data


def line_diff(a: bytes, b: bytes, limit: int = 4) -> list[str]:
    """The first lines at which two text files differ, as `-parent +tree`."""
    try:
        la, lb = a.decode().splitlines(), b.decode().splitlines()
    except UnicodeDecodeError:
        return [f"binary, {len(a)} against {len(b)} bytes"]
    out = []
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "<none>"
        y = lb[i] if i < len(lb) else "<none>"
        if x != y:
            out.append(f"line {i + 1}: -{x} +{y}")
    return out[:limit] + ([f"... {len(out) - limit} more lines"] if len(out) > limit
                          else [])


def float32_ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| per value in float32 units in the last place (the two zeros
    are 0 apart)."""
    def ordered(x):
        i = x.view(np.int32).astype(np.int64)
        return np.where(i < 0, -(i & 0x7FFFFFFF), i)

    return np.abs(ordered(a) - ordered(b))


def checkpoint_diff(a: Path, b: Path) -> list[str]:
    """Each entry in which two checkpoints differ, in file order: how many of
    its values differ and by how many float32 ulps at most."""
    try:
        ea, eb = load_checkpoint(a), load_checkpoint(b)
    except ValueError as exc:
        return [f"unreadable: {exc}"]
    out = []
    for name in dict.fromkeys([*ea, *eb]):
        x, y = ea.get(name), eb.get(name)
        if x is None or y is None:
            out.append(f"{name}: only in {'parent' if y is None else 'tree'}")
        elif x.shape != y.shape:
            out.append(f"{name}: shape {x.shape} against {y.shape}")
        elif x.tobytes() != y.tobytes():
            n = np.count_nonzero(x.view(np.int32) != y.view(np.int32))
            out.append(f"{name}: {n} of {x.size} values differ, by at most "
                       f"{float32_ulps(x, y).max()} ulp")
    return out


def build_facts() -> str:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
            f"{platform.machine()}, threads pinned: "
            + " ".join(f"{k}={v}" for k, v in ENV.items()))


def package_lines(src: Path) -> int:
    """The line count of the package's modules, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "minircnn").glob("*.py"))


def compare(parent: dict, tree: dict, parent_root: Path,
            tree_root: Path) -> tuple[list[tuple[str, list[str]]], int]:
    """Each difference, as a heading and the first lines that differ, and
    the number of files compared."""
    diffs = []
    for name, a in parent.items():
        b = tree[name]
        if a.code != b.code:
            diffs.append((f"{name}: exit code differs", [f"-{a.code} +{b.code}"]))
        for what in ("stdout", "stderr"):
            x, y = getattr(a, what), getattr(b, what)
            if x != y:
                diffs.append((f"{name}: {what} differs",
                              line_diff(x.encode(), y.encode())))
    fa, fb = files(parent_root), files(tree_root)
    for name in sorted(fa.keys() | fb.keys()):
        if name not in fa or name not in fb:
            diffs.append((f"{name}: only in {'parent' if name in fa else 'tree'}", []))
        elif comparable(name, fa[name]) != comparable(name, fb[name]):
            diffs.append((f"{name}: differs",
                          checkpoint_diff(parent_root / name, tree_root / name)
                          if name.endswith(".frpn") else line_diff(fa[name], fb[name])))
    return diffs, len(fa.keys() | fb.keys())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--work", help="directory for both runs (kept); default: a "
                    "temporary directory, removed afterwards")
    args = ap.parse_args(argv)
    work = Path(args.work) if args.work else None
    if work and work.exists() and (not work.is_dir() or any(work.iterdir())):
        print(f"identity: --work {work} is not an empty directory", file=sys.stderr)
        return 2
    work = work or Path(tempfile.mkdtemp(prefix="identity-"))
    try:
        try:
            parent_src = export_src(args.parent, work / "parent-src")
        except subprocess.CalledProcessError as exc:
            print(f"identity: cannot export {args.parent}: {exc.stderr.decode()}",
                  file=sys.stderr)
            return 2
        print(build_facts())
        print(f"src/minircnn: {package_lines(parent_src)} lines at {args.parent}, "
              f"{package_lines(REPO / 'src')} in the working tree")
        parent = run_side(parent_src, work / "parent", matrix())
        tree = run_side(REPO / "src", work / "tree", matrix())
        diffs, n_files = compare(parent, tree, work / "parent", work / "tree")
        for heading, details in diffs:
            print(heading, *(f"    {d}" for d in details), sep="\n")
        verdict = f"different in {len(diffs)} places" if diffs else "identical"
        print(f"verdict: {verdict} ({len(parent)} commands, {n_files} files; "
              f"{args.parent} against the working tree)")
        return 1 if diffs else 0
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
