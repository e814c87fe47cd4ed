"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_methods_lists_all(capsys):
    assert main(["methods"]) == 0
    out = capsys.readouterr().out.split()
    assert "dm" in out and "rs" in out and "random" in out


def test_datasets_lists_all(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out.split()
    assert "yelp" in out and "twitter-mask" in out


def test_select_runs_small(capsys):
    code = main(
        [
            "select",
            "--dataset", "yelp",
            "--users", "120",
            "--horizon", "3",
            "--method", "dc",
            "-k", "3",
            "--seed", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "seeds:" in out
    assert "->" in out


@pytest.mark.parametrize("engine", ["dm", "dm-batched", "dm-mp", "dm-mp:2", "rw", "sketch"])
def test_select_engine_choices(capsys, engine):
    code = main(
        [
            "select",
            "--dataset", "yelp",
            "--users", "100",
            "--horizon", "3",
            "--method", "dm",
            "--engine", engine,
            "-k", "2",
            "--seed", "1",
        ]
    )
    assert code == 0
    assert "seeds:" in capsys.readouterr().out


def test_select_engine_dm_variants_agree(capsys):
    """Exact engines must print identical seeds and scores."""
    outs = []
    for engine in ("dm", "dm-batched", "dm-mp:2"):
        assert main(
            [
                "select",
                "--dataset", "twitter-mask",
                "--users", "120",
                "--horizon", "4",
                "--method", "dm",
                "--engine", engine,
                "-k", "3",
                "--seed", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        outs.append(
            (out.splitlines()[-1], out.splitlines()[-2].split("(")[0])
        )  # seeds line + score line sans timing
    assert outs[0] == outs[1] == outs[2]


def test_unknown_engine_rejected(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["select", "--method", "dm", "--engine", "warp-drive"]
        )


@pytest.mark.parametrize("bad", ["dm-mp:", "dm-mp:0", "dm-mp:-2", "dm-mp:two"])
def test_malformed_worker_spec_surfaces_registry_error(capsys, bad):
    """Malformed dm-mp:<workers> specs exit with the engine registry's
    ValueError message (names every spec and the dm-mp:<workers> form)."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["select", "--method", "dm", "--engine", bad])
    err = capsys.readouterr().err
    assert "unknown engine" in err
    assert "dm-mp:<workers>" in err
    from repro.core.engine import ENGINE_NAMES

    for name in ENGINE_NAMES:
        assert name in err


def test_select_p_approval(capsys):
    code = main(
        [
            "select",
            "--dataset", "twitter-mask",
            "--users", "100",
            "--horizon", "2",
            "--method", "pr",
            "--score", "p-approval",
            "--p", "2",
            "-k", "2",
        ]
    )
    assert code == 0


def test_winmin_small(capsys):
    code = main(
        [
            "winmin",
            "--dataset", "twitter-mask",
            "--users", "150",
            "--horizon", "3",
            "--method", "dm",
            "--kmax", "80",
        ]
    )
    out = capsys.readouterr().out
    assert ("k* =" in out) or ("cannot win" in out)
    assert code in (0, 1)


def test_case_study_small(capsys):
    code = main(
        ["case-study", "--users", "150", "--horizon", "3", "-k", "5",
         "--method", "dc"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "votes for target" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["net-worker", "--port", "70000"], "--port"),
        (["serve", "--port", "70000"], "--port"),
        (["select", "-k", "-1"], "-k"),
        (["select", "--users", "0"], "--users"),
        (["select", "--horizon", "-2"], "--horizon"),
        (["winmin", "--kmax", "0"], "--kmax"),
        (["select", "--p", "0"], "--p"),
        (["net-worker", "--connections", "0"], "--connections"),
        (["net-worker", "--connections", "-1"], "--connections"),
        (["serve-load", "--port", "0"], "--port"),
        (["serve-load", "--port", "70000"], "--port"),
        (["serve-load", "--port", "1", "--requests", "-3"], "--requests"),
        (["serve-load", "--port", "1", "--connections", "-2"], "--connections"),
        (["serve-load", "--port", "1", "--seed", "-1"], "--seed"),
    ],
)
def test_out_of_range_numeric_flags_are_usage_errors(capsys, argv, flag):
    """Out-of-range numeric flags exit 2 with argparse's usage line
    naming the flag; none gets as far as a traceback or a silent run."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["select", "--users", "3", "--horizon", "2"], "cannot build the dataset"),
        (
            ["select", "--users", "50", "--horizon", "2", "-k", "51"],
            "-k 51 exceeds the network size",
        ),
        (
            ["winmin", "--users", "50", "--horizon", "2", "--kmax", "51"],
            "--kmax 51 exceeds the network size",
        ),
    ],
)
def test_unbuildable_sizes_exit_with_one_line(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert message in str(exc.value.code)
    assert "\n" not in str(exc.value.code)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "methods"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "rs" in proc.stdout.split()


def test_engine_help_renders_from_registry():
    """--engine help text derives from ENGINE_NAMES/ENGINE_HELP, not a
    hand-copied list: every registered spec must appear with its blurb."""
    from repro.core.engine import ENGINE_HELP, ENGINE_NAMES

    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, __import__("argparse")._SubParsersAction)
    )
    for command in ("select", "winmin", "case-study"):
        help_text = " ".join(sub.choices[command].format_help().split())
        for name in ENGINE_NAMES:
            assert f"{name}: {ENGINE_HELP[name]}" in help_text


def test_select_store_dir_warm_rerun_regenerates_nothing(capsys, tmp_path):
    """--store-dir: a rerun with the same seed re-opens the on-disk pools
    and regenerates zero blocks (the CI warm-store smoke's contract)."""
    argv = [
        "select",
        "--dataset", "yelp",
        "--users", "100",
        "--horizon", "3",
        "--method", "rw",
        "--score", "cumulative",
        "-k", "2",
        "--seed", "1",
        "--store-dir", str(tmp_path / "pools"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "store: blocks generated=" in cold
    # The cold run generated something (precise prefix: the line now ends
    # with delta counters that are legitimately "...=0").
    assert "store: blocks generated=0 " not in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "store: blocks generated=0 " in warm
    assert "loaded=0 " not in warm  # served from the memory-mapped shards
    # Identical pools -> identical selections across the two invocations.
    seeds = [
        line for line in (cold + warm).splitlines() if line.startswith("seeds:")
    ]
    assert seeds[0] == seeds[1]


def test_select_store_dir_rewrites_rw_store_engine_spec(capsys, tmp_path):
    """--store-dir on an rw-store engine persists the store it draws from."""
    argv = [
        "select",
        "--dataset", "yelp",
        "--users", "100",
        "--horizon", "3",
        "--method", "dm",
        "--engine", "rw-store:2",
        "-k", "2",
        "--seed", "1",
        "--store-dir", str(tmp_path / "engine-pools"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "engine-pools" / "manifest.json").exists()
    # Warm rerun succeeds against the persisted store (same identity).
    assert main(argv) == 0
    assert "seeds:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "engine", ["dm-mp:2:shm", "rw-store:2"]
)
def test_select_data_plane_engine_specs_run(capsys, engine):
    code = main(
        [
            "select",
            "--dataset", "yelp",
            "--users", "100",
            "--horizon", "3",
            "--method", "dm",
            "--engine", engine,
            "-k", "2",
            "--seed", "1",
        ]
    )
    assert code == 0
    assert "seeds:" in capsys.readouterr().out


def test_malformed_data_plane_specs_rejected():
    parser = build_parser()
    for bad in ("dm-mp:shm:2", "rw-store:mmap=", "dm-mp:mmap=/x"):
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["select", "--engine", bad, "--method", "dm", "-k", "1"]
            )


def test_serve_load_unreachable_server_exits_with_one_line():
    import socket

    # Bind (but never listen on) a port to guarantee a refused connection.
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    blocker.close()
    with pytest.raises(SystemExit) as exc:
        main(["serve-load", "--port", str(port), "--requests", "1"])
    message = str(exc.value.code)
    assert f"cannot reach the server at 127.0.0.1:{port}" in message
    assert "\n" not in message


_CHURN = [{"edges_added": [[19, 115, 0.389532], [0, 70, 0.063267]]}]


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read the file"),
        ("[{", "malformed JSON"),
        ("5", "expected a delta object or a list of them, got int"),
        ("[1, 2]", "step 1: expected an object, got int"),
        ('[{}, {"edge_added": []}]', "step 2: unknown key 'edge_added'"),
        (
            '[{"edges_added": [[0, 7, true]]}]',
            "step 1: weight of added edge (0, 7) must be a finite real number",
        ),
        (
            '[{"edges_added": [[0, 7, null]]}]',
            "step 1: weight of added edge (0, 7) must be a finite real number",
        ),
        (
            '[{"opinions_changed": [[0, 5, "0.5"]]}]',
            "step 1: opinion value for (0, 5) must be a finite real number",
        ),
        (
            '[{"edges_added": [[19, 3, 1e308], [4, 3, 1e308]]}]',
            "step 1: column 3: in-edge weights sum to inf",
        ),
    ],
)
def test_apply_delta_bad_journal_exits_with_one_line(tmp_path, content, message):
    """A journal that cannot be read, parsed or understood stops the run
    with one line naming the file (and the step), never a traceback or a
    silently ignored step."""
    journal = tmp_path / "delta.json"
    if content is not None:
        journal.write_text(content)
    argv = [
        "select", "--dataset", "yelp", "--users", "40", "--horizon", "3",
        "--method", "dm", "-k", "1", "--seed", "1",
        "--apply-delta", str(journal),
    ]  # fmt: skip
    with pytest.raises(SystemExit) as exc:
        main(argv)
    line = str(exc.value.code)
    assert message in line and str(journal) in line and "\n" not in line


def _store_lines(out: str) -> list[str]:
    return [
        line for line in out.splitlines() if line.startswith(("seeds:", "store:"))
    ]


def test_mmap_suffix_and_store_dir_name_one_store(capsys, tmp_path):
    """``rw-store:2:mmap=D`` and ``rw-store:2 --store-dir D`` are two
    spellings of one store: cold and warm runs print the same lines."""
    common = [
        "select", "--dataset", "yelp", "--users", "100", "--horizon", "3",
        "--method", "dm", "--score", "cumulative", "-k", "2", "--seed", "1",
    ]  # fmt: skip
    spellings = {
        "suffix": ["--engine", f"rw-store:2:mmap={tmp_path / 'suffix'}"],
        "flag": ["--engine", "rw-store:2", "--store-dir", str(tmp_path / "flag")],
    }
    printed = {}
    for name, extra in spellings.items():
        runs = []
        for _ in ("cold", "warm"):
            assert main(common + extra) == 0
            runs.append(_store_lines(capsys.readouterr().out))
        printed[name] = runs
    assert printed["suffix"] == printed["flag"]
    cold, warm = printed["flag"]
    assert cold[1].startswith("store: blocks generated=") and cold[0] == warm[0]
    assert "store: blocks generated=0 " not in cold[1]
    assert warm[1].startswith("store: blocks generated=0 ")


@pytest.mark.parametrize(
    "command, names",
    [
        (
            ["select", "--method", "dm", "-k", "1"],
            ["--engine", "rw-store:mmap=A", "--store-dir", "B"],
        ),
        (
            ["serve"],
            ["--engine", "rw-store:mmap=A", "--extra-engine", "rw-store:mmap=B"],
        ),
    ],
)
def test_two_store_directories_are_a_one_line_error(
    tmp_path, monkeypatch, command, names
):
    """``--store-dir`` and every ``:mmap=DIR`` suffix must name one
    directory; two different ones stop the run before any store opens."""
    from repro.serve import server

    def no_server(*args, **kwargs):
        raise AssertionError("the server started")

    monkeypatch.setattr(server, "run_server", no_server)
    monkeypatch.chdir(tmp_path)
    argv = [
        *command, "--dataset", "yelp", "--users", "40", "--horizon", "3",
        "--seed", "1", *names,
    ]  # fmt: skip
    with pytest.raises(SystemExit, match="conflicts with the engine spec's mmap"):
        main(argv)
    assert not any(tmp_path.iterdir())


def test_uncreatable_store_dir_is_a_one_line_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [
        "select", "--dataset", "yelp", "--users", "40", "--horizon", "3",
        "--method", "rw", "-k", "1", "--seed", "1",
        "--store-dir", str(blocker / "pools"),
    ]  # fmt: skip
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert str(blocker / "pools") in message and "\n" not in message


def test_winmin_rw_store_engine_opens_one_store(capsys, tmp_path, monkeypatch):
    """winmin over an rw-store engine draws from the one store the CLI
    opened, so the cold ``store:`` line counts the blocks it generated."""
    from repro.core.walk_store import WalkStore

    opened = []
    init = WalkStore.__init__

    def counting_init(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WalkStore, "__init__", counting_init)
    argv = [
        "winmin", "--dataset", "yelp", "--users", "80", "--horizon", "3",
        "--method", "dm", "--engine", "rw-store:2", "--kmax", "10",
        "--seed", "1", "--store-dir", str(tmp_path / "pools"),
    ]  # fmt: skip
    assert main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert len(opened) == 1
    assert "store: blocks generated=" in out
    assert "store: blocks generated=0 " not in out


def test_serve_resolves_the_spec_it_was_started_with(capsys, tmp_path, monkeypatch):
    """``serve --engine rw-store --store-dir D`` answers requests naming
    ``rw-store``: the spec is not rewritten to ``rw-store:mmap=D``."""
    from repro.serve import server
    from repro.serve.batcher import ServeStats

    resolved = {}

    def fake_run_server(hub, *, on_ready, **_):
        on_ready("127.0.0.1", 0)
        resolved["specs"] = hub.specs
        resolved["engine"] = hub.resolve("rw-store")[1]
        hub.close()
        return ServeStats()

    monkeypatch.setattr(server, "run_server", fake_run_server)
    argv = [
        "serve", "--dataset", "yelp", "--users", "60", "--horizon", "3",
        "--seed", "1", "--engine", "rw-store",
        "--extra-engine", "dm-batched", "--store-dir", str(tmp_path / "pools"),
    ]  # fmt: skip
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert resolved["specs"] == ("rw-store", "dm-batched")
    assert resolved["engine"].store.store_dir == tmp_path / "pools"
    assert "engines: rw-store dm-batched" in out
    assert "store: blocks generated=" in out


def test_mmap_delta_replay_patches_walks_like_store_dir(capsys, tmp_path):
    """An ``:mmap=DIR`` run replays ``--apply-delta`` through the warm
    store (it used to die on the store's graph-version check) and patches
    exactly the walks the ``--store-dir`` spelling patches."""
    journal = tmp_path / "delta.json"
    journal.write_text(json.dumps(_CHURN))
    common = [
        "select", "--dataset", "yelp", "--users", "120", "--method", "dm",
        "--score", "cumulative", "-k", "2", "--seed", "1",
    ]  # fmt: skip
    spellings = {
        "suffix": ["--engine", f"rw-store:2:mmap={tmp_path / 'suffix'}"],
        "flag": ["--engine", "rw-store:2", "--store-dir", str(tmp_path / "flag")],
    }
    patched = {}
    for name, extra in spellings.items():
        assert main(common + extra) == 0
        capsys.readouterr()
        assert main(common + extra + ["--apply-delta", str(journal)]) == 0
        patched[name] = _store_lines(capsys.readouterr().out)
    assert patched["suffix"] == patched["flag"]
    walks = int(patched["flag"][1].split("walks patched=")[1].split()[0])
    assert walks >= 1
