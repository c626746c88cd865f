"""AST concurrency-lint tests: each rule, suppression, and the clean tree."""

import os
import textwrap

import repro
from repro.analysis import lint_paths, lint_source


def _lint(src):
    return lint_source(textwrap.dedent(src), filename="fixture.py")


def _rules(src):
    return {f.rule for f in _lint(src)}


class TestShmCleanup:
    def test_unprotected_creation_fires_l301(self):
        findings = _lint("""
            from multiprocessing import shared_memory

            def make():
                shm = shared_memory.SharedMemory(name="x", create=True, size=64)
                shm.buf[0] = 1
        """)
        assert {f.rule for f in findings} == {"L301"}
        assert findings[0].location.line == 5
        assert "leaks the segment" in findings[0].message

    def test_arena_factory_fires_l301(self):
        assert _rules("""
            def make(tiles):
                arena = TileArena.pack("a", tiles)
                return arena.meta()
        """) == {"L301"}

    def test_try_finally_close_is_clean(self):
        assert _rules("""
            from multiprocessing import shared_memory

            def make():
                try:
                    shm = shared_memory.SharedMemory(name="x", create=True, size=64)
                    use(shm)
                finally:
                    shm.close()
        """) == set()

    def test_except_unlink_is_clean(self):
        assert _rules("""
            def make(tiles):
                try:
                    arena = TileArena.allocate("a", 64)
                    fill(arena, tiles)
                except BaseException:
                    arena.unlink()
                    raise
        """) == set()

    def test_immediate_return_is_clean(self):
        assert _rules("""
            def attach(meta):
                return TileArena.attach(meta)
        """) == set()

    def test_handler_body_not_protected_by_own_try(self):
        # A segment created *inside* the except block is outside the
        # region the try's cleanup covers.
        assert "L301" in _rules("""
            def make():
                try:
                    x = reuse()
                except KeyError:
                    x = TileArena.allocate("a", 64)
                finally:
                    log.close()
        """)


    def test_store_on_an_owner_that_unlinks_is_clean(self):
        """A run's coordinator, a worker pool: the segment goes on ``self``
        the moment it exists and the class has the method that unlinks."""
        assert _rules("""
            class Pool:
                def pack(self, tag, tiles):
                    arena = self.arenas[tag] = TileArena.pack(tag, tiles)
                    self.scratch = TileArena.allocate("s", 64)
                    self.held.append(TileArena.allocate(tag, 64))
                    return arena

                def terminate(self):
                    for arena in self.arenas.values():
                        arena.unlink()
        """) == set()

    def test_store_on_self_needs_a_method_that_unlinks(self):
        assert _rules("""
            class Holder:
                def pack(self, tag, tiles):
                    self.arenas[tag] = TileArena.pack(tag, tiles)
        """) == {"L301"}

    def test_owner_class_still_answers_for_its_locals(self):
        findings = _lint("""
            class Pool:
                def pack(self, tag, tiles):
                    arena = TileArena.pack(tag, tiles)
                    held.append(TileArena.allocate(tag, 64))
                    self.arenas[tag] = arena

                def terminate(self):
                    self.arenas.popitem()[1].unlink()
        """)
        assert [(f.rule, f.location.line) for f in findings] == [("L301", 4), ("L301", 5)]


class TestMpContext:
    def test_module_level_queue_fires_l302(self):
        findings = _lint("""
            import multiprocessing

            q = multiprocessing.Queue()
        """)
        assert {f.rule for f in findings} == {"L302"}
        assert "get_context" in findings[0].message

    def test_aliased_import_fires_l302(self):
        assert _rules("""
            import multiprocessing as mp

            p = mp.Process(target=f)
        """) == {"L302"}

    def test_context_primitives_clean(self):
        assert _rules("""
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            q = ctx.Queue()
            p = ctx.Process(target=f)
        """) == set()


class TestLegacyRng:
    def test_np_random_seed_fires_l303(self):
        findings = _lint("""
            import numpy as np

            np.random.seed(0)
            x = np.random.rand(3)
        """)
        assert [f.rule for f in findings] == ["L303", "L303"]

    def test_generator_api_clean(self):
        assert _rules("""
            import numpy as np

            rng = np.random.default_rng(0)
            x = rng.random(3)
        """) == set()


class TestFrozenSetattr:
    def test_object_setattr_fires_l304(self):
        assert _rules("""
            def thaw(plan):
                object.__setattr__(plan, "rank", 3)
        """) == {"L304"}


class TestBareExcept:
    def test_bare_except_fires_l305(self):
        findings = _lint("""
            def f():
                try:
                    g()
                except:
                    pass
        """)
        assert {f.rule for f in findings} == {"L305"}

    def test_named_except_clean(self):
        assert _rules("""
            def f():
                try:
                    g()
                except Exception:
                    pass
        """) == set()


class TestParseAndSuppression:
    def test_syntax_error_fires_l300(self):
        findings = _lint("def f(:\n")
        assert [f.rule for f in findings] == ["L300"]

    def test_noqa_suppresses_named_rule(self):
        assert _rules("""
            import numpy as np

            np.random.seed(0)  # repro: noqa[L303]
        """) == set()

    def test_noqa_all_suppresses_everything(self):
        assert _rules("""
            import multiprocessing

            q = multiprocessing.Queue()  # repro: noqa[all]
        """) == set()

    def test_noqa_wrong_rule_keeps_finding(self):
        # The finding survives, and since L301 never fires on that line
        # the mistargeted suppression is itself flagged as stale (L399).
        assert _rules("""
            import numpy as np

            np.random.seed(0)  # repro: noqa[L301]
        """) == {"L303", "L399"}

    def test_noqa_comma_separated(self):
        assert _rules("""
            import numpy as np
            import multiprocessing

            q = multiprocessing.Queue(np.random.rand())  # repro: noqa[L302, L303]
        """) == set()


class TestDaemonThread:
    """L307: threads inside repro.dist must be daemon=True."""

    def _lint_dist(self, src):
        return {
            f.rule
            for f in lint_source(
                textwrap.dedent(src), filename="src/repro/dist/fixture.py"
            )
        }

    def test_non_daemon_thread_in_dist_fires(self):
        assert self._lint_dist("""
            import threading

            def start():
                t = threading.Thread(target=loop)
                t.start()
        """) == {"L307"}

    def test_daemon_true_is_clean(self):
        assert self._lint_dist("""
            import threading

            def start():
                t = threading.Thread(target=loop, daemon=True)
                t.start()
        """) == set()

    def test_non_literal_daemon_still_fires(self):
        # daemon=flag cannot be proven True statically; the rule demands
        # the literal so the guarantee survives refactors.
        assert self._lint_dist("""
            import threading

            def start(flag):
                t = threading.Thread(target=loop, daemon=flag)
                t.start()
        """) == {"L307"}

    def test_bare_thread_name_fires(self):
        assert self._lint_dist("""
            from threading import Thread

            def start():
                Thread(target=loop).start()
        """) == {"L307"}

    def test_outside_dist_is_ignored(self):
        src = """
            import threading

            def start():
                threading.Thread(target=loop).start()
        """
        assert _rules(src) == set()

    def test_noqa_suppresses(self):
        assert self._lint_dist("""
            import threading

            def start():
                t = threading.Thread(target=loop)  # repro: noqa[L307]
                t.start()
        """) == set()


class TestUnmanagedHandle:
    """L308: open()/mmap in dist+store must have a guaranteed close path."""

    def _lint_store(self, src):
        return {
            f.rule
            for f in lint_source(
                textwrap.dedent(src), filename="src/repro/store/fixture.py"
            )
        }

    def test_bare_open_fires(self):
        findings = lint_source(
            "fh = open('x')\n", filename="src/repro/store/fixture.py"
        )
        assert {f.rule for f in findings} == {"L308"}
        assert "leaks the descriptor" in findings[0].message

    def test_bare_mmap_fires_in_dist(self):
        assert {
            f.rule
            for f in lint_source(
                "import mmap\nm = mmap.mmap(-1, 10)\n",
                filename="src/repro/dist/fixture.py",
            )
        } == {"L308"}

    def test_with_statement_is_clean(self):
        assert self._lint_store("""
            def read(path):
                with open(path, 'rb') as fh:
                    return fh.read()
        """) == set()

    def test_immediate_return_is_clean(self):
        # Handing the handle straight to the caller transfers ownership;
        # this is how TileStore._open_map returns its mmap.
        assert self._lint_store("""
            import mmap

            def open_map(path):
                with open(path, 'rb') as fh:
                    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        """) == set()

    def test_cleanup_try_is_clean(self):
        assert self._lint_store("""
            def copy(path):
                fh = None
                try:
                    fh = open(path)
                    return fh.read()
                finally:
                    if fh is not None:
                        fh.close()
        """) == set()

    def test_outside_dist_and_store_is_ignored(self):
        assert _rules("fh = open('x')\n") == set()

    def test_noqa_suppresses(self):
        assert self._lint_store(
            "fh = open('x')  # repro: noqa[L308]\n"
        ) == set()

    def test_os_open_not_flagged(self):
        # Raw fds have their own discipline; the rule targets the builtin.
        assert self._lint_store("""
            import os

            def probe(path):
                fd = os.open(path, os.O_RDONLY)
                os.close(fd)
        """) == set()


class TestSourceTree:
    def test_repro_package_lints_clean(self):
        """The shipped source tree must stay lint-clean — this is the same
        gate `make analyze` and CI run."""
        report = lint_paths([os.path.dirname(repro.__file__)])
        assert report.ok, report.render()

    def test_lint_paths_exit_code_contract(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        report = lint_paths([str(tmp_path)])
        assert report.exit_code() == 1
        assert [f.rule for f in report.findings] == ["L303"]
        assert report.findings[0].location.file == str(bad)
        assert lint_paths([str(clean)]).exit_code() == 0


class TestStaleNoqa:
    """L399: every suppression must suppress something, and is itself
    unsuppressible."""

    def test_active_suppression_is_clean(self):
        assert _rules("""
            import numpy as np
            np.random.seed(0)  # repro: noqa[L303]
        """) == set()

    def test_stale_suppression_fires_l399(self):
        findings = _lint("x = 1  # repro: noqa[L303]\n")
        assert [f.rule for f in findings] == ["L399"]
        assert findings[0].location.line == 1
        assert "stale" in findings[0].message

    def test_partially_stale_list_flags_only_the_dead_rule(self):
        findings = _lint("""
            import numpy as np
            np.random.seed(0)  # repro: noqa[L303,L305]
        """)
        assert [f.rule for f in findings] == ["L399"]
        assert "L305" in findings[0].message

    def test_unknown_rule_id_fires_l399(self):
        findings = _lint("x = 1  # repro: noqa[L999]\n")
        assert [f.rule for f in findings] == ["L399"]
        assert "unknown rule" in findings[0].message

    def test_noqa_all_must_suppress_something(self):
        assert _rules("x = 1  # repro: noqa[all]\n") == {"L399"}
        assert _rules("""
            import numpy as np
            np.random.seed(0)  # repro: noqa[all]
        """) == set()

    def test_l399_cannot_suppress_itself(self):
        # noqa[L399] never fires as a walker rule, so it is always stale —
        # and being reported after the suppression filter, it sticks.
        findings = _lint("x = 1  # repro: noqa[L399]\n")
        assert [f.rule for f in findings] == ["L399"]

    def test_noqa_text_inside_strings_is_ignored(self):
        # Docstrings documenting the suppression syntax (this repo has
        # several) must neither suppress nor count as stale comments.
        assert _rules('''
            """Suppress with # repro: noqa[L308] on the offending line."""
            DOC = "see # repro: noqa[L303]"
        ''') == set()


class TestFilesScanned:
    def test_lint_paths_counts_scanned_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        report = lint_paths([str(tmp_path)])
        assert report.files_scanned == 2 and report.ok

    def test_nothing_matched_is_zero_not_an_error(self, tmp_path):
        report = lint_paths([str(tmp_path / "missing")])
        assert report.files_scanned == 0
        assert report.ok and report.exit_code() == 0


class TestUnboundedBlockingRecv:
    @staticmethod
    def _lint_serve(src):
        return {
            f.rule
            for f in lint_source(
                textwrap.dedent(src), filename="src/repro/serve/service.py"
            )
        }

    def test_blocking_get_without_timeout_fires_l309(self):
        assert self._lint_serve("""
            def loop(q):
                return q.get()
        """) == {"L309"}

    def test_blocking_recv_without_timeout_fires_l309(self):
        assert self._lint_serve("""
            def pump(endpoint):
                src, msg, n = endpoint.recv()
                return msg
        """) == {"L309"}

    def test_timeout_kwarg_is_clean(self):
        assert self._lint_serve("""
            def loop(q, ep):
                a = q.get(timeout=0.1)
                b = ep.recv(timeout=1.0)
                return a, b
        """) == set()

    def test_nonblocking_forms_are_clean(self):
        assert self._lint_serve("""
            def drain(q, ep):
                a = q.get_nowait()
                b = ep.recv_nowait()
                c = q.get(block=False)
                return a, b, c
        """) == set()

    def test_positional_args_mean_lookup_not_wait(self):
        # dict.get(key) / store.get(ns, key) are lookups, not blocking waits.
        assert self._lint_serve("""
            def lookup(d, store):
                return d.get("key"), store.get("ns", (0, 0))
        """) == set()

    def test_outside_serve_tree_is_ignored(self):
        assert {
            f.rule
            for f in lint_source(
                "def loop(q):\n    return q.get()\n",
                filename="src/repro/dist/worker.py",
            )
        } == set()

    def test_noqa_suppresses_l309(self):
        assert self._lint_serve(
            "def loop(q):\n    return q.get()  # repro: noqa[L309]\n"
        ) == set()
