import io
import threading

import numpy as np
import pytest

from rsgdlab import optim
from rsgdlab.core import RngStream, read_array, submitter
from rsgdlab.optim import PowerLawSchedule


class TestGaussian:
    def test_zero_std_collapses_to_mean(self):
        m = RngStream(1, "weight-init").normal(4, 5, mean=2.5, std=0.0)
        assert np.array_equal(m, np.full((4, 5), 2.5))

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, "weight-init").normal(2, 2, 0.0, -1.0)

    def test_sample_statistics(self):
        m = RngStream(2, "data-gen").normal(1000, 1000, mean=0.0, std=1.0)
        assert abs(m.mean()) < 4.0 / np.sqrt(1e6)
        assert abs(m.var() - 1.0) < 0.01

    def test_determinism(self):
        a = RngStream(9, "weight-init").normal(6, 7, 0.0, 1.0)
        b = RngStream(9, "weight-init").normal(6, 7, 0.0, 1.0)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(9, "weight-init").normal(6, 7, 0.0, 1.0)
        b = RngStream(9, "data-gen").normal(6, 7, 0.0, 1.0)
        assert not np.allclose(a, b)


class TestBernoulli:
    def test_degenerate_probabilities(self):
        rng0 = RngStream(3, "reinforcement")
        rng1 = RngStream(3, "reinforcement")
        assert not rng0.bernoulli_matrix(0.0, 100).any()
        assert rng1.bernoulli_matrix(1.0, 100).all()

    def test_out_of_range_rejected(self):
        rng = RngStream(3, "reinforcement")
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                rng.bernoulli_matrix(bad, 3)

    def test_empirical_rate(self):
        rng = RngStream(5, "reinforcement")
        n, p = 100_000, 0.3
        hits = int(np.count_nonzero(rng.bernoulli_matrix(p, n)))
        assert abs(hits / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_matrix_draw_matches_component_count(self):
        rng = RngStream(6, "reinforcement")
        coins = rng.bernoulli_matrix(0.5, (3, 4))
        assert coins.shape == (3, 4) and coins.dtype == bool


class TestSplit:
    def test_parts_are_consecutive_stretches_of_the_stream(self):
        rng, ref = RngStream(7, "reinforcement"), RngStream(7, "reinforcement")
        parts = rng.split([5, 0, 7])
        draws = ref.gen.random(12)
        assert np.array_equal(parts[0].random(5), draws[:5])
        assert parts[1].random(0).size == 0
        assert np.array_equal(parts[2].random(7), draws[5:])
        # the stream itself stands after all of them
        assert rng.gen.random(3).tobytes() == ref.gen.random(3).tobytes()

    def test_buffered_32_bit_half_is_kept(self):
        # a 32-bit draw leaves the other half of a 64-bit output buffered
        rng, ref = RngStream(7, "reinforcement"), RngStream(7, "reinforcement")
        for stream in (rng, ref):
            stream.gen.integers(0, 1000, size=1, dtype=np.uint32)
        rng.split([4, 9])
        ref.gen.random(13)
        assert rng.gen.bit_generator.state == ref.gen.bit_generator.state
        assert np.array_equal(rng.gen.integers(0, 1000, size=4, dtype=np.uint32),
                              ref.gen.integers(0, 1000, size=4, dtype=np.uint32))


class TestReadArray:
    def test_reads_shape_and_dtype_then_stops(self, tmp_path):
        path = tmp_path / "payload"
        path.write_bytes(np.arange(6, dtype="<f8").tobytes() + b"tail")
        with open(path, "rb") as f:
            out = read_array(f, (2, 3), "<f8", path)
            assert f.read() == b"tail"
        assert out.dtype == np.dtype("<f8") and out.flags.c_contiguous and out.flags.writeable
        assert np.array_equal(out, np.arange(6.0).reshape(2, 3))

    def test_size_checked_before_allocating(self, tmp_path):
        class Custom(ValueError):
            pass

        path = tmp_path / "short"
        path.write_bytes(b"\x00" * 7)
        with open(path, "rb") as f, pytest.raises(Custom, match=f"expected {2**63} more bytes"):
            read_array(f, (2**40, 2**20), "<f8", path, Custom)  # 8 EiB if allocated
        with open(path, "rb") as f, pytest.raises(Custom, match="expected 8 more bytes, 7 left"):
            read_array(f, (1,), "<f8", path, Custom)

    def test_short_read_raises(self, tmp_path):
        class ShortReader(io.BufferedReader):
            def readinto(self, b):
                return super().readinto(memoryview(b).cast("B")[:-1])

        path = tmp_path / "payload"
        path.write_bytes(b"\x00" * 16)
        with ShortReader(io.FileIO(path, "rb")) as f:
            with pytest.raises(ValueError, match="expected 16 more bytes, read 15"):
                read_array(f, (2,), "<f8", path)


class TestSubmitter:
    def test_one_worker_runs_on_the_calling_thread(self):
        before = threading.active_count()
        with submitter(1) as submit:
            future = submit(threading.get_ident)
            assert future.done() and threading.active_count() == before
        assert future.result() == threading.get_ident()

    def test_workers_start_with_the_callers_error_state(self):
        both = threading.Barrier(2)

        def state():
            both.wait(timeout=10)  # each call holds its own worker
            return threading.get_ident(), np.geterr()

        with np.errstate(over="ignore", invalid="raise", divide="ignore", under="warn"):
            expected = np.geterr()
            with submitter(2) as submit:
                states = [f.result() for f in [submit(state), submit(state)]]
        assert expected != np.geterr()
        assert len({ident for ident, _ in states}) == 2
        assert all(errors == expected for _, errors in states)

    def test_a_raising_block_cancels_the_queued_calls(self):
        release = threading.Event()
        timer = threading.Timer(0.5, release.set)  # frees the workers, so nothing hangs
        timer.start()
        with pytest.raises(RuntimeError, match="stop"):
            with submitter(2) as submit:
                held = [submit(release.wait), submit(release.wait)]  # both workers busy
                queued = submit(pytest.fail, "a queued call ran")
                raise RuntimeError("stop")
        timer.join()
        assert queued.cancelled()
        assert all(f.result() for f in held)

    def test_one_cpu_simulates_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(optim, "usable_cpus", lambda: 1)
        threads = []
        count = optim._trailing_run_counts
        monkeypatch.setattr(optim, "_trailing_run_counts",
                            lambda *args: threads.append(threading.get_ident()) or count(*args))
        before = threading.active_count()
        optim.simulate_memory_length(PowerLawSchedule(1.0, 0.5), 40, 12345,
                                     RngStream(0, "reinforcement"))
        assert threads == [threading.get_ident()]
        assert threading.active_count() == before
