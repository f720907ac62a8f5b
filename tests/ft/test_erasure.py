"""Tests for GF(256) arithmetic and the Reed–Solomon codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ft.gf256 import GF256
from repro.ft.erasure import DecodeError, ReedSolomon


class TestGF256:
    def test_add_is_xor(self):
        assert GF256.add(0x53, 0xCA) == 0x53 ^ 0xCA

    def test_multiply_known_values(self):
        # 0x53 * 0xCA = 0x01 under poly 0x11b is the AES example; our
        # field uses 0x11d, so verify against a slow reference instead.
        def slow_mul(a, b):
            result = 0
            while b:
                if b & 1:
                    result ^= a
                a <<= 1
                if a & 0x100:
                    a ^= 0x11D
                b >>= 1
            return result

        for a in (1, 2, 3, 0x53, 0xFF):
            for b in (1, 2, 0x47, 0x80, 0xFF):
                assert GF256.multiply(a, b) == slow_mul(a, b)

    def test_multiply_by_zero_and_one(self):
        vec = np.arange(256, dtype=np.uint8)
        assert np.all(GF256.multiply(0, vec) == 0)
        assert np.all(GF256.multiply(1, vec) == vec)

    def test_inverse_roundtrip(self):
        for a in range(1, 256):
            assert GF256.multiply(a, GF256.inverse(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inverse(0)

    def test_power(self):
        assert GF256.power(2, 0) == 1
        assert GF256.power(2, 1) == 2
        assert GF256.power(2, 8) == 0x1D  # x^8 = x^4+x^3+x^2+1 mod poly
        assert GF256.power(0, 5) == 0

    def test_matrix_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            while True:
                m = rng.integers(0, 256, size=(n, n)).astype(np.uint8)
                try:
                    inv = GF256.mat_invert(m)
                    break
                except np.linalg.LinAlgError:
                    continue
            identity = GF256.mat_mul(m, inv)
            assert np.array_equal(identity, np.eye(n, dtype=np.uint8))

    def test_singular_matrix_raises(self):
        singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            GF256.mat_invert(singular)


class TestReedSolomon:
    def test_systematic_matrix_top_is_identity(self):
        rs = ReedSolomon(4, 2)
        assert np.array_equal(rs.matrix[:4, :], np.eye(4, dtype=np.uint8))

    def test_encode_shapes(self):
        rs = ReedSolomon(4, 2)
        data = np.zeros((4, 128), dtype=np.uint8)
        assert rs.encode(data).shape == (2, 128)

    def test_decode_with_no_erasures_is_identity(self):
        rs = ReedSolomon(3, 2)
        data = np.random.default_rng(1).integers(0, 256, (3, 64)).astype(np.uint8)
        shards = {i: data[i] for i in range(3)}
        assert np.array_equal(rs.decode(shards, 64), data)

    def test_decode_after_data_shard_loss(self):
        rs = ReedSolomon(4, 2)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, (4, 256)).astype(np.uint8)
        parity = rs.encode(data)
        shards = {i: data[i] for i in range(4)}
        shards.update({4 + j: parity[j] for j in range(2)})
        # Lose two data shards (the maximum).
        del shards[0], shards[2]
        assert np.array_equal(rs.decode(shards, 256), data)

    def test_too_many_erasures_raises(self):
        rs = ReedSolomon(4, 2)
        data = np.zeros((4, 16), dtype=np.uint8)
        shards = {0: data[0], 1: data[1], 2: data[2]}  # only 3 of 4 needed
        with pytest.raises(DecodeError):
            rs.decode(shards, 16)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomon(0, 2)
        with pytest.raises(ValueError):
            ReedSolomon(200, 100)

    def test_storage_overhead(self):
        assert ReedSolomon(4, 2).storage_overhead == pytest.approx(1.5)
        assert ReedSolomon(8, 2).storage_overhead == pytest.approx(1.25)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_k1_parity_is_plain_copies(self, m):
        """k = 1 is replication: every parity shard is the data itself."""
        x = np.random.default_rng(m).integers(0, 256, (1, 64)).astype(np.uint8)
        parity = ReedSolomon(1, m).encode(x)
        assert np.array_equal(parity, np.repeat(x, m, axis=0))

    @settings(max_examples=50, deadline=None)
    @given(
        k=st.integers(2, 8),
        m=st.integers(1, 4),
        shard_len=st.integers(1, 128),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    def test_roundtrip_under_arbitrary_erasures(self, k, m, shard_len, seed, data):
        """Property: any <= m erasures are recoverable byte-exactly."""
        rs = ReedSolomon(k, m)
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, (k, shard_len)).astype(np.uint8)
        parity = rs.encode(payload)
        shards = {i: payload[i] for i in range(k)}
        shards.update({k + j: parity[j] for j in range(m)})

        n_erase = data.draw(st.integers(0, m))
        erased = data.draw(
            st.lists(st.integers(0, k + m - 1), min_size=n_erase,
                     max_size=n_erase, unique=True)
        )
        for index in erased:
            del shards[index]
        recovered = rs.decode(shards, shard_len)
        assert np.array_equal(recovered, payload)

    def test_parity_actually_depends_on_all_data(self):
        rs = ReedSolomon(4, 2)
        data = np.zeros((4, 8), dtype=np.uint8)
        base = rs.encode(data)
        for i in range(4):
            mutated = data.copy()
            mutated[i, 3] = 0xAB
            assert not np.array_equal(rs.encode(mutated), base)
