import numpy as np
import pytest

from oracles import best_chain_bruteforce, greedy_chain_pairwise
from vcmbench.errors import InputError, InvariantViolation
from vcmbench.featurecodec import (
    normalize,
    pack_multiscale,
    pack_spatial_tiled,
    pack_temporal,
    quantize_2bit,
    quantize_8bit,
    reorder_channels,
    unpack_frames,
)
from vcmbench.model import FeatureTensor, frame_shape


def _samples(rng, c, h, w):
    return rng.integers(0, 256, (c, h, w)).astype(np.uint8)


# --- spatial tiling ---

def test_spatial_frame_dims():
    rng = np.random.default_rng(0)
    fs = pack_spatial_tiled(_samples(rng, 64, 2, 3))
    assert len(fs.frames) == 1
    assert fs.frames[0].shape == (16, 24)


def test_spatial_rejects_wrong_channel_count():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match="SPATIAL_TILED requires C = 64, got 32"):
        pack_spatial_tiled(_samples(rng, 32, 2, 3))


def test_spatial_index_formula():
    s = np.zeros((64, 2, 2), dtype=np.uint8)
    s[9, 0, 0] = 77  # channel 9 at (x=0, y=0) -> frame row 1, col 1
    fs = pack_spatial_tiled(s)
    assert fs.frames[0][1, 1] == 77
    s2 = np.zeros((64, 2, 2), dtype=np.uint8)
    s2[13, 1, 1] = 99  # row 8*1 + 13//8 = 9, col 8*1 + 13%8 = 13
    assert pack_spatial_tiled(s2).frames[0][9, 13] == 99


def test_spatial_roundtrip_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = _samples(rng, 64, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        assert np.array_equal(unpack_frames(pack_spatial_tiled(s)), s)


def test_spatial_with_permutation_roundtrip():
    rng = np.random.default_rng(2)
    s = _samples(rng, 64, 3, 2)
    perm = tuple(rng.permutation(64))
    fs = pack_spatial_tiled(s, permutation=perm)
    assert np.array_equal(unpack_frames(fs), s)


# --- temporal packing ---

def test_temporal_frame_count_256():
    rng = np.random.default_rng(3)
    s = _samples(rng, 256, 4, 4)
    fs = pack_temporal(s)
    assert len(fs.frames) == 256
    assert np.array_equal(fs.frames[5], s[5])


def test_temporal_single_channel():
    rng = np.random.default_rng(4)
    s = _samples(rng, 1, 3, 3)
    fs = pack_temporal(s)
    assert len(fs.frames) == 1
    assert np.array_equal(fs.frames[0], s[0])


def test_temporal_roundtrip_with_and_without_permutation():
    rng = np.random.default_rng(5)
    s = _samples(rng, 12, 5, 7)
    assert np.array_equal(unpack_frames(pack_temporal(s)), s)
    perm = tuple(rng.permutation(12))
    fs = pack_temporal(s, permutation=perm)
    assert np.array_equal(fs.frames[0], s[perm[0]])  # frames follow the chain order
    assert np.array_equal(unpack_frames(fs), s)


# an int() of each entry would pack (0, 2.7, 1) as (0, 2, 1) and (0, True, 2) as (0, 1, 2)
_NOT_INTEGERS = [(0, 2.7, 1), (0, True, 2), (0.0, 1.0, 2.0), (0, np.float64(1), 2)]


@pytest.mark.parametrize("perm", _NOT_INTEGERS, ids=repr)
def test_temporal_refuses_a_permutation_of_non_integers(perm):
    with pytest.raises(InvariantViolation, match="permutation must be integers"):
        pack_temporal(np.zeros((3, 2, 2), dtype=np.uint8), permutation=perm)


@pytest.mark.parametrize("perm", _NOT_INTEGERS, ids=repr)
def test_spatial_refuses_a_permutation_of_non_integers(perm):
    samples = np.zeros((64, 2, 2), dtype=np.uint8)
    with pytest.raises(InvariantViolation, match="permutation must be integers"):
        pack_spatial_tiled(samples, permutation=(*perm, *range(3, 64)))


@pytest.mark.parametrize("perm", [(0, 1, 1), (0, 1), (1, 2, 3), (0, 1, 2, 3)], ids=repr)
def test_packers_refuse_a_permutation_that_does_not_permute_the_channels(perm):
    with pytest.raises(InvariantViolation, match=r"permuting 0\.\.2"):
        pack_temporal(np.zeros((3, 2, 2), dtype=np.uint8), permutation=perm)


def test_packers_take_numpy_integer_permutations():
    s = _samples(np.random.default_rng(7), 3, 2, 2)
    fs = pack_temporal(s, permutation=np.array([2, 0, 1], dtype=np.uint16))
    assert fs.channel_permutation == (2, 0, 1)
    assert all(type(p) is int for p in fs.channel_permutation)
    assert np.array_equal(unpack_frames(fs), s)


@pytest.mark.parametrize("value", [300, -1, 2.7])
def test_temporal_refuses_a_sample_outside_8_bits(value):
    with pytest.raises(InvariantViolation, match="samples must be"):
        pack_temporal(np.array([[[value, 1]]]))


# --- multiscale packing ---

def _pyramid(rng, c, h2, w2):
    """P2..P6 sample arrays, each level the floor-half of the one before."""
    return [_samples(rng, c, h2 >> k, w2 >> k) for k in range(5)]


def test_multiscale_frame_dims_formula():
    # a 136x184 tiled finest block gives a 136-tall, 276-wide frame
    assert frame_shape("MULTISCALE", (64, 17, 23)) == (1, 136, 276)
    assert frame_shape("MULTISCALE", (64, 16, 16)) == (1, 128, 192)


def test_multiscale_block_placement():
    rng = np.random.default_rng(6)
    samples = _pyramid(rng, 64, 16, 16)
    fs = pack_multiscale(samples)
    frame = fs.frames[0]
    from vcmbench.featurecodec.packing import _tile64

    assert frame.shape == (128, 192)
    # finest block left, coarser blocks stacked top-down in the right column
    assert np.array_equal(frame[0:128, 0:128], _tile64(samples[0]))
    assert np.array_equal(frame[0:64, 128:192], _tile64(samples[1]))
    assert np.array_equal(frame[64:96, 128:160], _tile64(samples[2]))
    assert np.array_equal(frame[96:112, 128:144], _tile64(samples[3]))
    assert np.array_equal(frame[112:120, 128:136], _tile64(samples[4]))


def test_multiscale_roundtrip_and_conservation():
    rng = np.random.default_rng(7)
    samples = _pyramid(rng, 64, 16, 16)
    fs = pack_multiscale(samples)
    out = unpack_frames(fs)
    assert len(out) == 5
    for got, want in zip(out, samples):
        assert np.array_equal(got, want)
    # everything outside the occupied blocks is zero-filled
    total = int(fs.frames[0].astype(np.int64).sum())
    assert total == sum(int(s.astype(np.int64).sum()) for s in samples)


def test_multiscale_rejects_mismatched_samples():
    rng = np.random.default_rng(8)
    samples = _pyramid(rng, 64, 16, 16)
    samples[2] = samples[2][:, :1, :]
    with pytest.raises(InputError, match=r"P4 shape \(64, 1, 4\) != expected \(64, 4, 4\)"):
        pack_multiscale(samples)


@pytest.mark.parametrize("h2, w2, change, message", [
    (16, 16, lambda levels: levels[:4], r"expected 5 levels \(P2..P6\), got 4"),
    (16, 16, lambda levels: levels[:4] + [levels[4][:2]], r"P6 shape \(2, 1, 1\) != expected \(64, 1, 1\)"),
    # 16x8 halves to 8x4, 4x2, 2x1 and then 1x0: P6 has no room
    (16, 8, lambda levels: levels[:4] + [np.zeros((64, 1, 1), np.uint8)],
     "MULTISCALE needs a finest level of at least 16 x 16 px, got 16 x 8"),
], ids=["four-levels", "p6-two-channels", "p6-below-1px"])
def test_multiscale_rejects_bad_pyramid(h2, w2, change, message):
    levels = _pyramid(np.random.default_rng(10), 64, h2, w2)
    with pytest.raises(InputError, match=message):
        pack_multiscale(change(levels))


def test_multiscale_odd_dims_fit():
    rng = np.random.default_rng(9)
    samples = _pyramid(rng, 64, 17, 23)  # 17->8->4->2->1, 23->11->5->2->1
    fs = pack_multiscale(samples)
    out = unpack_frames(fs)
    for got, want in zip(out, samples):
        assert np.array_equal(got, want)


# --- the frame array ---

@pytest.mark.parametrize("layout", ["TEMPORAL", "SPATIAL_TILED", "MULTISCALE"])
def test_frames_are_one_read_only_array_of_the_layouts_shape(layout):
    rng = np.random.default_rng(9)
    if layout == "MULTISCALE":
        fs = pack_multiscale(_pyramid(rng, 64, 16, 16))
    else:
        pack = pack_temporal if layout == "TEMPORAL" else pack_spatial_tiled
        fs = pack(_samples(rng, 64, 3, 5), permutation=tuple(rng.permutation(64)))
    assert fs.frames.shape == frame_shape(layout, fs.original_dims)
    assert fs.frames.dtype == np.uint8 and fs.frames.flags.c_contiguous
    assert not fs.frames.flags.writeable


def test_a_frame_set_cannot_be_changed_through_the_callers_array():
    s = np.zeros((2, 3, 4), dtype=np.uint8)
    fs = pack_temporal(s)
    try:
        s[0, 0, 0] = 5
    except ValueError:
        pass  # the frame set made s read-only
    assert not fs.frames.any()


# --- channel reordering ---

def test_reorder_identical_channels_identity_tiebreak():
    s = np.full((5, 3, 3), 9, dtype=np.uint8)
    perm, reordered = reorder_channels(s)
    assert perm == (0, 1, 2, 3, 4)
    assert np.array_equal(reordered, s)


def test_reorder_groups_similar_channels():
    rng = np.random.default_rng(10)
    a = rng.integers(0, 250, (6, 6)).astype(np.uint8)
    b = (255 - a).astype(np.uint8)
    a_eps = (a + 1).astype(np.uint8)
    s = np.stack([a, b, a_eps])
    perm, _ = reorder_channels(s)
    assert perm == best_chain_bruteforce(s.astype(np.float64))
    assert perm == (0, 2, 1)  # the near-identical pair is adjacent


def test_reorder_matches_bruteforce_on_random_small_sets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = rng.integers(0, 256, (4, 4, 4)).astype(np.uint8)
        perm, _ = reorder_channels(s)
        # the greedy chain is not always globally optimal, but it must be a
        # valid permutation starting at 0, and each hop must be locally minimal
        assert perm[0] == 0
        assert sorted(perm) == list(range(4))
        flat = s.reshape(4, -1).astype(np.float64)
        for i in range(len(perm) - 1):
            rest = [c for c in range(4) if c not in perm[: i + 1]]
            costs = {c: float(np.mean((flat[perm[i]] - flat[c]) ** 2)) for c in rest}
            best = min(costs.values())
            assert costs[perm[i + 1]] == pytest.approx(best)


@pytest.mark.parametrize("bits", [8, 2])
def test_reorder_matches_pairwise_chain_on_quantized_tensors(bits):
    rng = np.random.default_rng(13 + bits)
    means = rng.choice([0.0, 0.5, 2.0], size=(256, 1, 1))
    spreads = rng.choice([0.5, 1.0, 3.0], size=(256, 1, 1))
    values = np.maximum(means + spreads * rng.normal(size=(256, 64, 64)), 0.0)
    z, params = normalize(FeatureTensor(values.astype(np.float32)), bit_depth=bits)
    s = quantize_8bit(z, params) if bits == 8 else quantize_2bit(z, params.z_th)
    perm, reordered = reorder_channels(s)
    assert perm == greedy_chain_pairwise(s)
    assert np.array_equal(reordered, s[list(perm)])


def test_reorder_matches_pairwise_chain_on_ties():
    rng = np.random.default_rng(14)
    for c, levels in ((40, 2), (64, 3), (17, 1)):
        # few distinct channels, each repeated, plus exact-distance ties
        base = rng.integers(0, levels + 1, (max(1, c // 8), 4, 4)).astype(np.uint8)
        s = base[rng.integers(0, len(base), c)]
        assert reorder_channels(s)[0] == greedy_chain_pairwise(s)
    s = np.zeros((6, 1, 2), dtype=np.uint8)
    s[1:, 0, 0] = [1, 0, 1, 0, 1]
    s[1:, 0, 1] = [0, 1, 0, 1, 1]
    assert reorder_channels(s)[0] == greedy_chain_pairwise(s)


def test_inverse_permutation_roundtrip():
    rng = np.random.default_rng(12)
    s = rng.integers(0, 256, (8, 3, 3)).astype(np.uint8)
    perm, reordered = reorder_channels(s)
    restored = reordered[np.argsort(perm)]
    assert np.array_equal(restored, s)
