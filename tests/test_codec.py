import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcmbench.errors import ExternalToolError, InvariantViolation
from vcmbench.featurecodec.entropy import encode_bytes
from vcmbench.pipeline.codec import CodecSpec, expand_template, run_codec, run_command


def test_codec_spec_validation():
    CodecSpec(kind="NULL")
    CodecSpec(kind="TRUNCATE", qp_list=(0, 1))
    with pytest.raises(InvariantViolation):
        CodecSpec(kind="EXTERNAL")  # missing templates
    with pytest.raises(InvariantViolation):
        CodecSpec(kind="NULL", qp_list=())
    with pytest.raises(InvariantViolation):
        CodecSpec(kind="WAVELET")


def test_expand_template_substitution():
    argv = expand_template(
        "enc --qp {qp} -i {input} -o {output}",
        {"qp": 32, "input": "/a/in.yuv", "output": "/a/out.bin"},
    )
    assert argv == ["enc", "--qp", "32", "-i", "/a/in.yuv", "-o", "/a/out.bin"]


def test_expand_template_leaves_substituted_values_literal():
    argv = expand_template(
        "enc -i {input} --qp {qp}", {"input": "/data/clip_{qp}.yuv", "qp": 22}
    )
    assert argv == ["enc", "-i", "/data/clip_{qp}.yuv", "--qp", "22"]


def test_null_codec_returns_the_input_and_charges_raw_size(tmp_path):
    data = bytes(range(256)) * 4
    src = tmp_path / "in.yuv"
    src.write_bytes(data)
    out, bits = run_codec(CodecSpec(kind="NULL"), src, 22, tmp_path / "w")
    assert out == src and out.read_bytes() == data
    assert bits == 8 * len(data)
    assert list((tmp_path / "w").iterdir()) == []


def test_truncate_qp0_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    src = tmp_path / "in.yuv"
    src.write_bytes(data)
    out, bits = run_codec(CodecSpec(kind="TRUNCATE", qp_list=(0,)), src, 0, tmp_path / "w")
    assert out.read_bytes() == data
    samples = np.frombuffer(data, dtype=np.uint8)
    planes = [np.packbits((samples >> k) & 1).tobytes() for k in range(8)]
    assert bits == 8 * sum(len(encode_bytes(p)) for p in planes)


def test_truncate_monotone_bits_on_natural_statistics(tmp_path):
    # smooth gradient plus texture, like camera luma
    rng = np.random.default_rng(1)
    base = np.linspace(0, 255, 64 * 64).reshape(64, 64)
    noise = rng.normal(0, 12, (64, 64))
    img = np.clip(base + noise, 0, 255).astype(np.uint8)
    src = tmp_path / "in.yuv"
    src.write_bytes(img.tobytes())
    spec = CodecSpec(kind="TRUNCATE", qp_list=tuple(range(8)))
    sizes = []
    for qp in range(8):
        _, bits = run_codec(spec, src, qp, tmp_path / f"w{qp}")
        sizes.append(bits)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] > sizes[-1]  # the extremes genuinely differ


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=3000))
def test_truncate_bits_never_rise_with_qp(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("trunc")
    src = tmp_path / "in.yuv"
    src.write_bytes(data)
    spec = CodecSpec(kind="TRUNCATE", qp_list=tuple(range(8)))
    bits = [run_codec(spec, src, qp, tmp_path / "w")[1] for qp in range(8)]
    assert all(a >= b for a, b in zip(bits, bits[1:])), bits


def test_truncate_zeroes_low_bits(tmp_path):
    src = tmp_path / "in.yuv"
    src.write_bytes(bytes([0b10110111, 0b01111111]))
    out, _ = run_codec(CodecSpec(kind="TRUNCATE", qp_list=(3,)), src, 3, tmp_path / "w")
    assert out.read_bytes() == bytes([0b10110000, 0b01111000])


def test_external_codec_roundtrip(tmp_path):
    # a "codec" that copies its input both ways
    copier = f'{sys.executable} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
    spec = CodecSpec(
        kind="EXTERNAL",
        encode_template=copier + " {input} {output}",
        decode_template=copier + " {input} {output}",
        qp_list=(22,),
    )
    data = b"\x01\x02\x03\x04" * 64
    src = tmp_path / "in.yuv"
    src.write_bytes(data)
    out, bits = run_codec(spec, src, 22, tmp_path / "w")
    assert out.read_bytes() == data
    assert bits == 8 * len(data)


def test_external_codec_nonzero_exit(tmp_path):
    spec = CodecSpec(
        kind="EXTERNAL",
        encode_template=f'{sys.executable} -c "import sys; sys.exit(\'bad frame\')"',
        decode_template="true",
        qp_list=(22,),
    )
    src = tmp_path / "in.yuv"
    src.write_bytes(b"x")
    with pytest.raises(ExternalToolError) as err:
        run_codec(spec, src, 22, tmp_path / "w")
    # the tool's stderr ends the message
    assert str(err.value).startswith("encoder: exit 1: [")
    assert str(err.value).endswith("\nbad frame")


def test_command_with_undecodable_stderr_succeeds(tmp_path):
    noisy = (f'{sys.executable} -c "import sys; sys.stderr.buffer.write(bytes([255, 254, 10])); '
             'open(sys.argv[1], \'w\').close()" {output}')
    run_command(noisy, {}, "prediction command", tmp_path / "out")
    assert (tmp_path / "out").read_bytes() == b""


def test_command_stdout_is_not_held_in_memory(tmp_path):
    # 64 MiB to stdout; buffered, it would be a 64 MiB peak at least
    chatty = (f'{sys.executable} -c "import sys; sys.stdout.buffer.write(bytes(64 << 20)); '
              'open(sys.argv[1], \'w\').close()" {output}')
    tracemalloc.start()
    try:
        run_command(chatty, {}, "prediction command", tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_external_codec_missing_binary(tmp_path):
    spec = CodecSpec(
        kind="EXTERNAL",
        encode_template="definitely-not-a-command {input} {output}",
        decode_template="true",
        qp_list=(22,),
    )
    src = tmp_path / "in.yuv"
    src.write_bytes(b"x")
    with pytest.raises(ExternalToolError) as err:
        run_codec(spec, src, 22, tmp_path / "w")
    assert str(err.value).startswith("encoder: cannot start ['definitely-not-a-command', ")


def test_external_codec_missing_output(tmp_path):
    spec = CodecSpec(
        kind="EXTERNAL",
        encode_template=f'{sys.executable} -c "pass"',
        decode_template="true",
        qp_list=(22,),
    )
    src = tmp_path / "in.yuv"
    src.write_bytes(b"x")
    with pytest.raises(ExternalToolError) as err:
        run_codec(spec, src, 22, tmp_path / "w")
    assert str(err.value) == f"encoder wrote no file at {tmp_path / 'w' / 'bitstream_q22.bin'}"


@pytest.mark.parametrize("stale", ["encoder", "decoder"])
def test_external_codec_ignores_a_previous_runs_outputs(tmp_path, stale):
    copy = f'{sys.executable} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
    idle = f'{sys.executable} -c "pass"'

    def spec(encoder, decoder):
        return CodecSpec(kind="EXTERNAL", encode_template=f"{encoder} {{input}} {{output}}",
                         decode_template=f"{decoder} {{input}} {{output}}", qp_list=(22,))

    src = tmp_path / "in.yuv"
    src.write_bytes(b"xy")
    run_codec(spec(copy, copy), src, 22, tmp_path / "w")
    if stale == "encoder":
        second, message = spec(idle, copy), "encoder wrote no file at "
    else:
        second, message = spec(copy, idle), "decoder wrote no file at "
    with pytest.raises(ExternalToolError, match=message):
        run_codec(second, src, 22, tmp_path / "w")
