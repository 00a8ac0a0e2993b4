"""Codec invocation behind a uniform file-based interface.

EXTERNAL codecs run user-supplied encode/decode command templates with
{input}, {output}, {qp}, {width}, {height} placeholders, expanded
per-token into an argv (no shell). Every external tool -- encoder,
decoder and prediction command -- runs through `run_command`, which
alone states the rules: a previous run's output is deleted first, stdout
is discarded, stderr goes into the error, and a tool that cannot start,
exits non-zero or writes no output raises ExternalToolError (exit 3).
Two built-in test codecs keep the harness hermetic:

  NULL       returns the input file itself as the decoded file, with
             no copy (callers only read it); rate is the raw file size.
             Useful for determinism fixtures and perfect-task endpoints.
  TRUNCATE   zeroes the low (qp mod 8) bits of every sample. Rate is
             charged per bit-plane, as in embedded bit-plane coding: each
             kept plane k >= qp mod 8 is packed one bit per sample and
             coded on its own, and the bits are the sum of the coded
             plane sizes. A higher qp drops whole terms of that sum and
             leaves the kept planes as they are, so rate never rises
             with qp. It models no real codec -- it exists so RD curves
             with genuine rate/quality trade-offs are producible without
             external binaries, and is labeled a test codec in every
             report.
"""

from __future__ import annotations

import re
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ExternalToolError, InputError, InvariantViolation
from ..featurecodec.entropy import encode_bytes
from ..tensorio import as_int64

KIND_EXTERNAL = "EXTERNAL"
KIND_NULL = "NULL"
KIND_TRUNCATE = "TRUNCATE"
_KINDS = (KIND_EXTERNAL, KIND_NULL, KIND_TRUNCATE)


@dataclass(frozen=True)
class CodecSpec:
    kind: str
    encode_template: str | None = None
    decode_template: str | None = None
    qp_list: tuple[int, ...] = (22, 27, 32, 37, 42, 47)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvariantViolation(f"unknown codec kind {self.kind!r}")
        templates = {"encode_template": self.encode_template,
                     "decode_template": self.decode_template}
        if self.kind == KIND_EXTERNAL:
            if not all(isinstance(t, str) and t for t in templates.values()):
                raise InvariantViolation("EXTERNAL codec needs encode and decode templates")
            for name, template in templates.items():
                split_template(template, name)
        if not self.qp_list:
            raise InvariantViolation("qp list must be non-empty")
        object.__setattr__(self, "qp_list", tuple(as_int64(q) for q in self.qp_list))
        if len(set(self.qp_list)) != len(self.qp_list):
            raise InvariantViolation(f"qp list has duplicates: {list(self.qp_list)}")


_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def split_template(template: str, what: str) -> list[str]:
    """A command template's argv tokens, split as a POSIX shell would, without expansion.

    An unbalanced quote or escape, or a template of no tokens, raises
    InputError naming what.
    """
    try:
        argv = shlex.split(template)
    except ValueError as e:
        raise InputError(f"{what}: {e}: {template!r}") from e
    if not argv:
        raise InputError(f"{what}: no argv tokens: {template!r}")
    return argv


def expand_template(template: str, substitutions: dict[str, str]) -> list[str]:
    """Split a template into argv tokens and substitute placeholders.

    Each token is expanded in one pass, so a substituted value that itself
    contains "{name}" (a path, say) stays literal. Unknown placeholders
    are left as they are.
    """

    def value(m):
        key = m.group(1)
        return str(substitutions[key]) if key in substitutions else m.group(0)

    tokens = split_template(template, "command template")
    return [_PLACEHOLDER.sub(value, token) for token in tokens]


def run_command(template: str, substitutions: dict, what: str, output) -> None:
    """Run the external tool of a command template, its {output} set to output.

    A file already at output is deleted first, so a previous run's cannot
    pass for this one's. The tool's stdout is discarded; its stderr goes
    into the error. ExternalToolError names what when the tool cannot
    start, exits non-zero or writes no file at output.
    """
    output = Path(output)
    argv = expand_template(template, dict(substitutions, output=str(output)))
    output.unlink(missing_ok=True)
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except OSError as e:
        raise ExternalToolError(f"{what}: cannot start {argv}: {e}") from e
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", errors="replace")  # a tool may write any bytes
        raise ExternalToolError(f"{what}: exit {proc.returncode}: {argv}\n{stderr.strip()}")
    if not output.exists():
        raise ExternalToolError(f"{what} wrote no file at {output}")


def run_codec(
    spec: CodecSpec,
    input_path,
    qp: int,
    work_dir,
    width: int | None = None,
    height: int | None = None,
) -> tuple[Path, int]:
    """Encode and decode one raw file; returns (decoded path, bitstream bits).

    The decoded file must only be read: under NULL it is input_path.
    """
    input_path = Path(input_path)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    decoded = work_dir / f"decoded_q{qp}{input_path.suffix}"

    if spec.kind == KIND_NULL:
        return input_path, 8 * input_path.stat().st_size

    if spec.kind == KIND_TRUNCATE:
        src = np.fromfile(input_path, dtype=np.uint8)
        drop = qp % 8
        decoded.write_bytes((src & ((0xFF << drop) & 0xFF)).tobytes())
        bits = 8 * sum(
            len(encode_bytes(np.packbits((src >> k) & 1).tobytes()))
            for k in range(drop, 8)
        )
        return decoded, bits

    bitstream = work_dir / f"bitstream_q{qp}.bin"
    subs = {
        "input": str(input_path),
        "qp": qp,
        "width": width if width is not None else "",
        "height": height if height is not None else "",
    }
    run_command(spec.encode_template, subs, "encoder", bitstream)
    bits = 8 * bitstream.stat().st_size
    run_command(spec.decode_template, dict(subs, input=str(bitstream)), "decoder", decoded)
    if decoded.stat().st_size != input_path.stat().st_size:
        raise ExternalToolError(
            f"decoded size {decoded.stat().st_size} differs from input "
            f"{input_path.stat().st_size}; raw dims must be preserved"
        )
    return decoded, bits
